"""repro.telemetry — typed events, pluggable sinks, compact summaries.

The measurement layer of the simulator, sitting *below* every machine
layer (it imports none of them):

* :mod:`repro.telemetry.events` — the :class:`EventSink` protocol the
  machine emits through, plus typed event records (a conflict is the
  machine's own :class:`~repro.htm.conflict.ConflictRecord`);
* :mod:`repro.telemetry.sinks` — counter-only, full-detail and JSONL
  trace-export sinks (and :class:`ConflictCounts`);
* :mod:`repro.telemetry.summary` — :class:`RunSummary`, a
  :class:`CounterSink` that also carries a run's identity, plus the
  folds that merge runs and aggregate mean ± stdev over seeds.

See ``docs/ARCHITECTURE.md`` for the layering and how to add a sink.
"""

from repro.telemetry.events import (
    AccessEvent,
    BackoffEvent,
    DirtyReprobeEvent,
    EventSink,
    FillEvent,
    NullSink,
    RunCompleteEvent,
    TxnAbortEvent,
    TxnCommitEvent,
    TxnStartEvent,
)
from repro.telemetry.sinks import (
    ConflictCounts,
    CounterSink,
    DetailSink,
    JsonlTraceSink,
    summary_dict,
)
from repro.telemetry.summary import (
    MetricStats,
    RunSummary,
    aggregate_metrics,
    merge_summaries,
    stats_of_values,
)

__all__ = [
    "AccessEvent",
    "BackoffEvent",
    "ConflictCounts",
    "CounterSink",
    "DetailSink",
    "DirtyReprobeEvent",
    "EventSink",
    "FillEvent",
    "JsonlTraceSink",
    "MetricStats",
    "NullSink",
    "RunCompleteEvent",
    "RunSummary",
    "TxnAbortEvent",
    "TxnCommitEvent",
    "TxnStartEvent",
    "aggregate_metrics",
    "merge_summaries",
    "stats_of_values",
    "summary_dict",
]
