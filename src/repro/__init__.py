"""repro — reproduction of *"Reducing False Transactional Conflicts with
Speculative Sub-blocking State"* (Nai & Lee, IEEE IPDPSW 2013).

The package models an AMD-ASF-style hardware transactional memory on top
of a MOESI-coherent multicore, implements the paper's speculative
sub-blocking conflict detector, and regenerates every table and figure of
the paper's evaluation from seeded synthetic STAMP/RMS-TM workloads.

Quickstart::

    from repro import compare_systems, get_workload

    results = compare_systems(get_workload("vacation", 200), seed=1)
    base, sub = results["asf"], results["subblock"]
    print("false conflict rate:", base.false_rate)
    print("false conflicts eliminated:", sub.false_reduction_over(base))
    print("execution improvement:", sub.speedup_over(base))

Record a run's event trace and run conflict forensics over it::

    from repro import analyze_trace, default_system, run_workload

    cfg = default_system().with_telemetry(sink="trace", trace_path="ev.jsonl")
    run_workload(get_workload("kmeans", 200), cfg, seed=1)
    print(analyze_trace("ev.jsonl"))

Everything in ``__all__`` below is the stable public API: these names
keep working across minor releases, with renames bridged by
``DeprecationWarning`` shims for one release before removal.  Deeper
module paths are implementation detail.

Version 2.0.0 is a major release because it removes keywords: a batch
is configured only through ``executor=`` (an :class:`ExecConfig`, a spec
string such as ``"process:8"``, a live executor or ``None``), so the
per-call ``jobs=``/``store=``/``on_result=``/``transfer=`` keywords and
the ``ExecConfig`` fields ``transfer``, ``resume`` and ``options`` are
gone; a store or a progress callback rides on the :class:`ExecConfig`.

Version 3.0.0 is a major release because a run now returns exactly what
it collected: it keeps per-event detail only when its caller asks
(``record_detail`` or ``record_events``), and otherwise ``run_many``
returns a :class:`RunSummary`.  ``RunSpec.transfer`` is gone
(``record_detail=True`` replaces ``transfer="full"``, and
``RunSpec.record_detail`` now defaults to False), as are the
``repro.sim`` stats-collector class and module (use
``repro.telemetry.DetailSink``, whose ``on_*`` hooks the collector's
``record_*`` methods aliased), the telemetry sink values ``"counters"`` and
``"detail"``, and the :class:`RunSummary` properties ``conflict_events``,
``txn_start_times``, ``record_detail`` and ``record_events``.

Version 4.0.0 is a major release because one
:class:`~repro.telemetry.DetailSink` now collects a run's detail, fed
live or replayed from a trace (:class:`ConflictTimeline` is a subclass),
and always keeps the conflict records.  Gone are the ``record_events``
keyword (ask for detail with ``RunSpec(record_detail=True)``),
``RunSpec.keeps_detail``, ``ConflictTimeline.counters`` and
``.conflicts`` (use its own counters and ``conflict_events`` /
``conflict_victims``), ``AttemptRecord.duration``, ``DetailSink``'s
per-figure lists and ``offset_histogram()`` (use its readers, e.g.
``access_offset_histogram()``), and ``repro.trace.access_log`` (record
a trace with ``trace_accesses=True``).

Layering (each layer only depends on the ones above it):

* :mod:`repro.util`, :mod:`repro.config`, :mod:`repro.errors`
* :mod:`repro.mem` — caches, MOESI coherence, Table II hierarchy
* :mod:`repro.htm` — transactions, versioning, baseline ASF, the machine
* :mod:`repro.core` — the paper's sub-blocking detector (+ perfect bound)
* :mod:`repro.sim` — event engine, batch execution, atomicity checker
* :mod:`repro.workloads` — the ten Table III benchmark generators
* :mod:`repro.analysis` — figure/table regeneration
"""

from repro.analysis.experiments import (
    SeedSweepResults,
    SuiteResults,
    run_seed_sweep,
    run_suite,
)
from repro.analysis.granularity import conflict_survives, reduction_by_granularity
from repro.analysis.trace import (
    ConflictTimeline,
    TraceHeader,
    TraceReader,
    analyze_trace,
    read_events,
)
from repro.config import (
    POLICY_PRESETS,
    CacheConfig,
    ConflictResolution,
    DetectionScheme,
    DetectionTiming,
    HtmConfig,
    HtmPolicy,
    LatencyConfig,
    LazyArbitration,
    SystemConfig,
    VersionMgmt,
    default_system,
)
from repro.errors import (
    AtomicityViolation,
    ConfigError,
    ProtocolError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.sim.parallel import (
    ExecConfig,
    RunSpec,
    build_executor,
    iter_many,
    parse_executor_spec,
    run_many,
)
from repro.sim.runner import (
    RunResult,
    compare_systems,
    compare_systems_seeds,
    run_workload,
)
from repro.store import MergeReport, ResultsStore, StoreEntry
from repro.telemetry import RunSummary, aggregate_metrics, merge_summaries
from repro.workloads.registry import BENCHMARK_NAMES, all_workloads, get_workload

__version__ = "4.0.0"

__all__ = [
    "AtomicityViolation",
    "BENCHMARK_NAMES",
    "CacheConfig",
    "ConfigError",
    "ConflictResolution",
    "ConflictTimeline",
    "DetectionScheme",
    "DetectionTiming",
    "ExecConfig",
    "HtmConfig",
    "HtmPolicy",
    "LatencyConfig",
    "LazyArbitration",
    "MergeReport",
    "POLICY_PRESETS",
    "ProtocolError",
    "ReproError",
    "ResultsStore",
    "RunResult",
    "RunSpec",
    "RunSummary",
    "SeedSweepResults",
    "SimulationError",
    "StoreEntry",
    "SuiteResults",
    "SystemConfig",
    "TraceHeader",
    "TraceReader",
    "VersionMgmt",
    "WorkloadError",
    "__version__",
    "aggregate_metrics",
    "all_workloads",
    "analyze_trace",
    "build_executor",
    "compare_systems",
    "compare_systems_seeds",
    "conflict_survives",
    "default_system",
    "get_workload",
    "iter_many",
    "merge_summaries",
    "parse_executor_spec",
    "read_events",
    "reduction_by_granularity",
    "run_many",
    "run_seed_sweep",
    "run_suite",
    "run_workload",
]
