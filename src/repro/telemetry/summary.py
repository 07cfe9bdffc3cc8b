"""Compact, pickle-cheap run summaries and cross-run aggregation.

A :class:`RunSummary` carries every aggregate a consumer of a sink's
``summary()`` can read — the counters, derived rates, per-core cycles
and per-static retry counts — in a small slots dataclass that costs a
few hundred bytes to pickle, versus a :class:`DetailSink` whose detail
structures (timestamps, histograms, conflict records) grow with
simulated work.  ``run_many`` returns a summary for every spec that does
not keep detail; the exact-parity guarantee is ``RunSummary.summary() ==
sink.summary()`` bit-for-bit for the same run (one shared
:func:`summary_dict` implementation makes this true by construction, and
the parity tests assert it end-to-end).

:func:`merge_summaries` folds many runs into one (counters sum;
``execution_cycles`` sums — total simulated cycles across runs);
:func:`aggregate_metrics` computes mean ± stdev per summary metric for
multi-seed confidence reporting (``repro-asf suite --seeds N``).

Both aggregations also exist in streaming form so a sweep's parent
process never has to hold every run at once: a
:class:`SummaryAccumulator` folds summaries in one at a time and is
bit-for-bit equal to :func:`merge_summaries` over the same sequence, and
a :class:`MetricsAccumulator` keeps Welford online mean/variance per
metric so :func:`aggregate_metrics` (reimplemented on top of it) is O(1)
in the number of runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

from repro.telemetry.sinks import (
    COUNTER_FIELDS,
    ConflictCounts,
    summary_dict,
)

__all__ = [
    "MetricStats",
    "MetricsAccumulator",
    "RunSummary",
    "SummaryAccumulator",
    "aggregate_metrics",
    "merge_summaries",
    "stats_of_values",
]


@dataclass(slots=True)
class RunSummary:
    """Aggregates of one run (or a merge of several), cheap to ship."""

    workload: str = ""
    scheme: str = ""
    seed: int = 0
    label: str = ""
    conflicts: ConflictCounts = field(default_factory=ConflictCounts)
    txn_attempts: int = 0
    txn_commits: int = 0
    aborts_conflict_true: int = 0
    aborts_conflict_false: int = 0
    aborts_capacity: int = 0
    aborts_user: int = 0
    aborts_validation: int = 0
    wasted_cycles: int = 0
    backoff_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    dirty_reprobes: int = 0
    forced_waw_aborts: int = 0
    fills_l2: int = 0
    fills_l3: int = 0
    fills_memory: int = 0
    fills_remote: int = 0
    stalls: int = 0
    stall_cycles: int = 0
    stall_aborts: int = 0
    arbitration_aborts: int = 0
    execution_cycles: int = 0
    per_core_cycles: list[int] = field(default_factory=list)
    retries_by_static: dict[int, int] = field(default_factory=dict)
    violations: int = 0
    #: How many runs this summary aggregates (1 for a single run).
    n_runs: int = 1
    #: Worker losses survived while producing this result (resilience
    #: bookkeeping — deliberately NOT part of ``summary()`` so retried and
    #: clean runs stay bit-identical).
    worker_retries: int = 0
    #: True when the run fell back to in-process execution (timeout or
    #: persistent worker failure).
    serial_fallback: bool = False
    #: Remote-fabric provenance: ``host:pid`` of the worker that produced
    #: this summary ("" when it ran locally).  Identity, like the other
    #: provenance fields, is excluded from ``summary()`` so remote and
    #: local runs stay bit-identical.
    worker: str = ""

    @classmethod
    def from_sink(
        cls,
        sink,
        workload: str = "",
        scheme: str = "",
        seed: int = 0,
        label: str = "",
        violations: int = 0,
    ) -> "RunSummary":
        """Snapshot any counting sink (CounterSink/DetailSink)."""
        out = cls(
            workload=workload,
            scheme=scheme,
            seed=seed,
            label=label,
            conflicts=sink.conflicts.copy(),
            execution_cycles=sink.execution_cycles,
            per_core_cycles=list(sink.per_core_cycles),
            retries_by_static=dict(sink.retries_by_static),
            violations=violations,
        )
        for name in COUNTER_FIELDS:
            setattr(out, name, getattr(sink, name))
        return out

    # -- sink-compatible derived metrics --------------------------------------

    @property
    def total_aborts(self) -> int:
        return (
            self.aborts_conflict_true
            + self.aborts_conflict_false
            + self.aborts_capacity
            + self.aborts_user
            + self.aborts_validation
        )

    @property
    def avg_retries(self) -> float:
        """Average attempts per *committed* transaction."""
        if not self.txn_commits:
            return 0.0
        return self.txn_attempts / self.txn_commits

    def summary(self) -> dict[str, object]:
        """Bit-identical to the source sink's ``summary()``."""
        return summary_dict(self)

    # -- portable (JSON-safe) round-trip --------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot; :meth:`from_dict` round-trips it.

        Used by the results store: every field survives, including the
        resilience provenance (which stays excluded from ``summary()``).
        """
        out: dict[str, object] = {
            "workload": self.workload,
            "scheme": self.scheme,
            "seed": self.seed,
            "label": self.label,
            "conflicts": asdict(self.conflicts),
            "execution_cycles": self.execution_cycles,
            "per_core_cycles": list(self.per_core_cycles),
            # JSON objects have string keys; from_dict converts back.
            "retries_by_static": {
                str(k): v for k, v in self.retries_by_static.items()
            },
            "violations": self.violations,
            "n_runs": self.n_runs,
            "worker_retries": self.worker_retries,
            "serial_fallback": self.serial_fallback,
            "worker": self.worker,
        }
        for name in COUNTER_FIELDS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSummary":
        out = cls(
            workload=data["workload"],
            scheme=data["scheme"],
            seed=data["seed"],
            label=data["label"],
            conflicts=ConflictCounts(**data["conflicts"]),
            execution_cycles=data["execution_cycles"],
            per_core_cycles=list(data["per_core_cycles"]),
            retries_by_static={
                int(k): v for k, v in data["retries_by_static"].items()
            },
            violations=data["violations"],
            n_runs=data["n_runs"],
            worker_retries=data.get("worker_retries", 0),
            serial_fallback=data.get("serial_fallback", False),
            worker=data.get("worker", ""),
        )
        for name in COUNTER_FIELDS:
            # Stored snapshots predating a counter read back as zero.
            setattr(out, name, data.get(name, 0))
        return out


class SummaryAccumulator:
    """Fold run summaries in one at a time, in O(1) memory.

    ``accumulator.add(s)`` for each summary then ``accumulator.merged()``
    is bit-for-bit identical to ``merge_summaries([...])`` over the same
    sequence — :func:`merge_summaries` is in fact implemented on top of
    this class, so the two cannot drift.  This is what lets a streaming
    sweep aggregate 10k+ runs without ever materialising them.
    """

    def __init__(self) -> None:
        self._out: RunSummary | None = None

    @property
    def count(self) -> int:
        """How many runs have been folded in (``n_runs`` total)."""
        return self._out.n_runs if self._out is not None else 0

    def add(self, summary: RunSummary) -> None:
        """Fold one run's summary into the accumulated totals."""
        out = self._out
        if out is None:
            out = self._out = RunSummary(
                workload=summary.workload,
                scheme=summary.scheme,
                seed=summary.seed,
                label=summary.label,
                n_runs=0,
            )
        else:
            # Metadata stays while uniform, collapses to a sentinel on the
            # first disagreement (same rule merge_summaries always used).
            if out.workload != summary.workload:
                out.workload = "mixed"
            if out.scheme != summary.scheme:
                out.scheme = "mixed"
            if out.seed != summary.seed:
                out.seed = -1
            if out.label != summary.label:
                out.label = "mixed"
        out.n_runs += summary.n_runs
        out.conflicts.merge(summary.conflicts)
        for name in COUNTER_FIELDS:
            setattr(out, name, getattr(out, name) + getattr(summary, name))
        out.execution_cycles += summary.execution_cycles
        out.violations += summary.violations
        out.worker_retries += summary.worker_retries
        for static_id, n in summary.retries_by_static.items():
            out.retries_by_static[static_id] = (
                out.retries_by_static.get(static_id, 0) + n
            )

    def merged(self) -> RunSummary:
        """The accumulated summary (owned by the accumulator)."""
        if self._out is None:
            raise ValueError("SummaryAccumulator has no summaries to merge")
        return self._out


def merge_summaries(summaries: Sequence[RunSummary]) -> RunSummary:
    """Fold several run summaries into one.

    Counters, conflicts, retries, violations and ``execution_cycles``
    sum (the merged ``execution_cycles`` is total simulated cycles across
    runs); ``per_core_cycles`` is dropped (not meaningful across runs);
    metadata fields are kept when uniform, else marked ``"mixed"`` /
    ``-1``.  Implemented as a fold over :class:`SummaryAccumulator`, so
    the batch and streaming paths are identical by construction.
    """
    if not summaries:
        raise ValueError("merge_summaries needs at least one summary")
    acc = SummaryAccumulator()
    for s in summaries:
        acc.add(s)
    return acc.merged()


@dataclass(frozen=True, slots=True)
class MetricStats:
    """Mean ± sample stdev of one metric over independent runs."""

    mean: float
    stdev: float
    n: int
    minimum: float
    maximum: float

    def format(self, precision: int = 2) -> str:
        return f"{self.mean:.{precision}f} ± {self.stdev:.{precision}f}"


class _Welford:
    """Welford's online mean/variance: one value at a time, O(1) state."""

    __slots__ = ("n", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def stats(self) -> MetricStats:
        if self.n == 0:
            raise ValueError("no values accumulated")
        # m2 can go infinitesimally negative through rounding; clamp.
        stdev = math.sqrt(max(self.m2, 0.0) / (self.n - 1)) if self.n > 1 else 0.0
        return MetricStats(
            mean=self.mean,
            stdev=stdev,
            n=self.n,
            minimum=self.minimum,
            maximum=self.maximum,
        )


def stats_of_values(values: Iterable[float]) -> MetricStats:
    """Mean ± stdev of a plain value sequence (derived figure metrics)."""
    acc = _Welford()
    for v in values:
        acc.add(float(v))
    return acc.stats()


class MetricsAccumulator:
    """Streaming per-metric mean ± stdev over runs.

    Feed it anything exposing ``summary()`` (``RunSummary``,
    ``CounterSink``, ``DetailSink``); memory is O(#metrics), not
    O(#runs) — each metric keeps only Welford's ``(n, mean, M2)`` plus
    min/max.  :func:`aggregate_metrics` is a fold over this class.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Welford] = {}
        self.n_runs = 0

    def add(self, run) -> None:
        """Fold one run (or its summary object) into the statistics."""
        self.n_runs += 1
        for key, value in run.summary().items():
            acc = self._metrics.get(key)
            if acc is None:
                acc = self._metrics[key] = _Welford()
            acc.add(float(value))

    def stats(self) -> dict[str, MetricStats]:
        """Per-metric statistics over everything folded in so far."""
        return {key: acc.stats() for key, acc in self._metrics.items()}


def aggregate_metrics(runs: Iterable) -> dict[str, MetricStats]:
    """Per-metric mean ± stdev over runs (summaries or sinks).

    Every numeric key of ``summary()`` is aggregated; sample standard
    deviation (0.0 for a single run).  Used by the ``--seeds N`` fan-out
    to report confidence alongside point estimates.  Streams through a
    :class:`MetricsAccumulator`, so ``runs`` may be a lazy generator of
    any length without the parent ever holding them all.
    """
    acc = MetricsAccumulator()
    for r in runs:
        acc.add(r)
    return acc.stats() if acc.n_runs else {}
