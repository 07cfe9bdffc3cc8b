"""Run summaries and cross-run folds.

A :class:`RunSummary` is a :class:`~repro.telemetry.sinks.CounterSink`
that also carries the run's identity and provenance.  A run that keeps
no detail counts straight into one, so ``run_many`` hands back the very
object the engine counted into: a small slots dataclass that costs a
few hundred bytes to pickle, versus a :class:`DetailSink` whose detail
structures (timestamps, histograms, conflict records) grow with
simulated work.  :meth:`RunSummary.from_sink` snapshots a detail sink
into one; its ``summary()`` is the sink's bit for bit, because both
inherit the one :func:`~repro.telemetry.sinks.summary_dict`.

:func:`merge_summaries` folds many runs into one (counters sum;
``execution_cycles`` sums — total simulated cycles across runs);
:func:`aggregate_metrics` computes mean ± stdev per summary metric for
multi-seed confidence reporting (``repro-asf suite --seeds N``).  Both
fold any iterable one run at a time, a lazy ``iter_many`` stream
included, so a sweep's parent never holds every run at once: the merge
keeps one summary and the aggregate keeps Welford's online mean and
variance per metric.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

from repro.telemetry.sinks import (
    COUNTER_FIELDS,
    ConflictCounts,
    CounterSink,
)

__all__ = [
    "MetricStats",
    "RunSummary",
    "aggregate_metrics",
    "merge_summaries",
    "stats_of_values",
]


@dataclass(slots=True)
class RunSummary(CounterSink):
    """The counters of one run (or a merge of several), with identity.

    The counters, hooks and ``summary()`` are :class:`CounterSink`'s;
    this class adds who ran, what it aggregates, and how it got here.
    """

    workload: str = ""
    scheme: str = ""
    seed: int = 0
    label: str = ""
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
        return cls(
            workload=workload,
            scheme=scheme,
            seed=seed,
            label=label,
            conflicts=sink.conflicts.copy(),
            execution_cycles=sink.execution_cycles,
            per_core_cycles=list(sink.per_core_cycles),
            retries_by_static=dict(sink.retries_by_static),
            violations=violations,
            **{name: getattr(sink, name) for name in COUNTER_FIELDS},
        )

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
        return cls(
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
            # Stored snapshots predating a counter read back as zero.
            **{name: data.get(name, 0) for name in COUNTER_FIELDS},
        )


def merge_summaries(summaries: Iterable[RunSummary]) -> RunSummary:
    """Fold several run summaries into one, one at a time.

    Counters, conflicts, retries, violations and ``execution_cycles``
    sum (the merged ``execution_cycles`` is total simulated cycles across
    runs); ``per_core_cycles`` is dropped (not meaningful across runs);
    metadata fields are kept when uniform, else marked ``"mixed"`` /
    ``-1``.  ``summaries`` may be any iterable, a lazy stream included;
    an empty one is a ``ValueError``.
    """
    out: RunSummary | None = None
    for summary in summaries:
        if out is None:
            out = RunSummary(
                workload=summary.workload,
                scheme=summary.scheme,
                seed=summary.seed,
                label=summary.label,
                n_runs=0,
            )
        else:
            # Metadata stays while uniform, collapses to a sentinel on the
            # first disagreement.
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
    if out is None:
        raise ValueError("merge_summaries needs at least one summary")
    return out


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


def aggregate_metrics(runs: Iterable) -> dict[str, MetricStats]:
    """Per-metric mean ± stdev over runs (summaries or sinks).

    Every numeric key of ``summary()`` is aggregated; sample standard
    deviation (0.0 for a single run).  Used by the ``--seeds N`` fan-out
    to report confidence alongside point estimates.  A fold: ``runs`` may
    be a lazy generator of any length, and only Welford's state per
    metric is kept.  No runs give an empty dict.
    """
    metrics: dict[str, _Welford] = {}
    for run in runs:
        for key, value in run.summary().items():
            acc = metrics.get(key)
            if acc is None:
                acc = metrics[key] = _Welford()
            acc.add(float(value))
    return {key: acc.stats() for key, acc in metrics.items()}
