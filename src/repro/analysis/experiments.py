"""Suite orchestration: run the whole evaluation once, read it many ways.

:func:`run_suite` executes every Table III benchmark under the three
systems of the paper's evaluation (baseline ASF, sub-blocking N=4,
perfect) with conflict-event recording on the baseline run, and returns a
:class:`SuiteResults` that every figure computation draws from.  The
benchmark harness shares one suite per session via a fixture so the ten
figure benches do not re-simulate.

The suite is benchmarks × schemes independent simulations, so it fans out
through the streaming :func:`repro.sim.parallel.run_many` path — a
parallel ``executor=`` runs them concurrently with bit-identical results,
and the registry-name specs let each worker compile a benchmark once
and reuse it for all three schemes.  A ``store`` on the executor config
checkpoints completions to a :class:`~repro.store.ResultsStore`
(interrupted suites resume); its ``on_result`` fires per completion for
live progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import DetectionScheme, SystemConfig, default_system
from repro.sim.parallel import RunSpec, run_many
from repro.sim.runner import RunResult
from repro.telemetry.summary import MetricStats, aggregate_metrics
from repro.workloads.registry import BENCHMARK_NAMES

if TYPE_CHECKING:
    from repro.sim.executors import ExecConfig, Executor

__all__ = [
    "BenchResult",
    "SeedSweepResults",
    "SuiteResults",
    "run_seed_sweep",
    "run_suite",
]

#: The four evaluation figures of the STAMP subset (Figures 3-5).
FOCUS_BENCHMARKS = ("vacation", "genome", "kmeans", "intruder")


@dataclass(slots=True)
class BenchResult:
    """All three systems' runs of one benchmark on identical scripts."""

    name: str
    baseline: RunResult
    subblock: RunResult
    perfect: RunResult

    @property
    def false_rate(self) -> float:
        """Baseline false-conflict rate (Figure 1)."""
        return self.baseline.false_rate

    @property
    def false_reduction(self) -> float:
        """Closed-loop false-conflict reduction of sub-blocking."""
        return self.subblock.false_reduction_over(self.baseline)

    @property
    def overall_reduction(self) -> float:
        """Overall conflict reduction of sub-blocking (Figure 9)."""
        return self.subblock.conflict_reduction_over(self.baseline)

    @property
    def perfect_reduction(self) -> float:
        """Overall conflict reduction of the perfect system (Figure 9)."""
        return self.perfect.conflict_reduction_over(self.baseline)

    @property
    def speedup(self) -> float:
        """Execution-time improvement of sub-blocking (Figure 10)."""
        return self.subblock.speedup_over(self.baseline)

    @property
    def perfect_speedup(self) -> float:
        """Execution-time improvement of the perfect system (Figure 10)."""
        return self.perfect.speedup_over(self.baseline)


@dataclass(slots=True)
class SuiteResults:
    """One full evaluation run over a benchmark list."""

    txns_per_core: int
    seed: int
    benches: dict[str, BenchResult] = field(default_factory=dict)

    def names(self) -> list[str]:
        return list(self.benches)

    def __getitem__(self, name: str) -> BenchResult:
        return self.benches[name]

    @property
    def mean_false_rate(self) -> float:
        vals = [b.false_rate for b in self.benches.values()]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def mean_false_reduction(self) -> float:
        vals = [b.false_reduction for b in self.benches.values()]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def mean_overall_reduction(self) -> float:
        vals = [b.overall_reduction for b in self.benches.values()]
        return sum(vals) / len(vals) if vals else 0.0


#: Scheme order inside each benchmark's spec triple.
_SUITE_SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)


def run_suite(
    txns_per_core: int = 400,
    seed: int = 1,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    check_atomicity: bool = False,
    trace_dir: str | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> SuiteResults:
    """Run every benchmark under baseline/sub-block/perfect.

    ``check_atomicity`` defaults to off here (the correctness suite covers
    it; the figure harness favours wall-clock).  The baseline runs keep
    detail: Figures 3-5 read their histograms and the open-loop Figure 8
    replays their conflict records; the other schemes only contribute
    aggregates and come back as summaries.  ``executor`` says how the
    benchmarks × schemes batch runs (see
    :func:`~repro.sim.parallel.run_many`); every run is independently
    seeded so the results are identical to a serial suite.  A store on
    the executor config checkpoints the summary runs (the baselines keep
    detail and re-run on resume — their detail cannot round-trip through
    JSON).  ``trace_dir`` records every run as a
    JSONL event trace (``<bench>_<scheme>.jsonl``) for post-hoc
    forensics.
    """
    import os

    from repro.sim.runner import _traced, trace_filename

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    base_cfg = config if config is not None else default_system()
    suite = SuiteResults(txns_per_core=txns_per_core, seed=seed)
    specs = [
        RunSpec(
            workload=name,
            config=_traced(
                base_cfg.with_scheme(scheme, n_subblocks),
                trace_dir,
                trace_filename(name, scheme.value),
            ),
            seed=seed,
            txns_per_core=txns_per_core,
            label=f"{name}:{scheme.value}",
            check_atomicity=check_atomicity,
            record_detail=scheme is DetectionScheme.ASF_BASELINE,
        )
        for name in benchmarks
        for scheme in _SUITE_SCHEMES
    ]
    results = run_many(specs, executor)
    for i, name in enumerate(benchmarks):
        runs: dict[DetectionScheme, RunResult] = {
            scheme: results[i * len(_SUITE_SCHEMES) + j]
            for j, scheme in enumerate(_SUITE_SCHEMES)
        }
        suite.benches[name] = BenchResult(
            name=name,
            baseline=runs[DetectionScheme.ASF_BASELINE],
            subblock=runs[DetectionScheme.SUBBLOCK],
            perfect=runs[DetectionScheme.PERFECT],
        )
    return suite


@dataclass(slots=True)
class SeedSweepResults:
    """Multi-seed repetitions of the evaluation, for mean ± stdev metrics.

    ``runs[(bench, scheme_value)]`` holds one compact
    :class:`~repro.sim.runner.RunResult` per seed, in seed order.
    """

    txns_per_core: int
    seeds: tuple[int, ...]
    benchmarks: tuple[str, ...]
    schemes: tuple[DetectionScheme, ...]
    runs: dict[tuple[str, str], list[RunResult]] = field(default_factory=dict)

    def metrics(self, bench: str, scheme: str) -> dict[str, MetricStats]:
        """Mean ± stdev over the seeds for every summary metric."""
        return aggregate_metrics([r.stats for r in self.runs[(bench, scheme)]])


def run_seed_sweep(
    txns_per_core: int = 200,
    seeds: tuple[int, ...] = (1, 2, 3),
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    schemes: tuple[DetectionScheme, ...] = _SUITE_SCHEMES,
    executor: "ExecConfig | str | Executor | None" = None,
) -> SeedSweepResults:
    """Repeat benchmarks × schemes over several seeds.

    Every run ships back as a compact summary (no per-event detail), so
    even a wide sweep is cheap to fan out over a fleet; the per-metric
    spread comes from :func:`repro.telemetry.aggregate_metrics`.  A
    store on the ``executor`` config checkpoints every completed (bench,
    scheme, seed) run, so an interrupted sweep resumes with only the
    missing cells.
    """
    if not seeds:
        raise ValueError("run_seed_sweep needs at least one seed")
    base_cfg = config if config is not None else default_system()
    specs = [
        RunSpec(
            workload=name,
            config=base_cfg.with_scheme(scheme, n_subblocks),
            seed=seed,
            txns_per_core=txns_per_core,
            label=f"{name}:{scheme.value}:s{seed}",
        )
        for name in benchmarks
        for scheme in schemes
        for seed in seeds
    ]
    results = run_many(specs, executor)
    sweep = SeedSweepResults(
        txns_per_core=txns_per_core,
        seeds=tuple(seeds),
        benchmarks=tuple(benchmarks),
        schemes=schemes,
    )
    it = iter(results)
    for name in benchmarks:
        for scheme in schemes:
            sweep.runs[(name, scheme.value)] = [next(it) for _ in seeds]
    return sweep
