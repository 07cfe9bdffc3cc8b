"""Per-figure computations.

One function per evaluation artifact; each takes suite results (or a
single run's stats) and returns plain data — rows for bar charts, series
for line plots — that :mod:`repro.analysis.report` renders and the
benchmark harness prints.  Keeping computation separate from rendering is
what the tests assert against.

The ``*_stats`` variants take a multi-seed
:class:`~repro.analysis.experiments.SeedSweepResults` instead of a single
suite and return :class:`~repro.telemetry.summary.MetricStats` cells
(mean ± stdev error bars).  Derived metrics (reductions, speedups) are
computed per seed on seed-paired runs *before* aggregating, so the
spread is the real seed-to-seed spread of the ratio, not a ratio of
means.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.experiments import (
    FOCUS_BENCHMARKS,
    SeedSweepResults,
    SuiteResults,
)
from repro.analysis.granularity import reduction_by_granularity
from repro.config import DetectionScheme
from repro.sim.runner import RunResult
from repro.telemetry.sinks import DetailSink
from repro.telemetry.summary import MetricStats, stats_of_values

__all__ = [
    "abort_breakdown",
    "compute_all_figures",
    "fig1_false_rates",
    "fig1_false_rates_stats",
    "fig2_breakdown",
    "fig3_time_series",
    "fig4_line_histogram",
    "fig5_offset_histogram",
    "fig8_sensitivity",
    "fig9_overall_reduction",
    "fig9_overall_reduction_stats",
    "fig10_exec_improvement",
    "fig10_exec_improvement_stats",
    "commit_rate_stats",
]

GRANULARITIES = (2, 4, 8, 16)


def fig1_false_rates(suite: SuiteResults) -> list[tuple[str, float]]:
    """Figure 1: baseline false-conflict rate per benchmark, plus mean."""
    rows = [(name, suite[name].false_rate) for name in suite.names()]
    rows.append(("average", suite.mean_false_rate))
    return rows


def fig2_breakdown(suite: SuiteResults) -> list[tuple[str, float, float, float]]:
    """Figure 2: WAR/RAW/WAW shares of baseline false conflicts."""
    rows = []
    for name in suite.names():
        shares = suite[name].baseline.stats.conflicts.false_breakdown()
        rows.append((name, shares["WAR"], shares["RAW"], shares["WAW"]))
    return rows


def _focus(suite: SuiteResults, benchmarks: tuple[str, ...] | None) -> tuple[str, ...]:
    """Resolve a benchmark selection against what the suite actually ran.

    Defaults to the paper's four focus benchmarks (Figures 3-5), falling
    back to every available benchmark when none of them were run.
    """
    if benchmarks is None:
        benchmarks = FOCUS_BENCHMARKS
    available = tuple(b for b in benchmarks if b in suite.benches)
    return available if available else tuple(suite.names())


def fig3_time_series(
    suite: SuiteResults,
    benchmarks: tuple[str, ...] | None = None,
    n_points: int = 50,
) -> dict[str, dict[str, list[tuple[int, int]]]]:
    """Figure 3: cumulative false conflicts and transaction starts.

    ``{bench: {"false_conflicts": [(t, cum)], "txn_starts": [(t, cum)]}}``
    """
    out: dict[str, dict[str, list[tuple[int, int]]]] = {}
    for name in _focus(suite, benchmarks):
        stats = suite[name].baseline.stats
        out[name] = {
            "false_conflicts": stats.cumulative_false_series(n_points),
            "txn_starts": stats.cumulative_starts_series(n_points),
        }
    return out


def fig4_line_histogram(
    suite: SuiteResults, benchmarks: tuple[str, ...] | None = None
) -> dict[str, list[tuple[int, int]]]:
    """Figure 4: false conflicts per cache-line index."""
    return {
        name: suite[name].baseline.stats.line_histogram()
        for name in _focus(suite, benchmarks)
    }


def fig5_offset_histogram(
    suite: SuiteResults, benchmarks: tuple[str, ...] | None = None
) -> dict[str, list[tuple[int, int]]]:
    """Figure 5: access counts by starting byte offset within the line."""
    return {
        name: suite[name].baseline.stats.access_offset_histogram()
        for name in _focus(suite, benchmarks)
    }


def fig5_dominant_grain(stats: DetailSink) -> int:
    """The dominant access granularity implied by offset alignment.

    Figure 5's observation: accesses land on an 8-byte grid for most
    benchmarks and a 4-byte grid for kmeans.  Returns the largest
    power-of-two stride that all (weighted ≥99%) access offsets align to.
    """
    hist = stats.access_offset_histogram()
    total = sum(c for _, c in hist)
    if total == 0:
        return 0
    for grain in (64, 32, 16, 8, 4, 2, 1):
        aligned = sum(c for off, c in hist if off % grain == 0)
        if aligned / total >= 0.99:
            return grain
    return 1  # pragma: no cover - grain 1 always matches


def fig8_sensitivity(
    suite: SuiteResults,
    granularities: tuple[int, ...] = GRANULARITIES,
    include_forced_waw: bool = False,
) -> list[tuple[str, dict[int, float]]]:
    """Figure 8: open-loop false-conflict reduction per sub-block count,
    replaying each baseline run's conflict records."""
    rows = []
    for name in suite.names():
        events = suite[name].baseline.stats.conflict_events
        rows.append(
            (
                name,
                reduction_by_granularity(
                    events, granularities, include_forced_waw=include_forced_waw
                ),
            )
        )
    avg = {
        n: (sum(r[1][n] for r in rows) / len(rows)) if rows else 0.0
        for n in granularities
    }
    rows.append(("average", avg))
    return rows


def abort_breakdown(suite: SuiteResults) -> list[tuple[str, int, int, int, int, int]]:
    """Supplementary: baseline aborts by cause per benchmark.

    Backs the paper's Figure 9 discussion ("Most of labyrinth's aborts
    came from the user's aborts"): columns are true-conflict,
    false-conflict, capacity, user and validation aborts.
    """
    rows = []
    for name in suite.names():
        s = suite[name].baseline.stats
        rows.append(
            (
                name,
                s.aborts_conflict_true,
                s.aborts_conflict_false,
                s.aborts_capacity,
                s.aborts_user,
                s.aborts_validation,
            )
        )
    return rows


def fig9_overall_reduction(suite: SuiteResults) -> list[tuple[str, float, float]]:
    """Figure 9: overall conflict reduction, sub-block vs perfect."""
    rows = [
        (name, suite[name].overall_reduction, suite[name].perfect_reduction)
        for name in suite.names()
    ]
    n = len(suite.names())
    rows.append(
        (
            "average",
            sum(r[1] for r in rows) / n if n else 0.0,
            sum(r[2] for r in rows) / n if n else 0.0,
        )
    )
    return rows


def fig10_exec_improvement(suite: SuiteResults) -> list[tuple[str, float, float]]:
    """Figure 10: execution-time improvement, sub-block vs perfect."""
    rows = [
        (name, suite[name].speedup, suite[name].perfect_speedup)
        for name in suite.names()
    ]
    n = len(suite.names())
    rows.append(
        (
            "average",
            sum(r[1] for r in rows) / n if n else 0.0,
            sum(r[2] for r in rows) / n if n else 0.0,
        )
    )
    return rows


def _require_schemes(sweep: SeedSweepResults, *schemes: DetectionScheme) -> None:
    missing = [s.value for s in schemes if s not in sweep.schemes]
    if missing:
        raise ValueError(
            f"seed sweep is missing scheme(s) {missing}; "
            "re-run run_seed_sweep with them included"
        )


def fig1_false_rates_stats(
    sweep: SeedSweepResults,
) -> list[tuple[str, MetricStats]]:
    """Figure 1 with error bars: baseline false rate, mean ± stdev over seeds.

    The "average" row aggregates the per-seed cross-benchmark means, so
    its spread is the seed-to-seed spread of the figure's average bar.
    """
    _require_schemes(sweep, DetectionScheme.ASF_BASELINE)
    n_benches = len(sweep.benchmarks)
    per_seed_means = [0.0] * len(sweep.seeds)
    rows = []
    for name in sweep.benchmarks:
        runs = sweep.runs[(name, DetectionScheme.ASF_BASELINE.value)]
        vals = [r.false_rate for r in runs]
        for k, v in enumerate(vals):
            per_seed_means[k] += v / n_benches
        rows.append((name, stats_of_values(vals)))
    rows.append(("average", stats_of_values(per_seed_means)))
    return rows


def _derived_stats(
    sweep: SeedSweepResults,
    derive: Callable[[RunResult, RunResult], float],
) -> list[tuple[str, MetricStats, MetricStats]]:
    """Seed-paired (sub-block vs baseline, perfect vs baseline) derivations."""
    _require_schemes(
        sweep,
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
        DetectionScheme.PERFECT,
    )
    n_benches = len(sweep.benchmarks)
    n_seeds = len(sweep.seeds)
    sub_means = [0.0] * n_seeds
    perf_means = [0.0] * n_seeds
    rows = []
    for name in sweep.benchmarks:
        base = sweep.runs[(name, DetectionScheme.ASF_BASELINE.value)]
        sub = sweep.runs[(name, DetectionScheme.SUBBLOCK.value)]
        perf = sweep.runs[(name, DetectionScheme.PERFECT.value)]
        sub_vals = [derive(s, b) for s, b in zip(sub, base)]
        perf_vals = [derive(p, b) for p, b in zip(perf, base)]
        for k in range(n_seeds):
            sub_means[k] += sub_vals[k] / n_benches
            perf_means[k] += perf_vals[k] / n_benches
        rows.append((name, stats_of_values(sub_vals), stats_of_values(perf_vals)))
    rows.append(
        ("average", stats_of_values(sub_means), stats_of_values(perf_means))
    )
    return rows


def fig9_overall_reduction_stats(
    sweep: SeedSweepResults,
) -> list[tuple[str, MetricStats, MetricStats]]:
    """Figure 9 with error bars: overall conflict reduction over seeds."""
    return _derived_stats(
        sweep, lambda run, base: run.conflict_reduction_over(base)
    )


def fig10_exec_improvement_stats(
    sweep: SeedSweepResults,
) -> list[tuple[str, MetricStats, MetricStats]]:
    """Figure 10 with error bars: execution-time improvement over seeds."""
    return _derived_stats(sweep, lambda run, base: run.speedup_over(base))


def commit_rate_stats(
    sweep: SeedSweepResults,
) -> list[tuple[str, str, MetricStats]]:
    """Commit rate (commits / attempts) per bench × scheme, over seeds."""
    rows = []
    for name in sweep.benchmarks:
        for scheme in sweep.schemes:
            vals = []
            for run in sweep.runs[(name, scheme.value)]:
                attempts = run.stats.txn_attempts
                vals.append(
                    run.stats.txn_commits / attempts if attempts else 0.0
                )
            rows.append((name, scheme.value, stats_of_values(vals)))
    return rows


def compute_all_figures(suite: SuiteResults) -> dict[str, object]:
    """Every figure computation over one suite, keyed by artifact name.

    This is the full post-simulation analysis pipeline in one call — the
    perf harness times it separately from the simulations that feed it,
    and reports use it to avoid re-deriving the figure list.
    """
    return {
        "fig1_false_rates": fig1_false_rates(suite),
        "fig2_breakdown": fig2_breakdown(suite),
        "fig3_time_series": fig3_time_series(suite),
        "fig4_line_histogram": fig4_line_histogram(suite),
        "fig5_offset_histogram": fig5_offset_histogram(suite),
        "fig9_overall_reduction": fig9_overall_reduction(suite),
        "fig10_exec_improvement": fig10_exec_improvement(suite),
        "abort_breakdown": abort_breakdown(suite),
        "fig8_sensitivity": fig8_sensitivity(suite),
    }
