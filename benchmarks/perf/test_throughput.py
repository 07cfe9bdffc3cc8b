"""Hot-path throughput benchmarks for the PR's optimizations.

Each benchmark isolates one of the speedups so regressions are visible
in isolation:

* the flat kernel + micro-batched engine (the default stack) vs the
  object kernel, and batched vs stepwise event loops,
* detail-off stats recording vs the full detail layer,
* compile-once script caching vs per-point recompilation,
* ``run_many`` dispatch overhead on the serial executor (the reference
  path must stay cheap).

The assertions are parity/shape checks only — relative wall-clock claims
live in ``examples/bench_perf.py`` where both sides are measured in one
process and written to ``BENCH_perf.json``.
"""

from __future__ import annotations

from repro.config import DetectionScheme, default_system
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import RunSpec, compiled_scripts, run_many
from repro.telemetry.sinks import DetailSink
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.vacation import VacationWorkload


def _contended_scripts(txns: int = 30, seed: int = 5):
    w = VacationWorkload(txns_per_core=txns)
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    return w, cfg, w.build(cfg.n_cores, seed)


def _run_kernel(cfg, scripts, *, kernel: str, micro_batch: bool = True):
    return SimulationEngine(
        cfg.with_kernel(kernel), scripts, seed=5,
        check_atomicity=False, record_detail=False,
        micro_batch=micro_batch,
    ).run()


def test_flat_txn_engine_throughput(benchmark):
    """Contended run on the flat kernel + batched engine (the default
    stack; this is the perf-history gate metric's workload shape)."""
    _, cfg, scripts = _contended_scripts()
    stats = benchmark(lambda: _run_kernel(cfg, scripts, kernel="flat"))
    assert stats.txn_commits == cfg.n_cores * 30


def test_object_kernel_throughput(benchmark):
    """Same run on the reference object model, for comparison."""
    _, cfg, scripts = _contended_scripts()
    stats = benchmark(
        lambda: _run_kernel(cfg, scripts, kernel="object", micro_batch=False)
    )
    assert stats.txn_commits == cfg.n_cores * 30


def test_kernel_counters_identical():
    """The kernel changes the representation, never the simulated run."""
    _, cfg, scripts = _contended_scripts()
    flat = _run_kernel(cfg, scripts, kernel="flat")
    obj = _run_kernel(cfg, scripts, kernel="object")
    assert flat.summary() == obj.summary()


def test_micro_batch_counters_identical():
    """Batched and stepwise event loops simulate the same run."""
    _, cfg, scripts = _contended_scripts()
    batched = _run_kernel(cfg, scripts, kernel="flat", micro_batch=True)
    stepwise = _run_kernel(cfg, scripts, kernel="flat", micro_batch=False)
    assert batched.summary() == stepwise.summary()


def test_detail_off_throughput(benchmark):
    """Counter-only recording (no detail asked) on an uncontended run."""
    w = SyntheticWorkload(txns_per_core=25, n_records=4096, hot_fraction=0.0)
    cfg = default_system()
    scripts = w.build(cfg.n_cores, 7)

    def run():
        return SimulationEngine(
            cfg, scripts, seed=7, check_atomicity=False, record_detail=False
        ).run()

    stats = benchmark(run)
    assert stats.txn_commits == cfg.n_cores * 25
    # Aggregates survive the fast path; the run kept no per-event detail.
    assert stats.l1_hits + stats.l1_misses > 0
    assert not isinstance(stats, DetailSink)


def test_compiled_scripts_cache(benchmark):
    """Sweep-style repeated compiles hit the per-process cache."""
    compiled_scripts("vacation", 8, 11, txns_per_core=40)  # warm

    def lookup():
        return compiled_scripts("vacation", 8, 11, txns_per_core=40)

    scripts = benchmark(lookup)
    assert scripts is compiled_scripts("vacation", 8, 11, txns_per_core=40)


def test_run_many_serial_dispatch(benchmark):
    """RunSpec + run_many on the serial executor (every sweep point's path)."""
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    specs = [
        RunSpec(workload="kmeans", config=cfg, seed=s, txns_per_core=15)
        for s in (1, 2)
    ]
    results = benchmark.pedantic(
        lambda: run_many(specs, "serial"), rounds=3, iterations=1
    )
    assert [r.seed for r in results] == [1, 2]
    assert all(r.stats.txn_commits == cfg.n_cores * 15 for r in results)
