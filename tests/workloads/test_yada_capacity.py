"""The capacity boundary: why the paper excluded yada and hmm.

``YadaWorkload`` (same-set worklist aliasing) and ``HmmWorkload``
(power-of-two matrix-row strides) build transactions whose same-set line
footprint exceeds the L1 associativity plus the speculative overflow
allowance; the engine must refuse to livelock and report the capacity
exclusion, on every detection scheme (sub-blocking does not change ASF's
best-effort capacity limits).
"""

import pytest

from repro.config import DetectionScheme, default_system
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.workloads.hmm import HmmWorkload
from repro.workloads.yada import YadaWorkload


@pytest.mark.parametrize(
    "scheme", [DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK]
)
@pytest.mark.parametrize("workload_cls", [YadaWorkload, HmmWorkload])
def test_excluded_benchmarks_cannot_fit_baseline_hardware(scheme, workload_cls):
    w = workload_cls(txns_per_core=2)
    cfg = default_system(scheme, 4)
    scripts = w.build(cfg.n_cores, seed=1)
    engine = SimulationEngine(cfg, scripts, seed=1, check_atomicity=False)
    with pytest.raises(SimulationError, match="capacity"):
        engine.run()
    assert engine.machine.stats.aborts_capacity > 0


def test_yada_fits_a_bigger_machine():
    """With a higher-associativity L1 the same transactions commit —
    the exclusion is a hardware budget, not a protocol limitation."""
    from dataclasses import replace

    from repro.config import CacheConfig

    w = YadaWorkload(txns_per_core=2)
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    big_l1 = CacheConfig(size_bytes=64 * 1024, line_size=64, associativity=16)
    cfg = replace(cfg, l1=big_l1)
    scripts = w.build(cfg.n_cores, seed=1)
    stats = SimulationEngine(cfg, scripts, seed=1, check_atomicity=True).run()
    assert stats.txn_commits == sum(cs.n_txns for cs in scripts)
    assert stats.aborts_capacity == 0


def test_excluded_not_in_registry():
    """Matching the paper: yada/hmm are documented but not evaluated."""
    from repro.errors import WorkloadError
    from repro.workloads.registry import BENCHMARK_NAMES, get_workload

    for name in ("yada", "hmm", "bayes"):
        assert name not in BENCHMARK_NAMES
        with pytest.raises(WorkloadError):
            get_workload(name)
