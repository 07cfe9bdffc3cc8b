"""Mid-batch resilience of run_many: worker deaths and per-spec timeouts
lose the affected specs' wall-clock, never the batch."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.config import DetectionScheme, default_system
from repro.sim.executors import ExecConfig
from repro.sim.parallel import RunSpec, run_many
from repro.telemetry.summary import RunSummary
from repro.workloads.synthetic import SyntheticWorkload

TXNS = 8


def _in_pool_worker() -> bool:
    return multiprocessing.parent_process() is not None


class CrashOnceWorkload(SyntheticWorkload):
    """Dies (hard, like an OOM kill) the first time a pool worker builds
    it; succeeds on any later attempt.  ``marker`` is a path on a shared
    filesystem, so the retry — in a fresh worker or in-process — sees it.
    """

    def __init__(self, marker: str, txns_per_core: int = TXNS) -> None:
        super().__init__(txns_per_core=txns_per_core, name="crash-once")
        self.marker = marker

    def build(self, n_cores, seed):
        if _in_pool_worker() and not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("crashed")
            os._exit(1)  # simulate a worker death, not an exception
        return super().build(n_cores, seed)


class AlwaysCrashWorkload(SyntheticWorkload):
    """Dies in every pool worker; only in-process execution survives."""

    def __init__(self, txns_per_core: int = TXNS) -> None:
        super().__init__(txns_per_core=txns_per_core, name="always-crash")

    def build(self, n_cores, seed):
        if _in_pool_worker():
            os._exit(1)
        return super().build(n_cores, seed)


class SlowWorkload(SyntheticWorkload):
    """Sleeps past any reasonable budget, but only inside pool workers."""

    def __init__(self, delay: float = 5.0, txns_per_core: int = TXNS) -> None:
        super().__init__(txns_per_core=txns_per_core, name="slow")
        self.delay = delay

    def build(self, n_cores, seed):
        if _in_pool_worker():
            time.sleep(self.delay)
        return super().build(n_cores, seed)


def spec(workload, **kw) -> RunSpec:
    return RunSpec(
        workload=workload,
        config=default_system(DetectionScheme.SUBBLOCK, 4),
        seed=1,
        label=workload.name,
        **kw,
    )


class TestWorkerDeath:
    def test_crash_once_retries_in_pool(self, tmp_path):
        marker = str(tmp_path / "crashed")
        healthy = SyntheticWorkload(txns_per_core=TXNS)
        specs = [spec(CrashOnceWorkload(marker)), spec(healthy)]
        results = run_many(specs, ExecConfig(jobs=2, worker_retries=2))
        assert os.path.exists(marker)  # the crash really happened
        for res in results:
            assert isinstance(res.stats, RunSummary)
            assert res.stats.txn_commits > 0
        # The crashing spec records at least one resubmission; the
        # summary carries the same provenance.
        crashed = results[0]
        assert crashed.worker_retries >= 1
        assert crashed.stats.worker_retries == crashed.worker_retries

    def test_persistent_crash_falls_back_to_serial(self):
        # Two specs: run_many short-circuits single-spec batches to the
        # serial path, which would never exercise the pool.
        specs = [spec(AlwaysCrashWorkload()),
                 spec(SyntheticWorkload(txns_per_core=TXNS))]
        results = run_many(specs, ExecConfig(jobs=2, worker_retries=1))
        res = results[0]
        assert res.serial_fallback
        assert res.worker_retries == 2  # both pool rounds died
        assert res.stats.serial_fallback
        assert res.stats.txn_commits > 0
        assert results[1].stats.txn_commits > 0

    def test_crash_results_match_clean_run(self):
        clean = run_many(
            [spec(SyntheticWorkload(txns_per_core=TXNS, name="always-crash"))],
            "serial",
        )[0]
        crashed = run_many(
            [spec(AlwaysCrashWorkload()),
             spec(SyntheticWorkload(txns_per_core=TXNS))],
            ExecConfig(jobs=2, worker_retries=0),
        )[0]
        assert crashed.serial_fallback
        # Provenance fields are excluded from summary() so retried runs
        # stay bit-identical to clean ones.
        assert crashed.stats.summary() == clean.stats.summary()


class TestTimeout:
    def test_straggler_goes_serial(self):
        specs = [spec(SlowWorkload(delay=8.0)),
                 spec(SyntheticWorkload(txns_per_core=TXNS))]
        start = time.monotonic()
        results = run_many(specs, ExecConfig(jobs=2, timeout=1.5))
        elapsed = time.monotonic() - start
        res = results[0]
        assert res.serial_fallback
        assert res.stats.txn_commits > 0
        assert results[1].stats.txn_commits > 0
        assert elapsed < 8.0  # did not wait out the sleeping worker

    def test_fast_specs_unaffected_by_generous_timeout(self):
        specs = [spec(SyntheticWorkload(txns_per_core=TXNS))] * 3
        results = run_many(specs, ExecConfig(jobs=2, timeout=120.0))
        assert all(not r.serial_fallback for r in results)
        assert all(r.stats.txn_commits > 0 for r in results)


class TestSpawnSafety:
    def test_workload_classes_pickle(self):
        import pickle

        for w in (AlwaysCrashWorkload(), SlowWorkload()):
            clone = pickle.loads(pickle.dumps(spec(w)))
            assert clone.label == w.name


@pytest.fixture(autouse=True)
def _fork_only():
    """These tests inject crashes via fork-inherited test classes; skip on
    platforms whose default start method cannot see them.  The compiled-
    script cache is cleared so forked workers cannot inherit a parent-side
    cache hit and skip the crashing ``build()``."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("resilience injection requires the fork start method")
    from repro.sim import parallel as par

    par._script_cache.clear()
