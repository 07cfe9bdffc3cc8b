"""Event-engine tests: determinism, conservation, retries, guards."""

import gc
import tracemalloc

import pytest

from repro.analysis.trace import ConflictTimeline
from repro.config import DetectionScheme, default_system
from repro.errors import SimulationError
from repro.htm.ops import read_op, work_op, write_op
from repro.kernel import build_machine
from repro.sim.engine import SimulationEngine
from repro.workloads.base import CoreScript, ScriptedTxn
from repro.workloads.registry import get_workload
from repro.workloads.synthetic import SyntheticWorkload


def single_txn_scripts(n_cores, ops, gap=10, user_aborts=0):
    return [
        CoreScript(
            core=c,
            txns=(ScriptedTxn(gap_cycles=gap, ops=tuple(ops), user_abort_attempts=user_aborts),),
        )
        for c in range(n_cores)
    ]


def run(scripts, scheme=DetectionScheme.ASF_BASELINE, seed=1, **kw):
    cfg = default_system(scheme)
    engine = SimulationEngine(cfg, scripts, seed=seed, **kw)
    return engine.run()


class TestBasicExecution:
    def test_all_txns_commit(self):
        scripts = single_txn_scripts(8, [read_op(0x1000, 8), work_op(5)])
        stats = run(scripts)
        assert stats.txn_commits == 8

    def test_execution_time_positive(self):
        stats = run(single_txn_scripts(8, [read_op(0x1000, 8)]))
        assert stats.execution_cycles > 0
        assert len(stats.per_core_cycles) == 8

    def test_script_count_must_match_cores(self):
        with pytest.raises(SimulationError):
            SimulationEngine(default_system(), single_txn_scripts(3, [read_op(0, 4)]))

    def test_work_ops_advance_time(self):
        fast = run(single_txn_scripts(8, [read_op(0x1000, 8)]))
        slow = run(single_txn_scripts(8, [read_op(0x1000, 8), work_op(5000)]))
        assert slow.execution_cycles >= fast.execution_cycles + 5000

    def test_gap_cycles_respected(self):
        small = run(single_txn_scripts(8, [read_op(0x1000, 8)], gap=1))
        big = run(single_txn_scripts(8, [read_op(0x1000, 8)], gap=9000))
        assert big.execution_cycles > small.execution_cycles + 8000

    def test_max_cycles_guard(self):
        scripts = single_txn_scripts(8, [work_op(1000)])
        cfg = default_system()
        with pytest.raises(SimulationError):
            SimulationEngine(cfg, scripts).run(max_cycles=10)

    @pytest.mark.parametrize("micro_batch", [True, False])
    def test_trace_is_closed_and_readable_after_a_raise(self, tmp_path, micro_batch):
        path = tmp_path / "livelock.jsonl"
        cfg = default_system().with_telemetry(
            sink="trace", trace_path=str(path), trace_accesses=True
        )
        scripts = get_workload("kmeans", 10).build(cfg.n_cores, 1)
        engine = SimulationEngine(cfg, scripts, micro_batch=micro_batch)
        with pytest.raises(SimulationError, match="exceeded 2000 cycles"):
            engine.run(max_cycles=2000)
        assert engine.sink._fh.closed
        timeline = ConflictTimeline.from_trace(path)
        assert len(timeline.attempts) == engine.stats.txn_attempts > 0
        assert timeline.counters.execution_cycles == 0  # no run_complete


class TestConservationLaws:
    def test_attempts_equal_commits_plus_aborts(self):
        w = SyntheticWorkload(txns_per_core=40, n_records=64)
        scripts = w.build(8, seed=5)
        stats = run(scripts)
        assert stats.txn_attempts == stats.txn_commits + stats.total_aborts

    def test_commits_equal_scripted_txns(self):
        w = SyntheticWorkload(txns_per_core=40, n_records=64)
        scripts = w.build(8, seed=5)
        stats = run(scripts)
        assert stats.txn_commits == 8 * 40

    def test_conflict_aborts_equal_conflict_records(self):
        w = SyntheticWorkload(txns_per_core=40, n_records=64)
        stats = run(w.build(8, seed=5))
        assert (
            stats.aborts_conflict_true + stats.aborts_conflict_false
            == stats.conflicts.total
        )


class TestDeterminism:
    def test_same_seed_same_everything(self):
        w = SyntheticWorkload(txns_per_core=30, n_records=64)
        scripts = w.build(8, seed=9)
        a = run(scripts, seed=9)
        b = run(scripts, seed=9)
        assert a.summary() == b.summary()
        assert a.false_conflict_times == b.false_conflict_times

    def test_different_seed_differs(self):
        w = SyntheticWorkload(txns_per_core=30, n_records=48)
        a = run(w.build(8, seed=1), seed=1)
        b = run(w.build(8, seed=2), seed=2)
        assert a.summary() != b.summary()

    def test_determinism_across_schemes(self):
        w = SyntheticWorkload(txns_per_core=30, n_records=64)
        scripts = w.build(8, seed=9)
        for scheme in DetectionScheme:
            x = run(scripts, scheme=scheme, seed=9).summary()
            y = run(scripts, scheme=scheme, seed=9).summary()
            assert x == y


class TestUserAborts:
    def test_user_abort_then_commit(self):
        scripts = single_txn_scripts(8, [read_op(0x1000, 8)], user_aborts=2)
        stats = run(scripts)
        assert stats.txn_commits == 8
        assert stats.aborts_user == 16  # two per core
        assert stats.txn_attempts == 24

    def test_user_abort_wastes_work(self):
        scripts = single_txn_scripts(1, [read_op(0x1000, 8), work_op(500)], user_aborts=1)
        cfg = default_system()
        from dataclasses import replace

        cfg = replace(cfg, n_cores=1)
        stats = SimulationEngine(cfg, scripts).run()
        assert stats.wasted_cycles >= 500


class TestCapacityGuard:
    def test_deterministic_overflow_raises(self):
        """A transaction that cannot fit the speculative buffer must not
        livelock: the engine reports it like the paper excluded yada/hmm."""
        from repro.htm.machine import SPEC_OVERFLOW_WAYS

        stride = 512 * 64
        ops = [read_op(0x1000 + k * stride, 8) for k in range(3 + SPEC_OVERFLOW_WAYS)]
        scripts = single_txn_scripts(8, ops)
        with pytest.raises(SimulationError) as exc:
            run(scripts)
        assert "capacity" in str(exc.value)


class TestConflictRetry:
    def test_conflicting_txns_eventually_commit(self):
        ops = [read_op(0x1000, 8), work_op(30), write_op(0x1000, 8)]
        scripts = [
            CoreScript(core=c, txns=tuple(ScriptedTxn(5, tuple(ops)) for _ in range(5)))
            for c in range(8)
        ]
        stats = run(scripts)
        assert stats.txn_commits == 40
        assert stats.total_aborts > 0  # contention actually happened
        assert stats.backoff_cycles > 0

    def test_retries_tracked(self):
        ops = [read_op(0x1000, 8), work_op(30), write_op(0x1000, 8)]
        scripts = [
            CoreScript(core=c, txns=tuple(ScriptedTxn(5, tuple(ops)) for _ in range(5)))
            for c in range(8)
        ]
        stats = run(scripts)
        assert stats.avg_retries > 1.0


class TestSetupAllocation:
    """Building a run allocates for the lines a run can touch, not for the
    modelled cache geometry (8 cores x 3,072 L1+L2+L3 sets)."""

    @staticmethod
    def peak_bytes(build):
        build()  # first build pays one-off imports and interning
        gc.collect()
        tracemalloc.start()
        try:
            built = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built is not None
        return peak

    def test_flat_engine_over_compiled_kmeans(self):
        cfg = default_system()
        assert cfg.n_cores == 8 and cfg.kernel == "flat"
        scripts = get_workload("kmeans", 30).build(cfg.n_cores, 1)
        peak = self.peak_bytes(lambda: SimulationEngine(cfg, scripts, seed=1))
        assert peak < 1_000_000

    def test_object_kernel_machine(self):
        cfg = default_system().with_kernel("object")
        assert self.peak_bytes(lambda: build_machine(cfg)) < 500_000
