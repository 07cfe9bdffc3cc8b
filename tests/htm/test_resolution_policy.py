"""Conflict-resolution policy tests (requester-wins vs older-wins)."""

import pytest

from repro.config import ConflictResolution, DetectionScheme, default_system
from repro.htm.txn import AbortCause, TxnStatus
from tests.conftest import TxnDriver, make_machine

L = 0x90000


def driver(policy: ConflictResolution, scheme=DetectionScheme.ASF_BASELINE):
    cfg = default_system(scheme).with_policy(resolution=policy)
    return TxnDriver(make_machine(cfg))


class TestRequesterWins:
    def test_victim_aborts(self):
        d = driver(ConflictResolution.REQUESTER_WINS)
        d.begin(0)
        d.read(0, L, 8)
        victim = d.txn(0)
        d.begin(1)
        out = d.write(1, L, 8)
        assert out.self_abort is None
        assert victim.status is TxnStatus.ABORTED
        d.commit(1)


class TestOlderWins:
    def test_younger_requester_yields(self):
        d = driver(ConflictResolution.OLDER_WINS)
        d.begin(0)  # older
        d.read(0, L, 8)
        older = d.txn(0)
        d.begin(1)  # younger
        younger = d.txn(1)
        out = d.write(1, L, 8)
        assert out.self_abort in (
            AbortCause.CONFLICT_TRUE, AbortCause.CONFLICT_FALSE
        )
        assert younger.status is TxnStatus.ABORTED
        assert older.status is TxnStatus.RUNNING
        d.commit(0)

    def test_older_requester_still_wins(self):
        d = driver(ConflictResolution.OLDER_WINS)
        d.begin(0)  # will become the older txn
        older = d.txn(0)
        d.begin(1)
        d.read(1, L, 8)
        younger = d.txn(1)
        out = d.write(0, L, 8)  # older requester probes younger victim
        assert out.self_abort is None
        assert younger.status is TxnStatus.ABORTED
        assert older.status is TxnStatus.RUNNING
        d.commit(0)

    def test_conflict_still_recorded(self):
        d = driver(ConflictResolution.OLDER_WINS)
        d.begin(0)
        d.read(0, L, 8)
        d.begin(1)
        out = d.write(1, L, 8)
        assert len(out.conflicts) == 1
        assert d.machine.stats.conflicts.total == 1

    def test_non_txn_requester_never_yields(self):
        d = driver(ConflictResolution.OLDER_WINS)
        d.begin(0)
        d.read(0, L, 8)
        victim = d.txn(0)
        out = d.write(1, L, 8)  # plain store, no transaction to abort
        assert out.self_abort is None
        assert victim.status is TxnStatus.ABORTED

    @pytest.mark.parametrize(
        "scheme", [DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK]
    )
    def test_serializable_under_policy(self, scheme):
        from repro.sim.engine import SimulationEngine
        from repro.workloads.synthetic import SyntheticWorkload

        cfg = default_system(scheme, 4).with_policy(
            resolution=ConflictResolution.OLDER_WINS
        )
        w = SyntheticWorkload(txns_per_core=30, n_records=48, hot_fraction=0.4)
        engine = SimulationEngine(cfg, w.build(8, 9), seed=9, check_atomicity=True)
        stats = engine.run()
        assert engine.checker.clean
        assert stats.txn_commits == 240
