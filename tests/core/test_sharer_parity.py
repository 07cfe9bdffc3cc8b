"""Sharer-index delivery: direct oracles for probe order and the index.

Both kernels deliver probes only to the cores a per-line index names
(``spec_holders`` in the object model, ``spec_mask`` in the flat kernel),
in the bus's round-robin snoop order, and walk remote copies through the
valid-copy ``holders`` index.  The index is the only delivery path, so
these tests check it against oracles that do not depend on it:

* ``_rr_order`` equals :meth:`SnoopBus.snoop_order` filtered to the mask,
  and ``_iter_mask`` is ascending without the excluded core, for every
  requester and every mask on 1-8 cores;
* protocol scenarios — the Figure 6 dirty re-probe, Figure 7 disjoint
  sub-blocks, forced WAW, multi-victim and wrap-around victim order, the
  older-wins early exit — run on each kernel and assert the expected
  victims *in order* (multi-victim aborts and the older-wins early exit
  depend on round-robin delivery order);
* at the end of every scenario the object model's ``spec_holders`` equals
  a ground-truth scan of ``spec_tables``, and the flat kernel's state
  passes the exact MOESI/holders audit;
* contended full runs agree across kernels, event stream included.
"""

from __future__ import annotations

import pytest

from repro.config import ConflictResolution, DetectionScheme, default_system
from repro.htm.machine import HtmMachine
from repro.htm.txn import AbortCause, TxnStatus
from repro.kernel import FlatTxnMachine, build_machine
from repro.mem.bus import SnoopBus
from repro.sim.atomicity import AtomicityChecker
from repro.sim.engine import SimulationEngine
from repro.workloads.kmeans import KmeansWorkload
from repro.workloads.vacation import VacationWorkload
from tests.conftest import TxnDriver

L = 0x70000
L2 = 0x71000
SB = 16
KERNELS = ("object", "flat")


def assert_index_exact(machine) -> None:
    """The sharer indexes agree with a scan that does not use them."""
    if isinstance(machine, FlatTxnMachine):
        machine.state.audit_coherence()
        return
    truth: dict[int, int] = {}
    for c, table in enumerate(machine.spec_tables):
        for line in table:
            truth[line] = truth.get(line, 0) | (1 << c)
    assert machine.spec_holders == truth


def driver(config, kernel: str) -> TxnDriver:
    """A checked single machine of the given kernel."""
    machine = build_machine(config.with_kernel(kernel))
    machine.checker = AtomicityChecker(
        tokens=machine.tokens, versions=machine.versions
    )
    return TxnDriver(machine)


def victims(out) -> list[int]:
    return [r.victim_core for r in out.conflicts]


@pytest.mark.parametrize("n_cores", range(1, 9))
def test_rr_order_is_snoop_order_filtered_to_mask(n_cores):
    machine = HtmMachine(default_system())
    bus = SnoopBus(n_cores)
    for requester in range(n_cores):
        order = bus.snoop_order(requester)
        for mask in range(1 << n_cores):
            expected = [c for c in order if (mask >> c) & 1]
            assert machine._rr_order(requester, mask) == expected


@pytest.mark.parametrize("n_cores", range(1, 9))
def test_iter_mask_is_ascending_without_exclude(n_cores):
    machine = HtmMachine(default_system())
    for exclude in range(n_cores):
        for mask in range(1 << n_cores):
            expected = [
                c for c in range(n_cores) if (mask >> c) & 1 and c != exclude
            ]
            assert machine._iter_mask(mask, exclude) == expected


@pytest.fixture(params=[DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK])
def config(request):
    return default_system(request.param, 4)


class TestProtocolScenarios:
    def test_figure6_dirty_reprobe(self):
        """T1's deferred read of T0's sub-block re-probes and kills T0."""
        cfg = default_system(DetectionScheme.SUBBLOCK, 4)
        for kernel in KERNELS:
            d = driver(cfg, kernel)
            t0 = d.begin(0)
            d.write(0, L, 8)
            d.begin(1)
            assert not d.read(1, L + 2 * SB, 8).conflicts
            out = d.read(1, L, 8)
            assert out.dirty_reprobe, kernel
            assert victims(out) == [0]
            assert t0.status is TxnStatus.ABORTED
            assert d.commit(1).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_figure7_disjoint_subblocks_commute(self):
        """A writer and a reader of different sub-blocks never see each
        other (writer-writer would hit the forced-WAW rule instead)."""
        cfg = default_system(DetectionScheme.SUBBLOCK, 4)
        for kernel in KERNELS:
            d = driver(cfg, kernel)
            d.begin(0)
            d.begin(1)
            d.write(0, L, 8)
            assert not d.read(1, L + 3 * SB, 8).conflicts, kernel
            assert d.commit(0).status is TxnStatus.COMMITTED
            assert d.commit(1).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_forced_waw_between_disjoint_writers(self):
        """Disjoint sub-block writers trip the forced-WAW rule: one false
        conflict, the earlier writer dies."""
        cfg = default_system(DetectionScheme.SUBBLOCK, 4)
        for kernel in KERNELS:
            d = driver(cfg, kernel)
            t0 = d.begin(0)
            d.begin(1)
            d.write(0, L, 8)
            out = d.write(1, L + 3 * SB, 8)
            assert [(r.victim_core, r.forced_waw, r.is_false)
                    for r in out.conflicts] == [(0, True, True)], kernel
            assert t0.status is TxnStatus.ABORTED
            assert d.commit(1).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_multi_victim_abort_order(self, config):
        """A write probing three readers aborts them in snoop order."""
        for kernel in KERNELS:
            d = driver(config, kernel)
            for reader in (1, 2, 3):
                d.begin(reader)
                d.read(reader, L, 8)
            d.begin(0)
            out = d.write(0, L, 8)
            assert victims(out) == [1, 2, 3], kernel
            assert all(d.txn(r) is None for r in (1, 2, 3))
            assert d.commit(0).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_round_robin_order_from_mid_requester(self, config):
        """Requester 2 probes 3, 0, 1 — the wrap-around survives the
        bitmask iteration."""
        for kernel in KERNELS:
            d = driver(config, kernel)
            for reader in (0, 1, 3):
                d.begin(reader)
                d.read(reader, L, 8)
            d.begin(2)
            out = d.write(2, L, 8)
            assert victims(out) == [3, 0, 1], kernel
            assert_index_exact(d.machine)

    def test_war_then_waw_mix(self, config):
        """Two WAR victims in one probe, then a read of a line whose only
        writer already died."""
        for kernel in KERNELS:
            d = driver(config, kernel)
            d.begin(1)
            d.read(1, L, 8)
            d.write(1, L2, 8)
            d.begin(3)
            d.read(3, L, 8)
            d.begin(0)
            assert victims(d.write(0, L, 8)) == [1, 3], kernel
            assert not d.read(0, L2, 8).conflicts
            assert d.commit(0).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_abort_and_reuse_line(self, config):
        """Abort tears down the index entry: the next writer sees nobody."""
        for kernel in KERNELS:
            d = driver(config, kernel)
            d.begin(0)
            d.write(0, L, 8)
            d.abort(0)
            assert_index_exact(d.machine)
            d.begin(1)
            assert not d.write(1, L, 8).conflicts, kernel
            assert d.commit(1).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_older_wins_requester_abort(self):
        """Under OLDER_WINS a young requester self-aborts at the first
        older holder and the holder keeps running."""
        cfg = default_system(DetectionScheme.SUBBLOCK, 4).with_policy(
            resolution=ConflictResolution.OLDER_WINS
        )
        for kernel in KERNELS:
            d = driver(cfg, kernel)
            d.begin(0)  # oldest
            d.read(0, L, 8)
            d.begin(2)  # older than 1
            d.read(2, L, 8)
            d.begin(1)  # youngest
            out = d.write(1, L, 8)
            assert out.self_abort is AbortCause.CONFLICT_TRUE, kernel
            # Snoop order from core 1 is 2, 3, 0: the early exit happens
            # at core 2, before core 0 is ever visited.
            assert victims(out) == [2]
            assert d.txn(1) is None
            assert d.txn(0).status is TxnStatus.RUNNING
            assert d.txn(2).status is TxnStatus.RUNNING
            assert d.commit(0).status is TxnStatus.COMMITTED
            assert_index_exact(d.machine)

    def test_plain_accesses_between_txns(self, config):
        """Non-transactional traffic drives the L1-holder index only."""
        for kernel in KERNELS:
            d = driver(config, kernel)
            d.write(0, L, 8)
            d.read(1, L, 8)
            d.read(2, L, 8)
            d.begin(3)
            assert not d.write(3, L, 8).conflicts, kernel
            assert d.commit(3).status is TxnStatus.COMMITTED
            out = d.read(0, L, 8)
            # Core 3 owns the only valid copy: a cache-to-cache fill.
            assert not out.hit_l1
            assert out.latency == config.latency.cache_to_cache
            assert_index_exact(d.machine)


SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "workload",
    [VacationWorkload(txns_per_core=12), KmeansWorkload(txns_per_core=12)],
    ids=["vacation", "kmeans"],
)
def test_engine_parity_full_run(workload, scheme):
    """Contended full runs: identical stats, event lists and event order
    on both kernels."""
    cfg = default_system(scheme, 4)
    scripts = workload.build(cfg.n_cores, 9)

    def run(kernel: str):
        engine = SimulationEngine(
            cfg.with_kernel(kernel), scripts, seed=9, check_atomicity=True,
        )
        stats = engine.run()
        assert_index_exact(engine.machine)
        return stats

    obj, flat = run("object"), run("flat")
    assert obj.summary() == flat.summary()
    assert obj.conflict_events == flat.conflict_events
    assert obj.per_core_cycles == flat.per_core_cycles
