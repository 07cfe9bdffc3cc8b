"""The O(1) supplier owner-pointer: `MemorySystem.l1_owner` must always
point at the unique supply-capable (MOESI M/O/E) copy of a line.

The fill path trusts this map instead of walking sharers, so a stale or
missing entry would silently change supplier selection — these tests pin
the invariant across schemes and full engine runs, complementing the
sharer-index delivery oracles.
"""

from __future__ import annotations

import pytest

from repro.config import DetectionScheme, default_system
from repro.mem.moesi import supplies_data
from repro.sim.engine import SimulationEngine
from repro.workloads.registry import get_workload

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
    DetectionScheme.DECOUPLED,
)


def assert_owner_invariant(mem) -> None:
    """Owner map == the set of supply-capable L1 copies, exactly."""
    supply_holders: dict[int, list[int]] = {}
    for core, l1 in enumerate(mem.l1s):
        for line in l1.resident_lines():
            if line.valid and supplies_data(line.state):
                supply_holders.setdefault(line.addr, []).append(core)
    for line_addr, cores in supply_holders.items():
        assert len(cores) == 1, (
            f"line {line_addr:#x} has {len(cores)} supply-capable copies "
            f"(MOESI invariant broken): {cores}"
        )
        assert mem.l1_owner.get(line_addr) == cores[0], (
            f"line {line_addr:#x}: owner map says "
            f"{mem.l1_owner.get(line_addr)}, caches say {cores[0]}"
        )
    for line_addr, core in mem.l1_owner.items():
        line = mem.l1s[core].lookup(line_addr, touch=False)
        assert line is not None and line.valid and supplies_data(line.state), (
            f"stale owner entry: line {line_addr:#x} -> core {core}"
        )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bench", ["kmeans", "genome"])
def test_owner_map_exact_after_full_run(scheme, bench):
    cfg = default_system(scheme, 4)
    workload = get_workload(bench, 15)
    engine = SimulationEngine(
        cfg, workload.build(cfg.n_cores, 1), seed=1, check_atomicity=False
    )
    engine.run()
    assert_owner_invariant(engine.machine.mem)


def test_owner_map_exact_mid_run():
    """The invariant holds at every step, not just at quiescence."""
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    workload = get_workload("intruder", 8)
    # micro_batch=False: the per-step hook below rides on _step, which the
    # batched loop deliberately bypasses.
    engine = SimulationEngine(
        cfg, workload.build(cfg.n_cores, 3), seed=3, check_atomicity=False,
        micro_batch=False,
    )

    checked = 0
    original_step = engine._step

    def checking_step(cs, now):
        nonlocal checked
        original_step(cs, now)
        checked += 1
        if checked % 50 == 0:  # every step would be O(n^2) slow
            assert_owner_invariant(engine.machine.mem)

    engine._step = checking_step
    engine.run()
    assert checked > 100
    assert_owner_invariant(engine.machine.mem)


def test_owner_pointer_parity_with_legacy_walk():
    """Supplier selection via the owner pointer reproduces the snoop-order
    walk it replaced.  Before every fetch the walk is recomputed from the
    caches — the first core after the requester with a valid
    supply-capable copy that does not abstain — and the fetch must take
    its data from exactly that core, or from memory when there is none
    (MOESI admits one supplier)."""
    cfg = default_system(DetectionScheme.ASF_BASELINE, 4).with_kernel("object")
    scripts = get_workload("vacation", 12).build(cfg.n_cores, 1)
    engine = SimulationEngine(cfg, scripts, seed=1, check_atomicity=False)
    machine = engine.machine
    fetch = machine._fetch_line
    counts = {"fetches": 0, "remote": 0}

    def legacy_walk(core, line_addr):
        for r in machine.bus.snoop_order(core):
            line = machine.mem.l1s[r].lookup(line_addr, touch=False)
            if line is None or not line.valid or not supplies_data(line.state):
                continue
            rst = machine.spec_tables[r].get(line_addr)
            if rst is not None and machine.detector.abstains_from_supply(rst):
                continue
            return list(line.data)
        return None

    def checked_fetch(core, line_addr):
        expected = legacy_walk(core, line_addr)
        before = engine.stats.fills_remote
        data, latency, piggy = fetch(core, line_addr)
        from_cache = engine.stats.fills_remote - before
        assert from_cache == (expected is not None)
        if expected is not None:
            assert data == expected
            counts["remote"] += 1
        counts["fetches"] += 1
        return data, latency, piggy

    machine._fetch_line = checked_fetch
    engine.run()
    assert counts["fetches"] > 100
    assert counts["remote"] > 0
