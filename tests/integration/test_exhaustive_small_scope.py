"""Exhaustive small-scope serializability check (model-checking style).

Rather than sampling interleavings, enumerate **all** of them for a
bounded scope: two cores, two operations per transaction, an address
vocabulary that covers the interesting cases (same word, same sub-block
different bytes, different sub-blocks, different lines), every
interleaving of the four operations, under every detection scheme.

Every execution must leave the machine serializable (checker raising) —
thousands of tiny executions that jointly cover the protocol's two-party
state space far more densely than random fuzzing.
"""

import itertools

import pytest

from repro.config import DetectionScheme, default_system
from tests.conftest import make_machine

LINE0 = 0xA0000
LINE1 = 0xA0040

# Address vocabulary: word0 of line0, disjoint bytes in the same
# sub-block, a different sub-block of line 0, and a second line.
ADDRS = (LINE0, LINE0 + 8, LINE0 + 32, LINE1)

# Each transaction: two operations, each (addr, is_write).
OPS = [(a, w) for a in ADDRS for w in (False, True)]
TXN_SHAPES = list(itertools.product(OPS, repeat=2))

# All interleavings of txn A's 2 ops and txn B's 2 ops preserving each
# transaction's program order: choose A's positions among 4 slots.
INTERLEAVINGS = [
    pattern
    for pattern in itertools.product("AB", repeat=4)
    if pattern.count("A") == 2
]

SCHEMES = [
    (DetectionScheme.ASF_BASELINE, 4),
    (DetectionScheme.SUBBLOCK, 4),
    (DetectionScheme.PERFECT, 4),
    (DetectionScheme.DECOUPLED, 4),
]


def tiny_config(scheme, n_sub, **htm_overrides):
    """A 2-core machine with miniature caches: the programs touch two
    lines, so the Table II geometry only adds construction cost."""
    from dataclasses import replace

    from repro.config import CacheConfig

    cfg = replace(
        default_system(scheme, n_sub),
        n_cores=2,
        l1=CacheConfig(4 * 1024, 64, 2),
        l2=CacheConfig(8 * 1024, 64, 16),
        l3=CacheConfig(16 * 1024, 64, 16),
    )
    if htm_overrides:
        cfg = replace(cfg, htm=replace(cfg.htm, **htm_overrides))
    return cfg


def run_one(scheme, n_sub, shape_a, shape_b, pattern) -> None:
    cfg = tiny_config(scheme, n_sub)
    machine = make_machine(cfg, check=True)  # checker raises on violation
    txns = {}
    for label, core in (("A", 0), ("B", 1)):
        t = machine.new_txn(core, core, (), 1, core)
        machine.begin_txn(core, t)
        txns[label] = t
    streams = {"A": list(shape_a), "B": list(shape_b)}
    time = 10
    for label in pattern:
        core = 0 if label == "A" else 1
        txn = txns[label]
        if not streams[label]:
            continue
        if machine.active[core] is not txn or not txn.running:
            continue  # aborted earlier; remaining ops are dead
        addr, is_write = streams[label].pop(0)
        machine.access(core, addr, 8, is_write, time)
        time += 1
    for label, core in (("A", 0), ("B", 1)):
        current = machine.active[core]
        if current is txns[label] and current is not None and current.running:
            machine.commit(core, time)
            time += 1
    if machine.checker is not None:
        machine.checker.finalize()


@pytest.mark.parametrize("scheme,n_sub", SCHEMES, ids=lambda s: str(s))
def test_all_two_txn_interleavings_serializable(scheme, n_sub):
    count = 0
    for shape_a, shape_b in itertools.product(TXN_SHAPES, TXN_SHAPES):
        for pattern in INTERLEAVINGS:
            run_one(scheme, n_sub, shape_a, shape_b, pattern)
            count += 1
    # 64 x 64 shapes x 6 interleavings = 24576 executions per scheme.
    assert count == len(TXN_SHAPES) ** 2 * len(INTERLEAVINGS)


def test_ablation_fails_small_scope():
    """The dirty-disabled machine must violate atomicity somewhere in the
    same scope — evidence the scope is actually discriminating."""
    from repro.errors import AtomicityViolation

    violations = 0
    for shape_a, shape_b in itertools.product(TXN_SHAPES, TXN_SHAPES):
        for pattern in INTERLEAVINGS:
            cfg = tiny_config(
                DetectionScheme.SUBBLOCK, 4, dirty_state_enabled=False
            )
            machine = make_machine(cfg, check=True)
            try:
                txns = {}
                for label, core in (("A", 0), ("B", 1)):
                    t = machine.new_txn(core, core, (), 1, core)
                    machine.begin_txn(core, t)
                    txns[label] = t
                streams = {"A": list(shape_a), "B": list(shape_b)}
                time = 10
                for label in pattern:
                    core = 0 if label == "A" else 1
                    txn = txns[label]
                    if not streams[label]:
                        continue
                    if machine.active[core] is not txn or not txn.running:
                        continue
                    addr, is_write = streams[label].pop(0)
                    machine.access(core, addr, 8, is_write, time)
                    time += 1
                for label, core in (("A", 0), ("B", 1)):
                    current = machine.active[core]
                    if current is txns[label] and current and current.running:
                        machine.commit(core, time)
                        time += 1
                machine.checker.finalize()
            except AtomicityViolation:
                violations += 1
    assert violations > 0
