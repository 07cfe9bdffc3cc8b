"""Micro-batched engine loop is observably identical to the stepwise loop.

``SimulationEngine(micro_batch=True)`` keeps a core running past its heap
pop while every other pending core is due strictly later; the claim the
flat-txn runtime rests on is that this changes *nothing* observable —
not just aggregate counters but the exact interleaved stream of telemetry
events and each core's finish time.  These tests record every sink hook
invocation in order and require the two loops to produce byte-for-byte
identical timelines, on a contended workload (where the heap actually
interleaves cores) and on an uncontended synthetic one (where batching
fires most often), for both the flat and object kernels, with and
without the atomicity checker (the flat kernel's two load paths).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DetectionScheme, default_system
from repro.htm.ops import read_op, work_op, write_op
from repro.sim.engine import SimulationEngine
from repro.telemetry.sinks import CounterSink
from repro.workloads import get_workload
from repro.workloads.base import CoreScript, ScriptedTxn


class RecordingSink(CounterSink):
    """CounterSink that also journals every hook call in arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple] = []

    def on_txn_start(self, core, time, attempt, static_id):
        self.events.append(("txn_start", core, time, attempt, static_id))
        super().on_txn_start(core, time, attempt, static_id)

    def on_txn_commit(self, core, time):
        self.events.append(("txn_commit", core, time))
        super().on_txn_commit(core, time)

    def on_txn_abort(self, core, time, cause, wasted_cycles):
        self.events.append(("txn_abort", core, time, cause, wasted_cycles))
        super().on_txn_abort(core, time, cause, wasted_cycles)

    def on_conflict(self, rec):
        self.events.append(("conflict", dataclasses.astuple(rec)))
        super().on_conflict(rec)

    def on_access(self, core, line_addr, offset, is_write, hit_l1):
        self.events.append(("access", core, line_addr, offset, is_write, hit_l1))
        super().on_access(core, line_addr, offset, is_write, hit_l1)

    def on_backoff(self, core, cycles):
        self.events.append(("backoff", core, cycles))
        super().on_backoff(core, cycles)

    def on_dirty_reprobe(self, core, line_addr, time):
        self.events.append(("dirty_reprobe", core, line_addr, time))
        super().on_dirty_reprobe(core, line_addr, time)

    def on_fill(self, core, line_addr, level):
        self.events.append(("fill", core, line_addr, level))
        super().on_fill(core, line_addr, level)


def _uncontended_scripts(n_cores):
    """Disjoint footprints: no conflicts, long same-core runs of work."""
    scripts = []
    for core in range(n_cores):
        base = 0x200000 + core * 0x10000  # one 64 KiB arena per core
        txns = []
        for t in range(4):
            ops = []
            for i in range(5):
                addr = base + (t * 5 + i) * 64
                ops.append(write_op(addr, 8) if i % 2 else read_op(addr, 4))
                ops.append(work_op(3 + i))
            txns.append(ScriptedTxn(gap_cycles=core + t, ops=tuple(ops)))
        scripts.append(CoreScript(core=core, txns=tuple(txns)))
    return scripts


def _timeline(kernel, scripts_for, micro_batch, check_atomicity=True):
    cfg = default_system().with_scheme(DetectionScheme.SUBBLOCK, 4)
    cfg = cfg.with_kernel(kernel)
    sink = RecordingSink()
    eng = SimulationEngine(
        cfg,
        scripts_for(cfg.n_cores),
        seed=11,
        stats=sink,
        check_atomicity=check_atomicity,
        micro_batch=micro_batch,
    )
    eng.run()
    finish = [cs.finish_time for cs in eng.cores]
    return sink.events, finish, sink.summary()


def _contended(n_cores):
    return get_workload("vacation", txns_per_core=30).build(n_cores, 1)


@pytest.mark.parametrize("scripts_for, kernel, check_atomicity", [
    pytest.param(f, kernel, check, id=f"{name}-{kernel}" + ("" if check else "-no-checker"))
    for check in (True, False)
    for name, f in (("contended-vacation", _contended),
                    ("uncontended-synthetic", _uncontended_scripts))
    for kernel in ("flat", "object")
])
def test_batched_and_stepwise_timelines_identical(kernel, scripts_for, check_atomicity):
    ev_b, fin_b, sum_b = _timeline(kernel, scripts_for, True, check_atomicity)
    ev_s, fin_s, sum_s = _timeline(kernel, scripts_for, False, check_atomicity)
    assert len(ev_b) == len(ev_s)
    assert ev_b == ev_s
    assert fin_b == fin_s
    assert sum_b == sum_s


def test_batching_exercised_on_uncontended_run():
    """Sanity: the uncontended workload really does keep cores running
    across multiple events per pop (otherwise the test above proves
    nothing about the batched fast path)."""
    ev, _, _ = _timeline("flat", _uncontended_scripts, micro_batch=True)
    assert len(ev) > 100
