"""Kernel-parity grid: the flat kernel is bit-identical to the object model.

The flat kernel (:mod:`repro.kernel`) re-implements the entire per-access
protocol on flat arrays, with recycled transaction planes and fused hot
paths; these tests are the safety net it leans on.  Every case runs the
same workload through both kernels and requires *exact* equality of the
counter summaries — not statistical closeness — plus, for the deep cases,
the committed memory image and a clean MOESI invariant audit of the final
array state.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DetectionScheme, default_system
from repro.errors import ProtocolError
from repro.htm.machine import HtmMachine
from repro.htm.ops import OpKind
from repro.kernel import FlatTxnMachine, build_machine
from repro.kernel.state import MOESI_M
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import RunSpec, run_many
from repro.sim.runner import run_workload
from repro.telemetry.sinks import CounterSink
from repro.workloads import get_workload

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)
WORKLOADS = ("vacation", "intruder", "kmeans")
TXNS = 10


def _run(config, workload_name, *, check_atomicity=True, txns=TXNS, seed=3):
    """Without the checker a run takes ``run_many``'s path for a spec that
    keeps no detail, as sweeps do; the flat kernel then skips load tokens."""
    if not check_atomicity:
        spec = RunSpec(workload=workload_name, config=config, seed=seed,
                       txns_per_core=txns)
        return run_many([spec], "serial")[0]
    wl = get_workload(workload_name, txns_per_core=txns)
    return run_workload(wl, config=config, seed=seed, check_atomicity=True)


def test_build_machine_dispatches_on_config():
    cfg = default_system()
    assert isinstance(build_machine(cfg.with_kernel("flat")), FlatTxnMachine)
    obj = build_machine(cfg.with_kernel("object"))
    assert type(obj) is HtmMachine


@pytest.mark.parametrize("scheme, workload, check_atomicity", [
    pytest.param(s, w, check, id=f"{s.value}-{w}" + ("" if check else "-no-checker"))
    for check in (True, False) for s in SCHEMES for w in WORKLOADS
])
def test_kernel_parity_grid(scheme, workload, check_atomicity):
    """3 schemes x 3 workloads, with and without the checker: bit-identical
    counter summaries, and every scripted transaction commits."""
    cfg = default_system().with_scheme(scheme)
    obj = _run(cfg.with_kernel("object"), workload, check_atomicity=check_atomicity)
    flat = _run(cfg.with_kernel("flat"), workload, check_atomicity=check_atomicity)
    assert obj.stats.summary() == flat.stats.summary()
    assert flat.stats.txn_commits == cfg.n_cores * TXNS


@pytest.mark.parametrize("scheme", SCHEMES + (DetectionScheme.DECOUPLED,),
                         ids=lambda s: s.value)
def test_kernel_parity_deep(scheme):
    """Summaries and the committed memory image match, and
    the array state passes the MOESI audit."""
    wl = get_workload("vacation", txns_per_core=12)
    engines = {}
    for kernel in ("object", "flat"):
        cfg = default_system().with_scheme(scheme).with_kernel(kernel)
        scripts = wl.build(cfg.n_cores, 3)
        eng = SimulationEngine(cfg, scripts, seed=3, check_atomicity=True)
        eng.run()
        engines[kernel] = eng
    obj, flat = engines["object"], engines["flat"]
    assert isinstance(flat.machine, FlatTxnMachine)
    assert type(obj.machine) is HtmMachine
    assert obj.stats.summary() == flat.stats.summary()
    assert dict(obj.machine.mem.memory) == dict(flat.machine.mem.memory)
    flat.machine.state.audit_coherence()


@pytest.mark.parametrize(
    "overrides",
    [
        {"dirty_state_enabled": False},
        {"forced_waw_abort": False},
        {"n_subblocks": 2},
        {"n_subblocks": 16},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_kernel_parity_subblock_ablations(overrides):
    """Design-choice ablations stay bit-identical across kernels."""
    base = default_system().with_scheme(DetectionScheme.SUBBLOCK, 4)
    cfg = dataclasses.replace(base, htm=dataclasses.replace(base.htm, **overrides))
    # The dirty-off variant is deliberately broken hardware: run it
    # without the raising checker, exactly like the ablation harness.
    check = overrides.get("dirty_state_enabled", True)
    wl = get_workload("vacation", txns_per_core=10)
    obj = run_workload(
        wl, config=cfg.with_kernel("object"), seed=3, check_atomicity=check
    )
    flat = run_workload(
        wl, config=cfg.with_kernel("flat"), seed=3, check_atomicity=check
    )
    assert obj.stats.summary() == flat.stats.summary()


def test_kernel_parity_plain_access_replay():
    """A single-core vacation access stream replayed as plain reads
    through ``machine.access`` (no transaction, no checker): the
    per-access counters match across kernels."""
    (script,) = get_workload("vacation", txns_per_core=40).build(1, 7)
    stream = [(op.addr, op.size) for st in script.txns for op in st.ops
              if op.kind is not OpKind.WORK]
    summaries = []
    for kernel in ("object", "flat"):
        cfg = default_system(DetectionScheme.SUBBLOCK, 4).with_kernel(kernel)
        machine = build_machine(cfg, stats=CounterSink())
        for addr, size in stream:  # faults the footprint into the L1
            machine.access(0, addr, size, False, 0)
        for rep in range(15):
            for addr, size in stream:
                machine.access(0, addr, size, False, rep)
        summaries.append(machine.stats.summary())
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("is_write", (False, True), ids=("load", "store"))
def test_instance_access_wrapper_sees_a_straddling_access_once(is_write):
    """A wrapper installed on the instance's ``access`` (as perfbench
    installs one) sees a line-straddling access once on either kernel: the
    flat kernel's per-line callback re-enters ``access`` on the class.
    Both kernels return the same outcome."""
    outcomes = []
    for kernel in ("object", "flat"):
        machine = build_machine(default_system().with_kernel(kernel))
        calls = []
        inner = machine.access

        def counting_access(*args, inner=inner, calls=calls):
            calls.append(args)
            return inner(*args)

        machine.access = counting_access
        machine.begin_txn(0, machine.new_txn(0, 0, (), 0, 0))
        out = machine.access(0, 0x80000 + 60, 8, is_write, 1)
        assert len(calls) == 1
        txn = machine.active[0]
        assert (txn.write_lines if is_write else txn.read_lines) == {0x80000, 0x80040}
        outcomes.append((out.latency, out.hit_l1, out.conflicts, out.self_abort,
                         out.dirty_reprobe, out.stall_cycles))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("workload", ("vacation", "intruder"))
def test_kernel_parity_older_wins(workload):
    from repro.config import ConflictResolution

    base = default_system().with_scheme(DetectionScheme.SUBBLOCK, 4)
    cfg = base.with_policy(resolution=ConflictResolution.OLDER_WINS)
    obj = _run(cfg.with_kernel("object"), workload)
    flat = _run(cfg.with_kernel("flat"), workload)
    assert obj.stats.summary() == flat.stats.summary()


def test_audit_rejects_holders_bit_on_wrong_core():
    """The holders mask must name exactly the cores with valid copies —
    a mask with the right popcount but the wrong core fails the audit."""
    cfg = default_system().with_scheme(DetectionScheme.SUBBLOCK)
    eng = SimulationEngine(
        cfg, get_workload("vacation", txns_per_core=6).build(cfg.n_cores, 3),
        seed=3, check_atomicity=False,
    )
    eng.run()
    state = eng.machine.state
    state.audit_coherence()
    full = (1 << cfg.n_cores) - 1
    li = next(i for i, h in enumerate(state.holders) if h and h != full)
    held = state.holders[li]
    src = (held & -held).bit_length() - 1
    dst = ((~held & full) & -(~held & full)).bit_length() - 1
    state.holders[li] = held & ~(1 << src) | (1 << dst)
    with pytest.raises(ProtocolError, match="holders"):
        state.audit_coherence()


def test_audit_reads_every_interned_line_and_no_slot_past_them():
    """Planes grow in chunks past the interned lines: the audit checks
    each interned line, the last one included, and reads no slot past
    ``n_lines``."""
    cfg = default_system().with_scheme(DetectionScheme.SUBBLOCK)
    eng = SimulationEngine(
        cfg, get_workload("vacation", txns_per_core=6).build(cfg.n_cores, 3),
        seed=3, check_atomicity=False,
    )
    eng.run()
    state = eng.machine.state
    n = state.n_lines
    assert 0 < n < state.capacity
    for row in state.moesi:  # two M copies of a line nobody interned
        row[n] = MOESI_M
    state.holders[n] = 1
    state.audit_coherence()
    for row in state.moesi:
        row[n - 1] = MOESI_M
    with pytest.raises(ProtocolError, match=f"line {state.line_addrs[n - 1]:#x}: "
                       "multiple exclusive owners"):
        state.audit_coherence()
