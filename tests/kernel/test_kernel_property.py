"""Property test: random access scripts agree across both kernels.

Hypothesis generates small multi-core transactional programs over a hot
address space and replays each through the object machine and the flat
kernel; the two :class:`RunSummary` dicts must be identical — every
counter, not a statistical envelope — and so must the conflict records,
the attempt intervals and the committed memory image, with the flat
kernel's final array state passing the MOESI audit.  This covers
interleavings the curated parity grid cannot enumerate: conflicting
sub-block overlaps, user-requested aborts, capacity pressure up to the
deterministic give-up point, retained speculative state, piggybacked
fills, and abort/retry cascades.

Capacity pressure is generated directly: a burst of K distinct lines in
one L1 set (stride = sets x line = 32 KiB) all written by one
transaction pins K ways.  With 2 nominal ways + 6 speculative overflow
ways, K <= 8 commits after retries while K = 9 can never fit and must
end in the same ``SimulationError`` on every kernel — the test asserts
that error/success parity too, not just counter parity.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ConflictResolution,
    DetectionScheme,
    DetectionTiming,
    HtmPolicy,
    LazyArbitration,
    VersionMgmt,
    default_system,
)
from repro.errors import SimulationError
from repro.htm.ops import read_op, work_op, write_op
from repro.sim.engine import SimulationEngine
from repro.telemetry.summary import RunSummary
from repro.workloads.base import CoreScript, ScriptedTxn

MAX_CORES = 4
LINES = [0x40000 + i * 64 for i in range(3)]  # tiny hot space -> conflicts
OFFSETS = (0, 4, 8, 20, 32, 60)
SIZES = (1, 4, 8)
# Distinct lines mapping to one L1 set: 512 sets x 64 B lines.
SET_STRIDE = 512 * 64
CAP_BASE = 0x100000  # clear of LINES so bursts don't alias the hot space

KERNELS = ("object", "flat")

# Every valid point of the policy matrix (eager VM + lazy CD is rejected
# by HtmPolicy itself); lazy detection is sampled under both arbitration
# modes.  Tight stall knobs keep stall/backoff interleavings short while
# still exercising the park/fallback paths.
POLICY_POINTS = tuple(
    HtmPolicy(
        version_mgmt=vm,
        conflict_detection=cd,
        resolution=res,
        lazy_arbitration=arb,
        stall_cycles=16,
        stall_limit=3,
        stall_queue_depth=2,
    )
    for vm in VersionMgmt
    for cd in DetectionTiming
    if not (vm is VersionMgmt.EAGER and cd is DetectionTiming.LAZY)
    for res in ConflictResolution
    for arb in (
        LazyArbitration if cd is DetectionTiming.LAZY
        else (LazyArbitration.COMMITTER_WINS,)
    )
)


@st.composite
def programs(draw):
    """(n_cores, scripts): 2-4 cores, 1-3 txns of 1-6 ops each.

    Transactions may request user aborts on their first attempt and may
    open with a same-set capacity burst (see module docstring).
    """
    n_cores = draw(st.integers(2, MAX_CORES))
    out = []
    for core in range(n_cores):
        txns = []
        for _ in range(draw(st.integers(1, 3))):
            ops = []
            if draw(st.integers(0, 9)) == 0:  # rare: capacity burst
                k = draw(st.integers(3, 9))
                ops.extend(
                    write_op(CAP_BASE + i * SET_STRIDE, 4) for i in range(k)
                )
            for _ in range(draw(st.integers(1, 6))):
                kind = draw(st.sampled_from(["read", "write", "work"]))
                if kind == "work":
                    ops.append(work_op(draw(st.integers(1, 20))))
                    continue
                addr = draw(st.sampled_from(LINES)) + draw(
                    st.sampled_from(OFFSETS)
                )
                size = draw(st.sampled_from(SIZES))
                op = read_op if kind == "read" else write_op
                ops.append(op(addr, size))
            if all(o.kind.name == "WORK" for o in ops):
                ops.append(read_op(LINES[0], 4))  # empty-footprint guard
            txns.append(
                ScriptedTxn(
                    gap_cycles=draw(st.integers(0, 30)),
                    ops=tuple(ops),
                    user_abort_attempts=draw(st.sampled_from((0, 0, 0, 1))),
                )
            )
        out.append(CoreScript(core=core, txns=tuple(txns)))
    return n_cores, out


def _outcome(kernel, scheme, n_cores, core_scripts, seed, policy=None):
    """What a run leaves behind, or a marker tuple on SimulationError.

    On success: the RunSummary dict, the conflict records, the attempt
    intervals and the committed memory image.  A flat-kernel run must also
    leave array state that passes the MOESI audit.
    """
    cfg = default_system().with_scheme(scheme).with_kernel(kernel)
    if policy is not None:
        cfg = cfg.with_policy(policy)
    cfg = dataclasses.replace(cfg, n_cores=n_cores)
    eng = SimulationEngine(cfg, core_scripts, seed=seed, check_atomicity=True)
    try:
        eng.run()
    except SimulationError as exc:
        return ("SimulationError", str(exc))
    if kernel == "flat":
        eng.machine.state.audit_coherence()
    return (
        RunSummary.from_sink(eng.stats).to_dict(),
        list(eng.stats.conflict_events),
        list(eng.stats.attempts),
        dict(eng.machine.mem.memory),
    )


def _assert_parity(scheme, program, seed):
    n_cores, core_scripts = program
    ref = _outcome(KERNELS[0], scheme, n_cores, core_scripts, seed)
    for kernel in KERNELS[1:]:
        assert _outcome(kernel, scheme, n_cores, core_scripts, seed) == ref


@settings(max_examples=150, deadline=None)
@given(program=programs(), seed=st.integers(0, 7))
def test_random_scripts_identical_summaries_subblock(program, seed):
    _assert_parity(DetectionScheme.SUBBLOCK, program, seed)


@settings(max_examples=100, deadline=None)
@given(program=programs(), seed=st.integers(0, 7))
def test_random_scripts_identical_summaries_asf(program, seed):
    _assert_parity(DetectionScheme.ASF_BASELINE, program, seed)


@settings(max_examples=100, deadline=None)
@given(program=programs(), seed=st.integers(0, 7))
def test_random_scripts_identical_summaries_decoupled(program, seed):
    _assert_parity(DetectionScheme.DECOUPLED, program, seed)


@settings(max_examples=150, deadline=None)
@given(
    program=programs(),
    policy=st.sampled_from(POLICY_POINTS),
    scheme=st.sampled_from(
        (DetectionScheme.SUBBLOCK, DetectionScheme.ASF_BASELINE,
         DetectionScheme.DECOUPLED)
    ),
    seed=st.integers(0, 3),
)
def test_random_policy_points_identical_summaries(program, policy, scheme, seed):
    """Any valid policy point must agree across both kernels —
    stall counters, arbitration aborts, conflict records, attempts and the
    memory image."""
    n_cores, core_scripts = program
    ref = _outcome(KERNELS[0], scheme, n_cores, core_scripts, seed, policy)
    for kernel in KERNELS[1:]:
        assert _outcome(kernel, scheme, n_cores, core_scripts, seed, policy) == ref


def test_capacity_burst_is_fatal_identically_on_all_kernels():
    """K = 9 pinned same-set lines can never fit (2 ways + 6 overflow):
    every kernel must give up with the same SimulationError."""
    ops = tuple(write_op(CAP_BASE + i * SET_STRIDE, 4) for i in range(9))
    scripts = [
        CoreScript(core=0, txns=(ScriptedTxn(gap_cycles=0, ops=ops),)),
        CoreScript(core=1, txns=(ScriptedTxn(gap_cycles=0, ops=(read_op(LINES[0], 4),)),)),
    ]
    outcomes = [
        _outcome(k, DetectionScheme.SUBBLOCK, 2, scripts, seed=3)
        for k in KERNELS
    ]
    assert outcomes[0][0] == "SimulationError"
    assert outcomes[0] == outcomes[1]
