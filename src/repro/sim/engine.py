"""Event-driven multicore simulation engine.

The engine interleaves per-core programs over one HTM machine with a
global event queue (a heap of ``(time, seq, core)``).  Each event executes
one step of a core's state machine:

``GAP → BEGIN → RUN(op*) → COMMIT → GAP → …`` with detours through
``BACKOFF`` after aborts (remote conflict aborts are noticed at the
victim's next event — modelling abort-delivery latency — and self-aborts
immediately).

Determinism: event order is a pure function of ``(config, scripts, seed)``;
all jitter comes from named :class:`DeterministicRng` sub-streams.

Micro-batching (``micro_batch=True``, the default) removes the heap
round-trip between consecutive steps of the same core.  After popping an
event the engine keeps executing that core's state machine locally,
advancing ``time`` in place, for as long as the would-be next event time
``nxt`` satisfies *no pending heap event is due at or before* ``nxt``.
Why that yield condition preserves the event order exactly:

* if any heap event is due at ``t' <= nxt``, the core yields and its next
  step is pushed, so every point where another core *could* have run in
  the one-event-per-pop engine is still a real scheduling point;
* conversely, while the condition holds the heap contains nothing in
  ``(time, nxt]``, so the one-event-per-pop engine would have popped this
  same core's next event anyway — the batch elides only pop/push pairs
  that were deterministic no-ops for the interleaving;
* ties push rather than batch (``<=``): an already-scheduled event at
  exactly ``nxt`` carries a smaller sequence number and must run first,
  which the push reproduces and a local continuation would violate;
* remote aborts are only inflicted by *other* cores' accesses, and no
  other core runs inside a batch, so noticing them at batch entry is
  equivalent to the per-event check.

The relative order of surviving pushes equals the one-event engine's push
order with the elided pairs removed, so tie-breaking by sequence number is
unchanged.  ``micro_batch=False`` keeps the literal one-event-per-pop
loop; ``tests/sim/test_engine_batching.py`` asserts both engines produce
identical event streams and per-core finish times.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.htm.backoff import BackoffManager
from repro.htm.txn import AbortCause, Transaction, TxnStatus
from repro.kernel import MachineProtocol, build_machine
from repro.sim.atomicity import AtomicityChecker
from repro.telemetry.sinks import CounterSink, DetailSink, JsonlTraceSink
from repro.telemetry.summary import RunSummary
from repro.util.rng import DeterministicRng
from repro.workloads.base import CoreScript

__all__ = ["SimulationEngine"]

#: Consecutive capacity aborts of one transaction before the engine gives
#: up — a transaction that deterministically overflows the speculative
#: buffer can never commit (the paper excluded yada/hmm for this reason).
MAX_CAPACITY_RETRIES = 25


class Phase(enum.Enum):
    BEGIN = "begin"
    RUN = "run"
    NEXT = "next"
    DONE = "done"


@dataclass(slots=True)
class CoreState:
    """Engine-side state machine for one core."""

    core: int
    script: CoreScript
    backoff: BackoffManager
    item: int = 0
    attempt: int = 0
    capacity_streak: int = 0
    phase: Phase = Phase.NEXT
    txn: Transaction | None = None
    finish_time: int = -1
    committed: int = 0


class SimulationEngine:
    """Runs per-core scripts to completion on an HTM machine."""

    def __init__(
        self,
        config: SystemConfig,
        scripts: list[CoreScript],
        seed: int = 1,
        stats: CounterSink | None = None,
        check_atomicity: bool = True,
        record_detail: bool = True,
        micro_batch: bool = True,
    ) -> None:
        if len(scripts) != config.n_cores:
            raise SimulationError(
                f"{len(scripts)} scripts for {config.n_cores} cores"
            )
        self.config = config
        self.scripts = scripts
        self.seed = seed
        self.micro_batch = micro_batch
        # The run keeps detail only when asked; without detail it counts
        # straight into the summary it returns.  ``stats`` is what run()
        # returns; ``sink``, what the machine emits into, wraps it in a
        # trace export whenever the config names a trace file.
        if stats is None:
            stats = DetailSink(config.line_size) if record_detail else RunSummary()
        self.stats = self.sink = stats
        tcfg = config.telemetry
        if tcfg.trace_path is not None:
            # The header describes the machine, so a trace is self-describing.
            header = {
                "scheme": config.htm.scheme.value,
                "n_subblocks": config.htm.n_subblocks,
                "line_size": config.line_size,
                "n_cores": config.n_cores,
                "seed": seed,
            }
            self.sink = JsonlTraceSink(
                tcfg.trace_path, inner=stats,
                trace_accesses=tcfg.trace_accesses, metadata=header,
            )
        # config.kernel selects the machine implementation (flat kernel by
        # default; the object model for differential testing).
        self.machine: MachineProtocol = build_machine(config, stats=self.sink)
        self.checker: AtomicityChecker | None = None
        if check_atomicity:
            self.checker = AtomicityChecker(
                tokens=self.machine.tokens, versions=self.machine.versions
            )
            self.machine.checker = self.checker
        rng = DeterministicRng(seed).child("engine")
        self.cores = [
            CoreState(
                core=c,
                script=scripts[c],
                backoff=BackoffManager(config.htm, rng.child("backoff", c)),
            )
            for c in range(config.n_cores)
        ]
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, time: int, core: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, core))

    # -- main loop ----------------------------------------------------------

    def run(self, max_cycles: int | None = None) -> CounterSink:
        """Execute every core's script to completion; returns the stats."""
        try:
            for cs in self.cores:
                self._schedule(0, cs.core)
            if self.micro_batch:
                self._run_batched(max_cycles)
            else:
                self._run_stepwise(max_cycles)
            if self.checker is not None:
                self.checker.finalize()
            per_core = [cs.finish_time for cs in self.cores]
            self.sink.on_run_complete(max(per_core, default=0), per_core)
        finally:
            # A run that raises still leaves a readable trace on disk.
            if self.sink is not self.stats:
                self.sink.close()
        return self.stats

    def _run_stepwise(self, max_cycles: int | None) -> None:
        """Reference loop: one state-machine step per heap event."""
        while self._heap:
            time, _, core = heapq.heappop(self._heap)
            if max_cycles is not None and time > max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(possible livelock)"
                )
            self._step(self.cores[core], time)

    def _run_batched(self, max_cycles: int | None) -> None:
        """Micro-batched loop: consecutive same-core steps run without heap
        round-trips whenever no other event is due in between (see the
        module docstring for the order-preservation argument)."""
        heap = self._heap
        cores = self.cores
        machine = self.machine
        # Bound at run time, not construction: instrumentation (perfbench's
        # per-machine spans) may have wrapped these methods since __init__.
        access = machine.access
        new_txn = machine.new_txn
        begin_txn = machine.begin_txn
        commit = machine.commit
        abort_self = machine.abort_self
        retry_at = self._retry_at
        lat = self.config.latency
        begin_ov = lat.txn_begin_overhead
        commit_ov = lat.commit_overhead
        pushpop = heapq.heappushpop
        pop = heapq.heappop
        RUN, BEGIN, NEXT, DONE = Phase.RUN, Phase.BEGIN, Phase.NEXT, Phase.DONE
        ABORTED = TxnStatus.ABORTED
        USER = AbortCause.USER
        INF = float("inf")
        # Sentinel comparison beats a None test per virtual step.
        mc = INF if max_cycles is None else max_cycles
        while heap:
            time, _, core = pop(heap)
            if time > mc:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(possible livelock)"
                )
            # The next due time is loop-invariant inside the batch: only
            # the yield below mutates the heap (machine code never pushes).
            due = heap[0][0] if heap else INF
            cs = cores[core]
            script = cs.script
            while True:  # one iteration = one virtual step of this core
                txn = cs.txn
                if txn is not None and txn.status is ABORTED:
                    # Remote abort since our last step (only possible at
                    # batch entry — no other core runs mid-batch).
                    nxt = retry_at(cs, time, txn.abort_cause)
                else:
                    phase = cs.phase
                    if phase is RUN:
                        ops = txn.ops
                        n_ops = len(ops)
                        pc = txn.pc
                        if pc < n_ops:
                            # Op loop: same virtual steps, locals only.
                            while True:
                                is_mem, m_addr, m_size, m_isw, m_cyc = ops[pc]
                                if is_mem:
                                    outcome = access(
                                        core, m_addr, m_size, m_isw, time
                                    )
                                    if outcome.self_abort is not None:
                                        txn.pc = pc
                                        nxt = retry_at(
                                            cs,
                                            time + outcome.latency,
                                            outcome.self_abort,
                                        )
                                        break
                                    if outcome.stall_cycles:
                                        # Stall/backoff resolution: the op
                                        # did not retire — replay it after
                                        # the stall delay, pc unchanged.
                                        txn.pc = pc
                                        nxt = time + outcome.stall_cycles
                                        break
                                    pc += 1
                                    d = outcome.latency
                                    if d < 1:
                                        d = 1
                                else:
                                    pc += 1
                                    d = m_cyc
                                nxt = time + d
                                if pc >= n_ops or due <= nxt:
                                    txn.pc = pc
                                    break
                                if nxt > mc:
                                    txn.pc = pc
                                    raise SimulationError(
                                        f"simulation exceeded {max_cycles} "
                                        f"cycles (possible livelock)"
                                    )
                                time = nxt
                        else:
                            # End of body: user abort or commit.
                            if cs.attempt <= script.txns[cs.item].user_abort_attempts:
                                abort_self(core, time, USER)
                                nxt = retry_at(cs, time, USER)
                            else:
                                done = commit(core, time)
                                if done.status is ABORTED:
                                    # Lazy commit-time validation failed.
                                    nxt = retry_at(cs, time, done.abort_cause)
                                else:
                                    cs.txn = None
                                    cs.committed += 1
                                    cs.capacity_streak = 0
                                    cs.item += 1
                                    cs.phase = NEXT
                                    nxt = time + commit_ov
                    elif phase is BEGIN:
                        item = script.txns[cs.item]
                        cs.attempt += 1
                        t = new_txn(
                            core,
                            core * 1_000_000 + cs.item,
                            item.ops,
                            cs.attempt,
                            time,
                        )
                        begin_txn(core, t)
                        cs.txn = t
                        cs.phase = RUN
                        nxt = time + begin_ov
                    elif phase is NEXT:
                        if cs.item >= script.n_txns:
                            cs.phase = DONE
                            cs.finish_time = time
                            break  # core finished; nothing to reschedule
                        cs.phase = BEGIN
                        cs.attempt = 0
                        nxt = time + script.txns[cs.item].gap_cycles
                    else:  # pragma: no cover - DONE is never rescheduled
                        break
                if due <= nxt:
                    # Yield: another event is due first.  heappushpop is
                    # push-then-pop in one sift; our fresh (larger) seq
                    # guarantees the existing entry pops first on a time
                    # tie, exactly as with separate push + outer pop.
                    self._seq += 1
                    time, _, core = pushpop(heap, (nxt, self._seq, core))
                    if time > mc:
                        raise SimulationError(
                            f"simulation exceeded {max_cycles} cycles "
                            f"(possible livelock)"
                        )
                    due = heap[0][0] if heap else INF
                    cs = cores[core]
                    script = cs.script
                    continue
                if nxt > mc:
                    raise SimulationError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(possible livelock)"
                    )
                time = nxt

    # -- per-core state machine ------------------------------------------------

    def _step(self, cs: CoreState, now: int) -> None:
        lat = self.config.latency

        # A remote requester may have aborted our transaction since the
        # last event; notice it first.
        if cs.txn is not None and cs.txn.status is TxnStatus.ABORTED:
            self._after_abort(cs, now, cs.txn.abort_cause)
            return

        if cs.phase is Phase.NEXT:
            if cs.item >= cs.script.n_txns:
                cs.phase = Phase.DONE
                cs.finish_time = now
                return
            gap = cs.script.txns[cs.item].gap_cycles
            cs.phase = Phase.BEGIN
            cs.attempt = 0
            self._schedule(now + gap, cs.core)
            return

        if cs.phase is Phase.BEGIN:
            item = cs.script.txns[cs.item]
            cs.attempt += 1
            txn = self.machine.new_txn(
                cs.core, self._static_id(cs), item.ops, cs.attempt, now
            )
            self.machine.begin_txn(cs.core, txn)
            cs.txn = txn
            cs.phase = Phase.RUN
            self._schedule(now + lat.txn_begin_overhead, cs.core)
            return

        if cs.phase is Phase.RUN:
            txn = cs.txn
            assert txn is not None
            item = cs.script.txns[cs.item]
            if txn.pc >= len(txn.ops):
                # End of transaction body: user abort or commit.
                if cs.attempt <= item.user_abort_attempts:
                    self.machine.abort_self(cs.core, now, AbortCause.USER)
                    self._after_abort(cs, now, AbortCause.USER)
                    return
                done = self.machine.commit(cs.core, now)
                if done.status is TxnStatus.ABORTED:
                    # Lazy schemes can fail commit-time validation.
                    self._after_abort(cs, now, done.abort_cause)
                    return
                cs.txn = None
                cs.committed += 1
                cs.capacity_streak = 0
                cs.item += 1
                cs.phase = Phase.NEXT
                self._schedule(now + lat.commit_overhead, cs.core)
                return
            op = txn.ops[txn.pc]
            if not op.is_mem:
                txn.pc += 1
                self._schedule(now + op.cycles, cs.core)
                return
            outcome = self.machine.access(
                cs.core, op.addr, op.size, op.is_write, now
            )
            if outcome.self_abort is not None:
                self._after_abort(cs, now + outcome.latency, outcome.self_abort)
                return
            if outcome.stall_cycles:
                # Stall/backoff resolution: replay the same op after the
                # stall delay without advancing the program counter.
                self._schedule(now + outcome.stall_cycles, cs.core)
                return
            txn.pc += 1
            self._schedule(now + max(outcome.latency, 1), cs.core)
            return

        if cs.phase is Phase.DONE:  # pragma: no cover - never rescheduled
            return

    def _static_id(self, cs: CoreState) -> int:
        """Stable program-transaction id across retries."""
        return cs.core * 1_000_000 + cs.item

    def _retry_at(self, cs: CoreState, now: int, cause: AbortCause | None) -> int:
        """Abort bookkeeping + backoff; returns the retry event time."""
        cs.txn = None
        if cause is AbortCause.CAPACITY:
            cs.capacity_streak += 1
            if cs.capacity_streak > MAX_CAPACITY_RETRIES:
                raise SimulationError(
                    f"core {cs.core} transaction {cs.item} capacity-aborted "
                    f"{cs.capacity_streak} times — footprint cannot fit the "
                    f"speculative buffer (cf. the paper excluding yada/hmm)"
                )
        else:
            cs.capacity_streak = 0
        delay = self.config.latency.abort_overhead + cs.backoff.delay(cs.attempt)
        self.sink.on_backoff(cs.core, delay)
        cs.phase = Phase.BEGIN
        return now + delay

    def _after_abort(self, cs: CoreState, now: int, cause: AbortCause | None) -> None:
        """Transition to backoff and schedule the retry."""
        self._schedule(self._retry_at(cs, now, cause), cs.core)
