"""The HTM-enabled multicore memory machine.

:class:`HtmMachine` glues the substrate together: per-core L1s with MOESI
states (:mod:`repro.mem`), the snooping probe fabric, the pluggable
conflict detector, lazy data versioning, and the per-core speculative side
tables.  It exposes exactly the operations a core performs:

``begin_txn`` / ``access`` / ``commit`` / ``abort_self``

and resolves conflicts requester-wins inside ``access`` (the probed,
*earlier* transaction aborts — ASF's policy).

The machine is deliberately independent of the event engine so protocol
scenarios (e.g. the paper's Figures 6 and 7) can be scripted directly in
tests: interleave calls from different cores with increasing ``time``
arguments and inspect the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import (
    ConflictResolution,
    DetectionTiming,
    LazyArbitration,
    SystemConfig,
    VersionMgmt,
)
from repro.errors import ProtocolError
from repro.htm.conflict import ConflictRecord
from repro.htm.detector import make_detector
from repro.htm.ops import TxnOp
from repro.htm.specstate import SpecLineState
from repro.htm.txn import AbortCause, Transaction
from repro.htm.versioning import TokenAllocator, VersionTracker, restore_undo
from repro.mem.address import WORD_SIZE, AddressMap
from repro.mem.bus import SnoopBus
from repro.mem.hierarchy import MemorySystem
from repro.mem.moesi import (
    MoesiState,
    can_write_silently,
    on_local_write,
    on_non_invalidating_probe,
    supplies_data,
)
from repro.telemetry.events import EventSink
from repro.telemetry.sinks import DetailSink

__all__ = ["AccessOutcome", "HtmMachine"]

#: txn uid reserved for non-transactional stores (always "committed").
NON_TXN_UID = 0

#: Extra ways a set may temporarily grow by to host pinned speculative
#: lines, modelling the LSQ/locked-line buffering real ASF uses on top of
#: the 2-way L1 (without it, any transaction touching three same-set lines
#: would capacity-abort deterministically and livelock).
SPEC_OVERFLOW_WAYS = 6

#: The victim's abort cause, keyed by the conflict record's ``is_false``.
_CONFLICT_CAUSE = {False: AbortCause.CONFLICT_TRUE, True: AbortCause.CONFLICT_FALSE}


class _RequesterAborted(Exception):
    """Internal: conflict resolution aborted the probing requester.

    Raised by the OLDER_WINS age rule and by the stall policy's
    deadlock-avoidance fallback.  Carries the conflict records already
    produced by the probe so the access outcome still reports them.
    """

    def __init__(self, cause: AbortCause, records: list[ConflictRecord]) -> None:
        super().__init__(cause.value)
        self.cause = cause
        self.records = records


class _RequesterStalled(Exception):
    """Internal: a STALL_BACKOFF requester parked instead of resolving.

    No transaction aborted and no conflict was recorded; the access must
    be retried in ``cycles`` — the engine replays the same op without
    advancing the program counter.
    """

    def __init__(self, cycles: int) -> None:
        super().__init__(str(cycles))
        self.cycles = cycles


@dataclass(slots=True)
class AccessOutcome:
    """Result of one transactional or plain memory access.

    ``stall_cycles`` is nonzero only under the stall/backoff resolution
    policy: the access did not retire — the engine must replay the same
    operation after that many cycles without advancing the transaction.
    """

    latency: int
    hit_l1: bool
    conflicts: list[ConflictRecord] = field(default_factory=list)
    self_abort: AbortCause | None = None
    dirty_reprobe: bool = False
    stall_cycles: int = 0

    @property
    def ok(self) -> bool:
        return self.self_abort is None


class HtmMachine:
    """Multicore machine with pluggable HTM conflict detection."""

    def __init__(
        self,
        config: SystemConfig,
        stats: EventSink | None = None,
        checker=None,
    ) -> None:
        self.config = config
        # All measurement goes through the EventSink protocol; ``stats``
        # accepts any sink (the name survives from the collector era —
        # tests and tools read ``machine.stats``).  ``sink`` is the same
        # object under its role-accurate name.
        self.sink: EventSink = (
            stats if stats is not None else DetailSink(config.line_size)
        )
        self.stats = self.sink
        self.checker = checker
        self.detector = make_detector(config)
        # Policy-matrix axes, specialized once at construction so the
        # default ASF point pays a single flag test per branch site.
        policy = config.htm.policy
        self.policy = policy
        self._lazy_cd = policy.conflict_detection is DetectionTiming.LAZY
        self._eager_vm = policy.version_mgmt is VersionMgmt.EAGER
        self._stall_res = policy.resolution is ConflictResolution.STALL_BACKOFF
        self._committer_wins = (
            policy.lazy_arbitration is LazyArbitration.COMMITTER_WINS
        )
        if self._lazy_cd:
            from repro.htm.lazy import LazyPolicyDetector

            self.detector = LazyPolicyDetector(self.detector)
        # Stall queue state (STALL_BACKOFF only): which cores are parked,
        # how many in total (bounded by the policy's queue depth), and the
        # per-attempt stall budget that triggers the fallback abort.
        self._stalled = [False] * config.n_cores
        self._stall_count = 0
        self._stall_budget = [0] * config.n_cores
        self.mem = MemorySystem(config)
        self.mem.sink = self.sink
        # The delivery order ``_rr_order`` reproduces on a candidate set.
        self.bus = SnoopBus(config.n_cores)
        self.amap: AddressMap = self.mem.amap
        self.tokens = TokenAllocator()
        self.versions = VersionTracker()
        self.versions.on_commit(NON_TXN_UID)
        self.spec_tables: list[dict[int, SpecLineState]] = [
            dict() for _ in range(config.n_cores)
        ]
        # Per-line index of cores holding *any* speculative side state for
        # the line (mirror of spec_tables keys, as a bitmask).  Probes and
        # piggy-back collection visit only these cores, in the bus's snoop
        # order (see _rr_order), instead of scanning all n_cores tables.
        self.spec_holders: dict[int, int] = {}
        self.active: list[Transaction | None] = [None] * config.n_cores
        self._txn_uid = NON_TXN_UID  # allocate() pre-increments

    # ------------------------------------------------------------------ txns

    def new_txn(
        self, core: int, static_id: int, ops: tuple[TxnOp, ...], attempt: int, time: int
    ) -> Transaction:
        """Allocate a transaction attempt (does not start it)."""
        self._txn_uid += 1
        return Transaction(
            uid=self._txn_uid,
            static_id=static_id,
            core=core,
            ops=ops,
            attempt=attempt,
            start_time=time,
        )

    def begin_txn(self, core: int, txn: Transaction) -> None:
        if self.active[core] is not None:
            raise ProtocolError(f"core {core} already has an active transaction")
        if txn.core != core:
            raise ProtocolError("transaction bound to a different core")
        self.active[core] = txn
        if self._stall_res:
            self._stall_budget[core] = self.policy.stall_limit
        self.sink.on_txn_start(core, txn.start_time, txn.attempt, txn.static_id)

    def commit(self, core: int, time: int) -> Transaction:
        """Commit the core's transaction: validate, publish redo, gang-clear.

        Lazy detectors (coherence decoupling) value-validate the read set
        first; a stale read aborts here instead of committing — callers
        must check the returned transaction's status.
        """
        txn = self._require_txn(core)
        if self.detector.requires_commit_validation and not self._read_set_valid(txn):
            return self._abort(core, time, AbortCause.VALIDATION)
        if self.checker is not None:
            self.checker.validate_commit(txn, self.mem.memory)
        if self._lazy_cd and self._committer_wins:
            self._commit_arbitrate(core, txn, time)
        if self._eager_vm:
            # In-place stores already published; the undo log just dies.
            txn.undo.clear()
        else:
            redo = txn.redo
            if redo:
                # Inlined mem_write_word: redo keys are built word-aligned by
                # _apply_store, so the alignment guard cannot fire here.
                memory = self.mem.memory
                for word_addr, token in redo.items():
                    memory[word_addr] = token
        if self._lazy_cd:
            # Commit broadcast (TCC-style): remote copies of the write
            # set refilled after the store-time invalidation (suppliers
            # abstain from spec-written lines, so those fills carried the
            # old committed data) go stale the moment the redo log
            # publishes.  Without this, a retrying reader re-validates
            # against its stale cached copy forever (livelock).
            self._commit_invalidate(core, txn)
        self.versions.on_commit(txn.uid)
        self._release_spec_lines(core, txn)
        txn.mark_committed(time)
        self.active[core] = None
        self.sink.on_txn_commit(core, time)
        return txn

    def abort_self(self, core: int, time: int, cause: AbortCause) -> Transaction:
        """Self-inflicted abort (capacity overflow or user abort)."""
        return self._abort(core, time, cause)

    def _read_set_valid(self, txn: Transaction) -> bool:
        """Commit-time value validation (lazy schemes).

        Every observed word must still hold the observed token in
        committed memory — the token-exact version of DPTM's value
        comparison.  Reads forwarded from the transaction's own stores are
        never in ``observed``, so they do not self-invalidate.
        """
        memory = self.mem.memory
        undo = txn.undo if self._eager_vm else None
        for word_addr, token in txn.observed.items():
            if undo is not None and word_addr in undo:
                # This transaction published in place after reading; the
                # pre-image it overwrote is in the undo log.  Compare
                # against that, not against its own uncommitted token.
                if undo[word_addr] != token:
                    return False
                continue
            if memory.get(word_addr, 0) != token:
                return False
        return True

    def _commit_arbitrate(self, core: int, txn: Transaction, time: int) -> None:
        """Lazy-detection committer-wins arbitration (TCC-style).

        The committing transaction's write set is checked — at the
        detection scheme's granularity — against every other running
        transaction's speculative state; overlapping victims abort with
        an ``at_commit`` conflict record.  Lines are walked in sorted
        order and victims in snoop delivery order so both kernels
        arbitrate identically.
        """
        for line_addr in sorted(txn.write_lines):
            st = self.spec_tables[core].get(line_addr)
            mask = st.write_mask if st is not None else 0
            if not mask:
                continue
            for r in self._rr_order(core, self.spec_holders.get(line_addr, 0)):
                rst = self.spec_tables[r].get(line_addr)
                if rst is None:
                    continue
                victim = self.active[r]
                if victim is None or rst.owner_txn != victim.uid:
                    continue
                check = self.detector.arbitrate(rst, mask)
                if not check.conflict:
                    continue
                rec = ConflictRecord.detect(
                    time=time,
                    requester_core=core,
                    victim_core=r,
                    requester_txn=txn.uid,
                    victim_txn=victim.uid,
                    line_addr=line_addr,
                    line_index=self.amap.line_index(line_addr),
                    requester_is_write=True,
                    requester_mask=mask,
                    victim_read_mask=rst.read_mask,
                    victim_write_mask=rst.write_mask,
                    forced_waw=check.forced_waw,
                    at_commit=True,
                )
                self.sink.on_conflict(rec)
                self._abort(r, time, _CONFLICT_CAUSE[rec.is_false])

    # ------------------------------------------------------------------ access

    def access(
        self, core: int, addr: int, size: int, is_write: bool, time: int
    ) -> AccessOutcome:
        """Perform one memory access for ``core`` at global cycle ``time``.

        Uses the core's active transaction if any; accesses that span lines
        are split and processed per line (latencies accumulate, a capacity
        abort stops the remainder).
        """
        txn = self.active[core]
        if self._stall_res and self._stalled[core]:
            # The stall delay elapsed; the core leaves the queue and
            # re-executes the access (it may stall again immediately).
            self._stalled[core] = False
            self._stall_count -= 1
        total = AccessOutcome(latency=0, hit_l1=True)
        for chunk in self.amap.split(addr, size):
            out = self._access_line(
                core, chunk.line_addr, chunk.offset, chunk.size, is_write, time, txn
            )
            total.latency += out.latency
            total.hit_l1 = total.hit_l1 and out.hit_l1
            total.conflicts.extend(out.conflicts)
            total.dirty_reprobe = total.dirty_reprobe or out.dirty_reprobe
            if out.self_abort is not None:
                total.self_abort = out.self_abort
                break
            if out.stall_cycles:
                total.stall_cycles = out.stall_cycles
                break
        return total

    # ---------------------------------------------------------------- internals

    def _require_txn(self, core: int) -> Transaction:
        txn = self.active[core]
        if txn is None or not txn.running:
            raise ProtocolError(f"core {core} has no running transaction")
        return txn

    def _spec_state(self, core: int, line_addr: int) -> SpecLineState:
        table = self.spec_tables[core]
        st = table.get(line_addr)
        if st is None:
            st = SpecLineState(line_addr)
            table[line_addr] = st
            holders = self.spec_holders
            holders[line_addr] = holders.get(line_addr, 0) | (1 << core)
        return st

    def _spec_discard(self, core: int, line_addr: int) -> None:
        """Drop a core's side-table entry and unindex it."""
        if self.spec_tables[core].pop(line_addr, None) is None:
            return
        holders = self.spec_holders
        mask = holders.get(line_addr, 0) & ~(1 << core)
        if mask:
            holders[line_addr] = mask
        else:
            holders.pop(line_addr, None)

    def _rr_order(self, requester: int, mask: int) -> list[int]:
        """Cores named in ``mask`` in snoop delivery order: ascending ids
        starting after the requester, wrapping (the requester itself is
        never included).  Matches :meth:`SnoopBus.snoop_order` restricted
        to the candidate set, so filtered probes abort victims in exactly
        the broadcast order."""
        out: list[int] = []
        hi = mask >> (requester + 1)
        base = requester + 1
        while hi:
            low = hi & -hi
            out.append(base + low.bit_length() - 1)
            hi ^= low
        lo = mask & ((1 << requester) - 1)
        while lo:
            low = lo & -lo
            out.append(low.bit_length() - 1)
            lo ^= low
        return out

    def _iter_mask(self, mask: int, exclude: int) -> list[int]:
        """Cores named in ``mask`` in ascending order, minus ``exclude``."""
        mask &= ~(1 << exclude)
        out: list[int] = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def _access_line(
        self,
        core: int,
        line_addr: int,
        offset: int,
        size: int,
        is_write: bool,
        time: int,
        txn: Transaction | None,
    ) -> AccessOutcome:
        detector = self.detector
        lat = self.config.latency
        l1 = self.mem.l1s[core]
        mask = ((1 << size) - 1) << offset

        line = l1.lookup(line_addr, touch=True)
        valid = line is not None and line.valid
        st = self.spec_tables[core].get(line_addr)

        # Two reasons a valid hit cannot proceed silently:
        # * the cached data is unreliable (Dirty sub-blocks: speculatively
        #   forwarded remote values) -> full miss path, probe + refetch;
        # * a store targets a sub-block with retained remote speculation
        #   (rr_bits) -> a probe must go out, but the local data (ours,
        #   authoritative) stays, so the upgrade path suffices.
        stale = (
            st is not None and valid and detector.data_stale(st, mask, is_write)
        )
        force_probe = stale or (
            st is not None and valid and is_write and detector.rr_hit(st, mask)
        )
        if force_probe:
            self.sink.on_dirty_reprobe(core, line_addr, time)

        out = AccessOutcome(latency=0, hit_l1=False, dirty_reprobe=force_probe)
        filled = False
        probed = False
        piggy = 0

        if is_write:
            if valid and can_write_silently(line.state) and not force_probe:
                # Silent store: M stays M, E upgrades to M without traffic.
                line.state = on_local_write(line.state)
                out.latency += lat.l1_hit
                out.hit_l1 = True
            else:
                probed = True
                try:
                    out.conflicts.extend(
                        self._broadcast_probe(core, line_addr, mask, time, txn, True)
                    )
                except _RequesterAborted as aborted:
                    out.conflicts.extend(aborted.records)
                    out.self_abort = aborted.cause
                    return out
                except _RequesterStalled as stalled:
                    out.stall_cycles = stalled.cycles
                    return out
                if valid and not stale:
                    # Ownership upgrade -> M with a probe; data already
                    # local and clean (no Dirty sub-blocks — checked
                    # above).  Taken for S/O copies and for M/E copies
                    # that only needed the rr_bits conflict check.
                    self._invalidate_remotes(core, line_addr)
                    line.state = MoesiState.MODIFIED
                    self.mem.note_owner(line_addr, core)
                    out.latency += lat.l1_hit + lat.cache_to_cache // 2
                    out.hit_l1 = True
                else:
                    data, fill_lat, piggy = self._fetch_line(core, line_addr)
                    self._invalidate_remotes(core, line_addr)
                    if not self._fill_l1(core, line_addr, MoesiState.MODIFIED, data, txn):
                        return self._capacity_abort(core, time, out)
                    out.latency += fill_lat
                    filled = True
        else:
            if valid and not stale:
                out.latency += lat.l1_hit
                out.hit_l1 = True
            else:
                probed = True
                try:
                    out.conflicts.extend(
                        self._broadcast_probe(core, line_addr, mask, time, txn, False)
                    )
                except _RequesterAborted as aborted:
                    out.conflicts.extend(aborted.records)
                    out.self_abort = aborted.cause
                    return out
                except _RequesterStalled as stalled:
                    out.stall_cycles = stalled.cycles
                    return out
                data, fill_lat, piggy = self._fetch_line(core, line_addr)
                self._demote_remotes(core, line_addr)
                had_sharers = self.mem.holders_mask(line_addr, core) != 0
                new_state = MoesiState.SHARED if had_sharers else MoesiState.EXCLUSIVE
                if not self._fill_l1(core, line_addr, new_state, data, txn):
                    return self._capacity_abort(core, time, out)
                out.latency += fill_lat
                filled = True

        line = l1.lookup(line_addr, touch=False)
        if line is None or not line.valid:  # pragma: no cover - fill guarantees
            raise ProtocolError(f"line {line_addr:#x} not resident after access")

        if probed and not self._lazy_cd:
            # Snapshot which sub-blocks other running transactions still
            # hold speculative state on (survivors of the probe: retained
            # readers after a false-WAR invalidation, non-overlapping
            # writers under the perfect scheme).  A later silent store
            # into one of them must re-probe — see SpecLineState.rr_bits.
            # (Moot under lazy detection: probes never check conflicts.)
            remote_spec = self._remote_spec_bits(core, line_addr)
            if remote_spec or (st is not None and st.rr_bits):
                self._spec_state(core, line_addr).rr_bits = remote_spec

        # -- speculative bookkeeping ------------------------------------
        if txn is not None:
            st = self._spec_state(core, line_addr)
            if st.owner_txn == -1:
                st.owner_txn = txn.uid
            elif st.owner_txn != txn.uid:
                raise ProtocolError(
                    f"stale speculative state on line {line_addr:#x} "
                    f"(owner {st.owner_txn}, txn {txn.uid})"
                )
            if filled:
                # Fresh data arrived: recompute Dirty from the piggy-back
                # bits of the transactions currently holding speculative
                # writes (for the sub-blocking scheme, an invalidating
                # probe aborted them all, so piggy is 0 and Dirty clears).
                detector.apply_fill_piggyback(st, piggy)
            if is_write:
                detector.record_write(st, mask)
                txn.note_write(line_addr)
            else:
                detector.record_read(st, mask)
                txn.note_read(line_addr)
            l1.pin(line_addr)
        elif filled and piggy:
            # Non-transactional fill still records data-validity info.
            st = self._spec_state(core, line_addr)
            detector.apply_fill_piggyback(st, piggy)

        # -- data movement -------------------------------------------------
        if is_write:
            self._apply_store(core, line, line_addr, offset, size, txn)
        else:
            self._apply_load(core, line, line_addr, offset, size, txn)

        self.sink.on_access(core, line_addr, offset, is_write, out.hit_l1)
        return out

    # -- probes ---------------------------------------------------------------

    def _broadcast_probe(
        self,
        core: int,
        line_addr: int,
        mask: int,
        time: int,
        txn: Transaction | None,
        is_write: bool,
    ) -> list[ConflictRecord]:
        """Deliver the access's probe (invalidating for a store) to the
        line's speculative holders in snoop order and resolve each
        conflict; returns the records of the conflicts it acted on."""
        records: list[ConflictRecord] = []
        for r in self._rr_order(core, self.spec_holders.get(line_addr, 0)):
            rst = self.spec_tables[r].get(line_addr)
            if rst is None:
                continue
            victim = self.active[r]
            if victim is None or rst.owner_txn != victim.uid:
                continue  # dirty-only or stale state: no active speculation
            check = self.detector.check_probe(rst, mask, is_write)
            if not check.conflict:
                continue
            rec = ConflictRecord.detect(
                time=time,
                requester_core=core,
                victim_core=r,
                requester_txn=txn.uid if txn is not None else -1,
                victim_txn=victim.uid,
                line_addr=line_addr,
                line_index=self.amap.line_index(line_addr),
                requester_is_write=is_write,
                requester_mask=mask,
                victim_read_mask=rst.read_mask,
                victim_write_mask=rst.write_mask,
                forced_waw=check.forced_waw,
            )
            cause = _CONFLICT_CAUSE[rec.is_false]
            if self._stall_res and txn is not None:
                # Stall/backoff resolution: nobody aborts if the requester
                # can park.  The decision is made at the first conflicting
                # victim, before any abort, so a stalled access is
                # side-effect-free and replayable.
                if (
                    self._stall_budget[core] > 0
                    and self._stall_count < self.policy.stall_queue_depth
                ):
                    self._stall_budget[core] -= 1
                    # Deterministic delay, scaled by queue occupancy so
                    # symmetric waiters separate without RNG draws.
                    delay = self.policy.stall_cycles * (1 + self._stall_count)
                    self._stalled[core] = True
                    self._stall_count += 1
                    self.sink.on_stall(core, time, delay, False)
                    raise _RequesterStalled(delay)
                # Deadlock avoidance: budget or queue exhausted — the
                # requester aborts itself instead of waiting forever.
                records.append(rec)
                self.sink.on_conflict(rec)
                self.sink.on_stall(core, time, 0, True)
                self._abort(core, time, cause)
                raise _RequesterAborted(cause, records)
            records.append(rec)
            self.sink.on_conflict(rec)
            if (
                self.config.htm.resolution is ConflictResolution.OLDER_WINS
                and txn is not None
                and victim.start_time < txn.start_time
            ):
                # Age-based resolution: the younger *requester* yields.
                self._abort(core, time, cause)
                raise _RequesterAborted(cause, records)
            self._abort(r, time, cause)
        return records

    def _holder_targets(self, core: int, line_addr: int) -> list[int]:
        """Cores that may hold a valid copy of the line (ascending order)."""
        return self._iter_mask(self.mem.holders_mask(line_addr), core)

    def _spec_targets(self, core: int, line_addr: int) -> list[int]:
        """Cores that may hold side state for the line (ascending order)."""
        return self._iter_mask(self.spec_holders.get(line_addr, 0), core)

    def _commit_invalidate(self, core: int, txn: Transaction) -> None:
        """Invalidate remote copies of a lazy-detection committer's write
        set (deterministic line order; kernels override the walk)."""
        for line_addr in sorted(txn.write_lines):
            self._invalidate_remotes(core, line_addr)

    def _invalidate_remotes(self, core: int, line_addr: int) -> None:
        for r in self._holder_targets(core, line_addr):
            l1 = self.mem.l1s[r]
            line = l1.lookup(line_addr, touch=False)
            if line is None or not line.valid:
                continue
            rst = self.spec_tables[r].get(line_addr)
            retain = rst is not None and self.detector.retains_on_invalidate(rst)
            l1.invalidate(line_addr, retain=retain)
            if not retain and rst is not None and not rst.any_spec:
                # Dirty-only info dies with the discarded copy.
                self._spec_discard(r, line_addr)

    def _demote_remotes(self, core: int, line_addr: int) -> None:
        for r in self._holder_targets(core, line_addr):
            line = self.mem.l1s[r].lookup(line_addr, touch=False)
            if line is not None and line.valid:
                if line.state is MoesiState.EXCLUSIVE:
                    # E→S loses supply capability; M→O keeps it (same
                    # core), so only the E demotion moves the pointer.
                    self.mem.disown(line_addr, r)
                line.state = on_non_invalidating_probe(line.state)

    def _remote_spec_bits(self, core: int, line_addr: int) -> int:
        """Union of other cores' *active* speculative sub-block bitmaps for
        the line (valid or invalidated-but-retained copies alike)."""
        bits = 0
        for r in self._spec_targets(core, line_addr):
            rst = self.spec_tables[r].get(line_addr)
            if rst is None:
                continue
            victim = self.active[r]
            if victim is None or rst.owner_txn != victim.uid:
                continue
            bits |= rst.spec_bits
        return bits

    def _fetch_line(self, core: int, line_addr: int) -> tuple[list[int], int, int]:
        """Fetch line data: remote owner cache, local L2/L3, or memory.

        Returns ``(data, latency, piggyback_mask)``.  A cache holding
        Dirty-marked sub-blocks of the line abstains from supplying: its
        copy may contain stale speculatively-forwarded words, and Dirty
        marks are local (they do not travel with data).  Backing memory is
        always committed-clean in this model, so falling through is safe.
        """
        supplier: int | None = None
        # O(1) supplier selection: the MOESI invariant admits at most one
        # supply-capable (M/O/E) copy, and ``l1_owner`` tracks it, so
        # there is nothing to walk — either the owner supplies or memory
        # does.  An owner equal to the requester only happens on the
        # dirty-refetch path, where no *other* supplier can exist either.
        owner = self.mem.l1_owner.get(line_addr, -1)
        if owner >= 0 and owner != core:
            line = self.mem.l1s[owner].lookup(line_addr, touch=False)
            if line is not None and line.valid and supplies_data(line.state):
                rst = self.spec_tables[owner].get(line_addr)
                if rst is None or not self.detector.abstains_from_supply(rst):
                    supplier = owner
        # Piggy-back bits are collected from every core holding
        # speculatively written sub-blocks of the line — including (for the
        # idealised perfect system) invalidated-but-retained speculative
        # lines.
        piggy = 0
        for r in self._spec_targets(core, line_addr):
            rst = self.spec_tables[r].get(line_addr)
            victim = self.active[r]
            if rst is None or victim is None or rst.owner_txn != victim.uid:
                continue
            piggy |= self.detector.piggyback_mask(rst)
        if supplier is not None:
            src = self.mem.l1s[supplier].lookup(line_addr, touch=False)
            assert src is not None and src.data is not None
            data = list(src.data)
            latency = self.mem.fill_latency(
                core, line_addr, remote_supplier=True
            ).latency
        else:
            result = self.mem.fill_latency(core, line_addr, remote_supplier=False)
            data = self.mem.mem_read_line(line_addr)
            latency = result.latency
        self.mem.install_lower_levels(core, line_addr)
        return data, latency, piggy

    def _fill_l1(
        self,
        core: int,
        line_addr: int,
        state: MoesiState,
        data: list[int],
        txn: Transaction | None,
    ) -> bool:
        """Install a line in the core's L1; False means capacity-blocked."""
        if txn is not None:
            # Overlay the transaction's own buffered stores (the line may
            # have been invalidated-and-refetched while we hold redo data).
            if line_addr in txn.write_lines:
                base = line_addr
                for wi in range(self.amap.words_per_line):
                    tok = txn.redo.get(base + wi * WORD_SIZE)
                    if tok is not None:
                        data[wi] = tok
        l1 = self.mem.l1s[core]
        result = l1.fill(line_addr, state, data)
        if result.capacity_blocked:
            # Grow the set within the speculative overflow allowance.
            if l1.set_occupancy(line_addr) < l1.associativity + SPEC_OVERFLOW_WAYS:
                result = self._force_fill(l1, line_addr, state, data)
            else:
                return False
        if result.evicted is not None:
            self._on_l1_eviction(core, result.evicted)
        if state is MoesiState.MODIFIED or state is MoesiState.EXCLUSIVE:
            self.mem.note_owner(line_addr, core)
        return True

    def _force_fill(self, l1, line_addr: int, state: MoesiState, data: list[int]):
        """Insert beyond nominal associativity (LSQ/LLB overflow modelling)."""
        s = l1._set_of(line_addr)  # noqa: SLF001 - machine is a friend of the cache
        from repro.mem.cache import CacheLine, FillResult

        cl = CacheLine(addr=line_addr, state=state, data=data)
        s[line_addr] = cl
        if l1.observer is not None:
            l1.observer(line_addr, True)
        return FillResult(line=cl)

    def _on_l1_eviction(self, core: int, evicted) -> None:
        """Clean up side state when an unpinned line leaves the L1."""
        st = self.spec_tables[core].get(evicted.addr)
        if st is not None and not st.any_spec:
            self._spec_discard(core, evicted.addr)
        # Dirty write-back is a no-op for data: committed tokens already
        # live in backing memory (commit publishes the redo log), and
        # speculative lines are pinned so they are never evicted.

    def _capacity_abort(self, core: int, time: int, out: AccessOutcome) -> AccessOutcome:
        txn = self.active[core]
        if txn is None:
            # Non-transactional access to a set full of pinned lines:
            # bypass the cache (serve uncached at memory latency).
            out.latency += self.config.latency.memory
            out.self_abort = None
            return out
        self._abort(core, time, AbortCause.CAPACITY)
        out.self_abort = AbortCause.CAPACITY
        return out

    # -- data movement ---------------------------------------------------------

    def _apply_store(
        self, core: int, line, line_addr: int, offset: int, size: int, txn
    ) -> None:
        assert line.data is not None
        base = line_addr
        for wi in self.amap.word_indices(offset, size):
            word_addr = base + wi * WORD_SIZE
            if txn is not None:
                token = self.tokens.allocate(txn.uid, word_addr)
                txn.record_store(word_addr, token)
                if self._eager_vm:
                    # Eager versioning: publish in place now, remember the
                    # overwritten value for the abort rollback.  First
                    # touch only — the undo log keeps the pre-transaction
                    # value, not intermediate ones.
                    memory = self.mem.memory
                    undo = txn.undo
                    if word_addr not in undo:
                        undo[word_addr] = memory.get(word_addr, 0)
                    memory[word_addr] = token
            else:
                # Non-transactional store: immediately visible.  Each one
                # gets its own (instantly committed) writer id so the
                # serializability checker can order it in the history
                # like a one-word transaction.
                self._txn_uid += 1
                uid = self._txn_uid
                token = self.tokens.allocate(uid, word_addr)
                self.versions.on_commit(uid)
                self.mem.mem_write_word(word_addr, token)
                if self.checker is not None:
                    self.checker.record_plain_write(word_addr, token)
            line.data[wi] = token

    def _apply_load(
        self, core: int, line, line_addr: int, offset: int, size: int, txn
    ) -> None:
        assert line.data is not None
        base = line_addr
        for wi in self.amap.word_indices(offset, size):
            word_addr = base + wi * WORD_SIZE
            token: int | None = None
            if txn is not None:
                token = txn.forwarded_value(word_addr)
            if token is None:
                token = line.data[wi]
            if txn is not None:
                before = word_addr in txn.observed or word_addr in txn.redo
                txn.observe_read(word_addr, token)
                if not before and self.checker is not None:
                    self.checker.observe_read(txn, word_addr, token)

    # -- abort ------------------------------------------------------------------

    def _abort(self, core: int, time: int, cause: AbortCause) -> Transaction:
        txn = self._require_txn(core)
        self.versions.on_abort(txn.uid)
        if self._eager_vm and txn.undo:
            restore_undo(self.mem.memory, txn.undo)
        if self._stall_res and self._stalled[core]:
            # A stalled core can die remotely; free its queue slot.
            self._stalled[core] = False
            self._stall_count -= 1
        self._release_spec_lines(core, txn, aborted=True)
        txn.mark_aborted(time, cause)
        self.active[core] = None
        self.sink.on_txn_abort(core, time, cause.value, txn.wasted_cycles)
        return txn

    def _release_spec_lines(
        self, core: int, txn: Transaction, aborted: bool = False
    ) -> None:
        """Gang-clear at commit or abort: unpin the footprint and clear its
        speculative state.

        Invalidated-but-retained lines hold stale data and leave the cache
        either way; an aborted transaction's written lines leave it too,
        valid or not.  Write lines are walked before read-only lines
        instead of allocating the footprint union; per-line cleanup only
        touches that line's state, so iteration order cannot change the
        final machine state.
        """
        l1 = self.mem.l1s[core]
        table = self.spec_tables[core]
        write_lines = txn.write_lines
        for written, lines in ((True, write_lines), (False, txn.read_lines)):
            for line_addr in lines:
                if not written and line_addr in write_lines:
                    continue
                st = table.get(line_addr)
                empty = self.detector.clear_spec(st) if st is not None else True
                l1.unpin(line_addr)
                line = l1.lookup(line_addr, touch=False)
                if line is not None and (not line.valid or (aborted and written)):
                    l1.drop(line_addr)
                    line = None
                if st is not None and (empty or line is None):
                    self._spec_discard(core, line_addr)
