"""The flat kernel: the fast machine implementation.

:class:`FlatTxnMachine` is a drop-in :class:`~repro.htm.machine.HtmMachine`
whose per-access path runs entirely on :class:`~repro.kernel.state.SimState`
arrays: no :class:`CacheLine` objects, no :class:`SpecLineState` side
tables, no MOESI enum dispatch, no detector method calls per access.  The
detection scheme's record/check/piggy-back rules are inlined as integer
mask arithmetic specialised once at construction time from the config.

It is a *bit-exact mirror* of the object machine — same telemetry events
in the same order, same latencies, same conflict records, same LRU and
probe delivery order — which the kernel-parity grid and the hypothesis
replay suite assert.  Anything off the hot path (``begin_txn``, read-set
validation, uid allocation, ``_abort``, the rare multi-line access split)
is inherited from the base class unchanged; the base delegates its
representation-touching steps to the private methods overridden here
(``_access_line``, ``_release_spec_lines``, ``_commit_arbitrate``,
``_commit_invalidate``).  Each kernel rule has one copy here: every
single-line access runs through :meth:`FlatTxnMachine.access`, whose
no-traffic hit and :meth:`~FlatTxnMachine._coherence` leg share one
speculative-bookkeeping block and one data-movement block; commit and
abort share one gang-clear; conflicts are classified by
:meth:`ConflictRecord.detect`.

Parity-critical mirroring rules (each encodes an observable behaviour of
the object model — change them only together with the object path):

* L1 LRU: the touch-on-lookup move happens only for *valid* lines, at the
  top of the per-line access;
* write miss: fetch (emitting ``on_fill``) before invalidating remotes;
* probe targets visit in round-robin order starting after the requester
  (:meth:`HtmMachine._rr_order` over ``spec_mask``); every other remote
  walk (invalidate, demote, piggy-back, remote-spec collection) visits
  ascending core ids of the ``holders``/``spec_mask`` bitmasks;
* a set may grow ``SPEC_OVERFLOW_WAYS`` beyond nominal associativity to
  host pinned speculative lines before a capacity abort fires;
* non-transactional accesses to a fully pinned set bypass the cache at
  memory latency without emitting ``on_access``.

On top of the flat coherence state the kernel runs a flat *transaction*
runtime: the per-attempt :class:`~repro.htm.txn.Transaction` allocations
leave the hot path.  Each core owns exactly one ``Transaction`` *view*
whose container fields (read/write line sets, redo log, observed tokens)
alias the ``SimState`` txn planes; ``new_txn`` recycles the view in place
via :meth:`Transaction.reset` instead of allocating a dataclass plus four
containers per attempt.  The object-model API is unchanged — engine,
telemetry, checker and tests still see a ``Transaction`` with the same
fields — the view is just never reallocated.

View-aliasing safety argument (why recycling cannot corrupt anything):

* the engine holds a core's view only between ``new_txn`` and the commit/
  abort handling of that same attempt; the view is reset only by the next
  ``new_txn`` on the same core, which the engine issues strictly after it
  finished with the previous attempt (including the remote-abort notice);
* the checker copies ``observed``/``redo`` content into its own history
  at ``validate_commit`` time;
* telemetry hooks receive scalars only;
* remote probes read ``uid``/``start_time`` of *active* victims, and a
  view stays untouched from its abort until its core's next attempt.

On top of the view recycling the hot lifecycle is specialised:

* ``commit`` is fully inlined: direct redo publish into the backing
  memory dict (redo keys are word-aligned by construction, so the
  alignment guard is skipped), inline status flip, no ``mark_committed``
  guard re-check after ``_require_txn``;
* no-traffic L1 hits return one preallocated :class:`AccessOutcome` (the
  engine and any wrapper of ``access`` consume its scalars immediately and
  never retain it); every other access reuses a second preallocated
  outcome, whose fields :meth:`~FlatTxnMachine._coherence` rewrites per
  call;
* when no atomicity checker is attached and the scheme does not need
  commit-time validation, transactional *loads* skip token bookkeeping
  entirely — ``observed`` is consumed only by the checker and by lazy
  read-set validation, so with both absent the load loop has no
  observable effect (asserted bit-identical by the parity suite).
"""

from __future__ import annotations

from repro.config import ConflictResolution, DetectionScheme, SystemConfig
from repro.errors import ProtocolError
from repro.htm.conflict import ConflictRecord
from repro.htm.machine import (
    _CONFLICT_CAUSE,
    SPEC_OVERFLOW_WAYS,
    AccessOutcome,
    HtmMachine,
    _RequesterAborted,
    _RequesterStalled,
)
from repro.htm.ops import TxnOp
from repro.htm.txn import AbortCause, Transaction, TxnStatus
from repro.kernel.state import (
    MOESI_E,
    MOESI_I,
    MOESI_M,
    MOESI_O,
    MOESI_S,
    NON_INVALIDATING_NEXT,
    SimState,
)
from repro.mem.address import WORD_SIZE
from repro.telemetry.events import EventSink
from repro.util.bitops import reduce_mask

__all__ = ["FlatTxnMachine"]

#: offset -> word index shift (WORD_SIZE is a power of two).
_WSHIFT = WORD_SIZE.bit_length() - 1


class FlatTxnMachine(HtmMachine):
    """HtmMachine on SimState arrays with recycled per-core txn views."""

    def __init__(
        self,
        config: SystemConfig,
        stats: EventSink | None = None,
        checker=None,
    ) -> None:
        super().__init__(config, stats=stats, checker=checker)
        s = self.state = SimState(config)
        scheme = config.htm.scheme
        # Scheme specialisation: which family of inlined mask rules runs.
        self._sub = scheme in (DetectionScheme.SUBBLOCK, DetectionScheme.PERFECT)
        self._decoupled = scheme is DetectionScheme.DECOUPLED
        if scheme is DetectionScheme.SUBBLOCK:
            self._n_sub = config.htm.n_subblocks
            self._dirty_en = config.htm.dirty_state_enabled
            self._forced_waw = config.htm.forced_waw_abort
        elif scheme is DetectionScheme.PERFECT:
            self._n_sub = config.line_size
            self._dirty_en = True
            self._forced_waw = False
        else:
            self._n_sub = 1
            self._dirty_en = False
            self._forced_waw = False
        if self._lazy_cd:
            # Lazy detection neutralises the dirty/piggy-back machinery
            # (it exists to make *eager* probe detection sound); the
            # object model gets the same effect from LazyPolicyDetector
            # inheriting the base no-op hooks.
            self._dirty_en = False
        self._sub_memo: dict[int, int] = {}
        self._older_wins = config.htm.resolution is ConflictResolution.OLDER_WINS
        lat = config.latency
        self._lat_l1 = lat.l1_hit
        self._lat_l2 = lat.l2_hit
        self._lat_l3 = lat.l3_hit
        self._lat_mem = lat.memory
        self._lat_c2c = lat.cache_to_cache
        self._lat_upgrade = lat.l1_hit + lat.cache_to_cache // 2
        self._line_size = config.line_size
        self._offset_mask = config.line_size - 1
        self._wpl = self.amap.words_per_line
        # Default token per word of a memory-sourced fill.
        self._fill_zeros = (0,) * self._wpl
        # One reusable Transaction per core, aliasing the SimState planes.
        self._views: list[Transaction] = [
            Transaction(
                uid=0,
                static_id=-1,
                core=c,
                ops=(),
                attempt=0,
                start_time=0,
                read_lines=s.txn_read_lines[c],
                write_lines=s.txn_write_lines[c],
                redo=s.txn_redo[c],
                observed=s.txn_observed[c],
            )
            for c in range(config.n_cores)
        ]
        # Lazy schemes must keep recording observed tokens for commit-time
        # read-set validation even without a checker attached.
        self._lazy = self.detector.requires_commit_validation
        self._memory = self.mem.memory
        # Shared outcome for no-traffic L1 hits; all fields are invariant
        # on that path and every consumer reads scalars immediately.
        out = AccessOutcome.__new__(AccessOutcome)
        out.latency = self._lat_l1
        out.hit_l1 = True
        out.conflicts = []
        out.self_abort = None
        out.dirty_reprobe = False
        out.stall_cycles = 0
        self._fast_out = out
        # Reusable slow-path outcome: every field is rewritten per call,
        # and `conflicts` starts as a shared never-mutated empty list —
        # a fresh list (from _probe / the abort exception) is *assigned*
        # only when conflicts actually occurred.
        self._miss_out = AccessOutcome.__new__(AccessOutcome)
        self._no_conflicts: list = []
        # Bound-method caches for the per-access hot path (the sink is
        # fixed at construction; instrumentation wraps ``access``, not the
        # sink, so these cannot go stale).
        self._on_access = self.sink.on_access
        self._on_fill = self.sink.on_fill

    # ------------------------------------------------------------------ helpers

    def _subblocks(self, mask: int) -> int:
        """Byte mask -> packed sub-block mask, memoized per machine."""
        memo = self._sub_memo
        sub = memo.get(mask)
        if sub is None:
            sub = reduce_mask(mask, self._line_size, self._n_sub)
            memo[mask] = sub
        return sub

    def _ensure_entry(self, core: int, li: int) -> None:
        """Create the (zeroed) side-state slot for ``(core, li)``.

        Mirrors ``_spec_state`` creating a fresh ``SpecLineState``: slots
        are zero-on-create (discard only clears the membership bit; every
        plane read is membership-guarded, so stale values are inert).
        """
        s = self.state
        s.spec_mask[li] |= 1 << core
        s.rmask[core][li] = 0
        s.wmask[core][li] = 0
        s.spec[core][li] = 0
        s.wr[core][li] = 0
        s.rr[core][li] = 0
        s.sowner[core][li] = -1

    def _any_spec(self, core: int, li: int) -> bool:
        """SpecLineState.any_spec on planes (membership already checked)."""
        s = self.state
        if self._sub:
            return s.spec[core][li] != 0
        return s.rmask[core][li] != 0 or s.wmask[core][li] != 0

    def _remove_l1(self, core: int, li: int) -> None:
        """Valid-copy removal bookkeeping shared by evict/drop/invalidate."""
        s = self.state
        if s.moesi[core][li] != MOESI_I:
            s.moesi[core][li] = MOESI_I
            s.holders[li] &= ~(1 << core)
            if s.owner[li] == core:
                s.owner[li] = -1

    def _spec_written(self, r: int, li: int) -> bool:
        """has_spec_write on planes: does ``r`` hold speculatively written
        (uncommitted) words of the line?  Used by the lazy-detection
        supplier abstention — such data must never be forwarded."""
        s = self.state
        if self._sub:
            return (s.spec[r][li] & s.wr[r][li]) != 0
        return s.wmask[r][li] != 0

    # ------------------------------------------------------------------ txns

    def new_txn(
        self, core: int, static_id: int, ops: tuple[TxnOp, ...], attempt: int, time: int
    ) -> Transaction:
        """Recycle the core's transaction view as a fresh attempt."""
        self._txn_uid += 1
        view = self._views[core]
        view.reset(self._txn_uid, static_id, ops, attempt, time)
        return view

    def commit(self, core: int, time: int) -> Transaction:
        """Inlined commit: validate, publish redo, gang-clear, flip status."""
        txn = self._require_txn(core)
        if self._lazy and not self._read_set_valid(txn):
            return self._abort(core, time, AbortCause.VALIDATION)
        if self.checker is not None:
            self.checker.validate_commit(txn, self._memory)
        if self._lazy_cd and self._committer_wins:
            self._commit_arbitrate(core, txn, time)
        if self._eager_vm:
            # In-place stores already published; the undo log just dies.
            txn.undo.clear()
        else:
            redo = txn.redo
            if redo:
                # Direct publish: redo keys are word-aligned by construction.
                memory = self._memory
                for word_addr, token in redo.items():
                    memory[word_addr] = token
        if self._lazy_cd:
            # Commit broadcast: see HtmMachine.commit — stale remote
            # copies of the write set must not survive the publish.
            self._commit_invalidate(core, txn)
        self.versions.on_commit(txn.uid)
        self._release_spec_lines(core, txn)
        # mark_committed inlined; _require_txn already proved RUNNING.
        txn.status = TxnStatus.COMMITTED
        txn.end_time = time
        self.active[core] = None
        self.sink.on_txn_commit(core, time)
        return txn

    # ------------------------------------------------------------------ access

    def access(
        self, core: int, addr: int, size: int, is_write: bool, time: int
    ) -> AccessOutcome:
        """Perform one access; every single-line access runs here.

        A valid L1 hit that needs neither a probe nor a fill (a read of
        reliable data, or a silent store on an M/E copy) is decided first,
        before any state changes and without a call, and uses the
        machine's preallocated hit outcome.  Any other access makes one
        call, to :meth:`_coherence`.  Both legs then share one speculative
        bookkeeping block and one data-movement block, and ``on_access``
        comes last.  A multi-line access goes to the base class splitter,
        which calls back in once per line through :meth:`_access_line`.
        """
        if self._stall_res and self._stalled[core]:
            # The stall delay elapsed; the core leaves the queue and
            # re-executes the access (it may stall again immediately).
            self._stalled[core] = False
            self._stall_count -= 1
        offset = addr & self._offset_mask
        if offset + size > self._line_size or size <= 0:
            # Multi-line or degenerate access: the base splitter handles
            # it (its own stall-queue re-entry check is a no-op by now).
            return super().access(core, addr, size, is_write, time)
        s = self.state
        line_addr = addr - offset
        li = s.intern_map.get(line_addr)
        txn = self.active[core]
        if li is None:
            li = s.add_line(line_addr)  # fresh line: MOESI_I, misses below
        moesi_c = s.moesi[core]
        code = moesi_c[li]
        mask = ((1 << size) - 1) << offset
        set_d = s.l1_sets[core][s.set1[li]]
        sub = -1  # lazily reduced sub-block mask of this access
        stale = force_probe = False
        if code:
            # LRU touch (only valid lookups move to MRU).
            del set_d[li]
            set_d[li] = None
            if self._dirty_en and (s.spec_mask[li] >> core) & 1:
                # Two reasons a valid copy cannot serve silently: Dirty
                # sub-blocks (speculatively forwarded remote data) make it
                # stale, so it is probed and refetched; a store into a
                # sub-block with retained remote speculation (rr) must
                # probe, but its own data stays.
                dirty = s.wr[core][li] & ~s.spec[core][li]
                if is_write:
                    if dirty:
                        stale = force_probe = True
                    else:
                        rrb = s.rr[core][li]
                        if rrb:
                            sub = self._sub_memo.get(mask)
                            if sub is None:
                                sub = self._subblocks(mask)
                            force_probe = (sub & rrb) != 0
                elif dirty:
                    sub = self._sub_memo.get(mask)
                    if sub is None:
                        sub = self._subblocks(mask)
                    stale = force_probe = (sub & dirty) != 0
        if code and not force_probe and (code >= MOESI_E or not is_write):
            # ---- no-traffic L1 hit ----
            if txn is None and not is_write:
                # Non-transactional read hit: LRU touch + telemetry only.
                self._on_access(core, line_addr, offset, False, True)
                return self._fast_out
            if is_write and code != MOESI_M:
                moesi_c[li] = MOESI_M  # silent store: E upgrades to M
            out = self._fast_out
        else:
            out = self._miss_out
            if self._coherence(
                core, line_addr, li, set_d, mask, is_write, time, txn, stale, force_probe
            ):
                return out

        # -- speculative bookkeeping ------------------------------------
        if txn is not None:
            if not (s.spec_mask[li] >> core) & 1:
                # _ensure_entry inlined (zero-on-create side-state slot).
                s.spec_mask[li] |= 1 << core
                s.rmask[core][li] = 0
                s.wmask[core][li] = 0
                s.spec[core][li] = 0
                s.wr[core][li] = 0
                s.rr[core][li] = 0
                s.sowner[core][li] = -1
            sowner_c = s.sowner[core]
            so = sowner_c[li]
            uid = txn.uid
            if so == -1:
                sowner_c[li] = uid
            elif so != uid:
                raise ProtocolError(
                    f"stale speculative state on line {line_addr:#x} "
                    f"(owner {so}, txn {uid})"
                )
            if self._sub:
                if sub < 0:
                    sub = self._sub_memo.get(mask)
                    if sub is None:
                        sub = self._subblocks(mask)
                spec_c = s.spec[core]
                wr_c = s.wr[core]
                if is_write:
                    s.wmask[core][li] |= mask
                    spec_c[li] |= sub
                    wr_c[li] |= sub
                    txn.write_lines.add(line_addr)
                else:
                    s.rmask[core][li] |= mask
                    swr = spec_c[li] & wr_c[li]
                    spec_c[li] |= sub
                    wr_c[li] = (wr_c[li] & ~sub) | (swr & sub)
                    txn.read_lines.add(line_addr)
            elif is_write:
                s.wmask[core][li] |= mask
                txn.write_lines.add(line_addr)
            else:
                s.rmask[core][li] |= mask
                txn.read_lines.add(line_addr)
            s.pinned[core][li] = 1

        # -- data movement ----------------------------------------------
        if is_write:
            data_line = s.data[core][li]
            w0 = offset >> _WSHIFT
            w1 = (offset + size - 1) >> _WSHIFT
            tokens = self.tokens
            if txn is not None:
                t_uid = txn.uid
                redo = txn.redo
                if self._eager_vm:
                    memory = self._memory
                    undo = txn.undo
                    for wi in range(w0, w1 + 1):
                        word_addr = line_addr + wi * WORD_SIZE
                        token = tokens.allocate(t_uid, word_addr)
                        redo[word_addr] = token
                        if word_addr not in undo:
                            undo[word_addr] = memory.get(word_addr, 0)
                        memory[word_addr] = token
                        data_line[wi] = token
                else:
                    for wi in range(w0, w1 + 1):
                        word_addr = line_addr + wi * WORD_SIZE
                        token = tokens.allocate(t_uid, word_addr)
                        redo[word_addr] = token
                        data_line[wi] = token
            else:
                memory = self._memory
                versions = self.versions
                checker = self.checker
                for wi in range(w0, w1 + 1):
                    word_addr = line_addr + wi * WORD_SIZE
                    self._txn_uid += 1
                    uid = self._txn_uid
                    token = tokens.allocate(uid, word_addr)
                    versions.on_commit(uid)
                    memory[word_addr] = token
                    if checker is not None:
                        checker.record_plain_write(word_addr, token)
                    data_line[wi] = token
        elif txn is not None:
            checker = self.checker
            if checker is not None or self._lazy:
                # Load token bookkeeping feeds only the checker and lazy
                # commit validation; with both absent it is skipped.
                data_line = s.data[core][li]
                w0 = offset >> _WSHIFT
                w1 = (offset + size - 1) >> _WSHIFT
                redo = txn.redo
                observed = txn.observed
                for wi in range(w0, w1 + 1):
                    word_addr = line_addr + wi * WORD_SIZE
                    token = redo.get(word_addr)
                    if token is None:
                        token = data_line[wi]
                        if word_addr not in observed:
                            observed[word_addr] = token
                            if checker is not None:
                                checker.observe_read(txn, word_addr, token)
        self._on_access(core, line_addr, offset, is_write, out.hit_l1)
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
        """The base splitter's per-line callback.

        It calls :meth:`access` on the class, not on the instance, so a
        wrapper installed on the instance's ``access`` sees a line-straddling
        access once.  ``txn`` is the core's active transaction, which
        :meth:`access` reads itself.
        """
        return FlatTxnMachine.access(self, core, line_addr + offset, size, is_write, time)

    def _invalidate_remote_copies(self, core: int, li: int) -> None:
        """Invalidate every other valid copy, ascending core ids."""
        s = self.state
        m = s.holders[li] & ~(1 << core)
        while m:
            low = m & -m
            r = low.bit_length() - 1
            m ^= low
            if s.moesi[r][li] == MOESI_I:
                continue
            member = (s.spec_mask[li] >> r) & 1
            if member:
                if self._lazy_cd:
                    # Lazy detection keeps all speculative state so the
                    # invalidated victim still validates and arbitrates.
                    retain = self._any_spec(r, li)
                elif self._sub:
                    retain = s.spec[r][li] != 0
                elif self._decoupled:
                    retain = s.rmask[r][li] != 0
                else:
                    retain = False
            else:
                retain = False
            self._remove_l1(r, li)
            if not retain:
                # The copy leaves the cache entirely.
                del s.l1_sets[r][s.set1[li]][li]
                s.data[r][li] = None
                s.pinned[r][li] = 0
                if member and not self._any_spec(r, li):
                    # Dirty-only info dies with the discarded copy.
                    s.spec_mask[li] &= ~(1 << r)

    def _release_spec_lines(
        self, core: int, txn: Transaction, aborted: bool = False
    ) -> None:
        """Gang-clear at commit or abort (the inlined object-model walk).

        The plane rows are hoisted out of the loop so each footprint line
        costs a handful of list indexings instead of method calls.  Written
        lines first, then read-only lines: that avoids allocating the
        footprint union set, and per-line cleanup only touches that line's
        state, so the order is unobservable.  Invalidated-but-retained
        lines hold stale data and leave the cache either way; an aborted
        transaction's written lines leave it too, valid or not.
        """
        s = self.state
        imap = s.intern_map
        moesi_c = s.moesi[core]
        rmask_c = s.rmask[core]
        wmask_c = s.wmask[core]
        spec_c = s.spec[core]
        wr_c = s.wr[core]
        rr_c = s.rr[core]
        sowner_c = s.sowner[core]
        pinned_c = s.pinned[core]
        data_c = s.data[core]
        l1_sets_c = s.l1_sets[core]
        set1 = s.set1
        spec_mask = s.spec_mask
        holders = s.holders
        owner = s.owner
        bit = 1 << core
        write_lines = txn.write_lines
        for written, lines in ((True, write_lines), (False, txn.read_lines)):
            for line_addr in lines:
                if not written and line_addr in write_lines:
                    continue
                li = imap[line_addr]
                if spec_mask[li] & bit:
                    member = True
                    rmask_c[li] = 0
                    wmask_c[li] = 0
                    wr = wr_c[li] & ~spec_c[li]
                    wr_c[li] = wr
                    spec_c[li] = 0
                    sowner_c[li] = -1
                    empty = wr == 0 and rr_c[li] == 0
                else:
                    member = False
                    empty = True
                pinned_c[li] = 0
                set_d = l1_sets_c[set1[li]]
                resident = li in set_d
                if resident and (moesi_c[li] == MOESI_I or (aborted and written)):
                    if moesi_c[li] != MOESI_I:
                        moesi_c[li] = MOESI_I
                        holders[li] &= ~bit
                        if owner[li] == core:
                            owner[li] = -1
                    del set_d[li]
                    data_c[li] = None
                    resident = False
                if member and (empty or not resident):
                    spec_mask[li] &= ~bit

    def _post_probe_walk(self, core: int, li: int) -> tuple[int, int]:
        """Fused post-probe walk: probe-survivor sub-block snapshot and
        piggy-back Dirty bits in one pass.

        The object model walks the line's speculative holders twice after
        a probe — once inside ``_fetch_line`` for the piggy-back mask,
        once for the ``rr`` survivor snapshot.  Both walks read the same
        post-probe state (nothing between them mutates ``spec``/``wr``/
        ``active`` for this line), so one pass yields both values.
        """
        if not self._sub or self._lazy_cd:
            # Lazy detection: no rr snapshot (probes never check
            # conflicts) and no piggy-back (dirty machinery is off).
            return 0, 0
        s = self.state
        active = self.active
        sowner = s.sowner
        spec = s.spec
        wr = s.wr
        remote_spec = 0
        piggy = 0
        m = s.spec_mask[li] & ~(1 << core)
        while m:
            low = m & -m
            r = low.bit_length() - 1
            m ^= low
            victim = active[r]
            if victim is None or sowner[r][li] != victim.uid:
                continue
            sp = spec[r][li]
            remote_spec |= sp
            piggy |= sp & wr[r][li]
        if not self._dirty_en:
            # Piggy-backing is a dirty-state mechanism; without it the
            # fetch path never collects the mask.
            piggy = 0
        return remote_spec, piggy

    def _fetch_piggy(self, core: int, li: int, line_addr: int) -> tuple[list[int], int]:
        """Fetch line data: the owner's cache, local L2/L3, or memory.

        The object model's ``_fetch_line`` with the piggy-back walk hoisted
        out (the fused :meth:`_post_probe_walk` already produced it).  The
        MOESI invariant admits at most one supply-capable copy and
        ``owner`` tracks it, so supplier selection is O(1).
        """
        s = self.state
        supplier = -1
        ow = s.owner[li]
        if ow >= 0 and ow != core and s.moesi[ow][li] >= MOESI_O:
            if not (
                (s.spec_mask[li] >> ow) & 1
                and (
                    s.wr[ow][li] & ~s.spec[ow][li]
                    or (self._lazy_cd and self._spec_written(ow, li))
                )
            ):
                supplier = ow
        on_fill = self._on_fill
        if supplier >= 0:
            src = s.data[supplier][li]
            assert src is not None
            data = list(src)
            on_fill(core, line_addr, "remote")
            latency = self._lat_c2c
        else:
            if li in s.l2_sets[core][s.set2[li]]:
                on_fill(core, line_addr, "L2")
                latency = self._lat_l2
            elif li in s.l3_sets[core][s.set3[li]]:
                on_fill(core, line_addr, "L3")
                latency = self._lat_l3
            else:
                on_fill(core, line_addr, "memory")
                latency = self._lat_mem
            data = list(map(
                self._memory.get,
                range(line_addr, line_addr + self._line_size, WORD_SIZE),
                self._fill_zeros,
            ))
        # Install presence in the private L2/L3 (inclusive, presence-only).
        l2d = s.l2_sets[core][s.set2[li]]
        if li not in l2d:
            if len(l2d) >= s.l2_assoc:
                del l2d[next(iter(l2d))]
            l2d[li] = None
        l3d = s.l3_sets[core][s.set3[li]]
        if li not in l3d:
            if len(l3d) >= s.l3_assoc:
                del l3d[next(iter(l3d))]
            l3d[li] = None
        return data, latency

    def _coherence(
        self,
        core: int,
        line_addr: int,
        li: int,
        set_d: dict,
        mask: int,
        is_write: bool,
        time: int,
        txn: Transaction | None,
        stale: bool,
        force_probe: bool,
    ) -> bool:
        """The coherence leg of an access that is not a no-traffic hit.

        It emits ``on_dirty_reprobe``, probes the line's speculative
        holders, then fetches and fills the line (a store to a valid, clean
        copy upgrades it in place instead), takes the probe-survivor ``rr``
        snapshot and recomputes Dirty from a fill's piggy-back bits.  It
        writes the machine's miss outcome and returns True when the access
        already ended: the requester aborted or stalled, or a
        non-transactional access bypassed a fully pinned set (no
        ``on_access`` follows).
        """
        s = self.state
        if force_probe:
            self.sink.on_dirty_reprobe(core, line_addr, time)
        out = self._miss_out
        out.latency = 0
        out.hit_l1 = False
        out.conflicts = self._no_conflicts
        out.self_abort = None
        out.dirty_reprobe = force_probe
        out.stall_cycles = 0
        moesi_c = s.moesi[core]
        bit = 1 << core
        remote_spec = piggy = 0
        # With no other core holding speculative state on the line the
        # probe is a no-op (snoop order excludes the requester) and the
        # fused walk yields zero masks, so both are elided.
        if s.spec_mask[li] & ~bit:
            try:
                recs = self._probe(core, li, line_addr, mask, time, txn, is_write)
            except _RequesterAborted as aborted:
                # _probe builds a fresh records list per call, so the
                # outcome can own it outright.
                out.conflicts = aborted.records
                out.self_abort = aborted.cause
                return True
            except _RequesterStalled as stalled:
                out.stall_cycles = stalled.cycles
                return True
            if recs:
                out.conflicts = recs
            remote_spec, piggy = self._post_probe_walk(core, li)
        if is_write and moesi_c[li] != MOESI_I and not stale:
            # Ownership upgrade -> M with a probe; data already local and
            # clean.
            if s.holders[li] & ~bit:
                self._invalidate_remote_copies(core, li)
            moesi_c[li] = MOESI_M
            s.owner[li] = core
            out.latency = self._lat_upgrade
            out.hit_l1 = True
            filled = False
        else:
            data, fill_lat = self._fetch_piggy(core, li, line_addr)
            if is_write:
                if s.holders[li] & ~bit:
                    self._invalidate_remote_copies(core, li)
                fill_code = MOESI_M
            else:
                # Demote does not touch holder bits, so the sharer test
                # may be hoisted above it to gate the (often no-op) walk.
                m = s.holders[li] & ~bit
                if m:
                    # Demote walk: M->O / E,S->S on every remote valid
                    # copy, releasing E supply capability.
                    owner_l = s.owner
                    moesi = s.moesi
                    while m:
                        low = m & -m
                        r = low.bit_length() - 1
                        m ^= low
                        code_r = moesi[r][li]
                        if code_r == MOESI_I:
                            continue
                        if code_r == MOESI_E and owner_l[li] == r:
                            # E→S loses supply capability; M→O keeps it.
                            owner_l[li] = -1
                        moesi[r][li] = NON_INVALIDATING_NEXT[code_r]
                    fill_code = MOESI_S
                else:
                    fill_code = MOESI_E
            # ---- L1 fill (both legs; their walks above already ran in
            # their leg-specific order) ----
            if txn is not None and line_addr in txn.write_lines:
                # Overlay the transaction's own buffered stores.
                redo = txn.redo
                for wi in range(self._wpl):
                    tok = redo.get(line_addr + wi * WORD_SIZE)
                    if tok is not None:
                        data[wi] = tok
            data_c = s.data[core]
            if li in set_d:
                # Re-fill of a resident (possibly retained-invalid) line.
                was_valid = moesi_c[li] != MOESI_I
                moesi_c[li] = fill_code
                data_c[li] = data
                del set_d[li]
                set_d[li] = None
                if not was_valid:
                    s.holders[li] |= bit
            else:
                evicted_li = -1
                if len(set_d) >= s.l1_assoc:
                    pinned_c = s.pinned[core]
                    for cand in set_d:
                        if not pinned_c[cand]:
                            evicted_li = cand
                            break
                    else:
                        # Every resident line is pinned: grow the set within
                        # the speculative overflow allowance, or give up.
                        if len(set_d) >= s.l1_assoc + SPEC_OVERFLOW_WAYS:
                            self._capacity_abort(core, time, out)
                            return True
                        evicted_li = -2  # force-fill, no eviction
                    if evicted_li >= 0:
                        del set_d[evicted_li]
                        self._remove_l1(core, evicted_li)
                        data_c[evicted_li] = None
                        pinned_c[evicted_li] = 0
                set_d[li] = None
                moesi_c[li] = fill_code
                data_c[li] = data
                s.holders[li] |= bit
                if evicted_li >= 0:
                    # Clean up side state when an unpinned line leaves L1.
                    if (s.spec_mask[evicted_li] >> core) & 1 and not self._any_spec(
                        core, evicted_li
                    ):
                        s.spec_mask[evicted_li] &= ~bit
            if fill_code >= MOESI_E:
                s.owner[li] = core
            out.latency = fill_lat
            filled = True

        if moesi_c[li] == MOESI_I:  # pragma: no cover - fill guarantees
            raise ProtocolError(f"line {line_addr:#x} not resident after access")

        member = (s.spec_mask[li] & bit) != 0
        if self._sub and not self._lazy_cd:
            # Snapshot which sub-blocks other running transactions still
            # hold speculative state on (probe survivors, computed by the
            # fused walk above); see SpecLineState.rr_bits.  The union is
            # zero outside the sub-block family, where the object path's
            # walk is a no-op.  (Moot under lazy detection: probes never
            # check conflicts.)
            if remote_spec or (member and s.rr[core][li]):
                if not member:
                    self._ensure_entry(core, li)
                    member = True
                s.rr[core][li] = remote_spec
        if filled and self._dirty_en and (txn is not None or piggy):
            # Fresh data arrived: recompute Dirty from the piggy-back bits
            # of the current responders (a non-transactional fill records
            # nonzero bits too).  _dirty_en implies the sub-block family.
            if not member:
                self._ensure_entry(core, li)
            spec_c = s.spec[core]
            wr_c = s.wr[core]
            wr_c[li] = (wr_c[li] & spec_c[li]) | (piggy & ~spec_c[li])
        return False

    # ------------------------------------------------------- probe and commit

    def _probe(
        self,
        core: int,
        li: int,
        line_addr: int,
        mask: int,
        time: int,
        txn: Transaction | None,
        is_write: bool,
    ) -> list[ConflictRecord]:
        """Deliver a probe to the line's speculative holders.

        Plane-based mirror of ``HtmMachine._broadcast_probe``: targets come
        from ``spec_mask`` in round-robin snoop order, and the scheme's
        check rule is inlined.
        """
        s = self.state
        records: list[ConflictRecord] = []
        if self._lazy_cd:
            # Lazy detection: the probe goes out but never checks
            # conflicts — resolution waits for commit.
            return records
        sub_family = self._sub
        sub = self._subblocks(mask) if sub_family else 0
        active = self.active
        for r in self._rr_order(core, s.spec_mask[li]):
            victim = active[r]
            if victim is None or s.sowner[r][li] != victim.uid:
                continue  # dirty-only or stale state: no active speculation
            forced_waw = False
            if sub_family:
                spec_r = s.spec[r][li]
                if is_write:
                    if sub & spec_r:
                        pass
                    elif self._forced_waw and spec_r & s.wr[r][li]:
                        forced_waw = True
                    else:
                        continue
                elif not (sub & spec_r & s.wr[r][li]):
                    continue
            else:
                wm = s.wmask[r][li]
                if is_write:
                    if self._decoupled:
                        if not wm:
                            continue
                    elif not (wm or s.rmask[r][li]):
                        continue
                elif not wm:
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
                victim_read_mask=s.rmask[r][li],
                victim_write_mask=s.wmask[r][li],
                forced_waw=forced_waw,
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
                self._older_wins
                and txn is not None
                and victim.start_time < txn.start_time
            ):
                # Age-based resolution: the younger *requester* yields.
                self._abort(core, time, cause)
                raise _RequesterAborted(cause, records)
            self._abort(r, time, cause)
        return records

    def _commit_arbitrate(self, core: int, txn: Transaction, time: int) -> None:
        """Plane-based mirror of ``HtmMachine._commit_arbitrate``.

        Same sorted-line walk and snoop-ordered victim visits; the scheme's
        invalidating-probe rule is inlined exactly as in :meth:`_probe`.
        """
        s = self.state
        imap = s.intern_map
        active = self.active
        sub_family = self._sub
        for line_addr in sorted(txn.write_lines):
            li = imap[line_addr]
            if not (s.spec_mask[li] >> core) & 1:
                continue
            mask = s.wmask[core][li]
            if not mask:
                continue
            sub = self._subblocks(mask) if sub_family else 0
            for r in self._rr_order(core, s.spec_mask[li]):
                victim = active[r]
                if victim is None or s.sowner[r][li] != victim.uid:
                    continue
                forced_waw = False
                rmask_r = s.rmask[r][li]
                wmask_r = s.wmask[r][li]
                if sub_family:
                    spec_r = s.spec[r][li]
                    if sub & spec_r:
                        pass
                    elif self._forced_waw and spec_r & s.wr[r][li]:
                        forced_waw = True
                    else:
                        continue
                elif self._decoupled:
                    if not wmask_r:
                        continue
                elif not (wmask_r or rmask_r):
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
                    victim_read_mask=rmask_r,
                    victim_write_mask=wmask_r,
                    forced_waw=forced_waw,
                    at_commit=True,
                )
                self.sink.on_conflict(rec)
                self._abort(r, time, _CONFLICT_CAUSE[rec.is_false])

    def _commit_invalidate(self, core: int, txn) -> None:
        intern = self.state.intern_map
        for line_addr in sorted(txn.write_lines):
            li = intern.get(line_addr)
            if li is not None:
                self._invalidate_remote_copies(core, li)
