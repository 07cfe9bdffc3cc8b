"""Flat struct-of-arrays state for the flat machine kernel.

The object model spends most of the hot path chasing pointers: a dict
lookup to a :class:`~repro.mem.cache.CacheLine`, an attribute read for the
MOESI enum, another dict hop to the per-core :class:`SpecLineState`, then
method dispatch into the detector.  :class:`SimState` flattens all of that
into parallel arrays indexed by a dense *line index* (``li``) assigned on
first touch:

* per-line globals — ``line_addrs``, precomputed set indices for each
  cache level, the valid-copy ``holders`` core bitmask, the supply-capable
  ``owner`` core, and ``spec_mask`` (which cores hold speculative side
  state; the flat mirror of the object kernel's ``spec_holders``);
* per-core planes (``plane[core][li]``) — MOESI state codes, line data,
  pin flags, byte-granular read/write masks, packed sub-block SPEC/WR/RR
  bit-planes (the :mod:`repro.util.bitops` masks, one word per line), and
  the owning transaction uid.

Planes are plain Python lists because CPython indexes them in ~11 ns,
which no array library's scalar read matches.

Residency and LRU order live in per-set insertion-ordered dicts exactly
like :class:`~repro.mem.cache.SetAssocCache` (first key = LRU victim), so
eviction decisions are bit-identical between kernels.  A set's dict is
created on every core when :meth:`SimState.add_line` interns the first
line that maps to it, so set-up costs what a run touches.

Every per-line list (except ``line_addrs``, the intern table itself) and
every per-core plane grows in chunks of :data:`GROW_LINES` pre-filled
lines, so interning a line writes a few slots instead of appending to
each plane on each core.  Slots past ``n_lines`` hold the fresh-line
values and are never read by the kernel.

Maintenance invariant: whenever a line leaves a core's L1 (eviction,
drop), its ``moesi`` code is reset to 0 and ``data``/``pinned`` cleared,
so ``moesi[core][li] != 0`` is equivalent to "resident and valid" and no
plane read needs a residency pre-check.
"""

from __future__ import annotations

from repro.config import SystemConfig

__all__ = [
    "MOESI_E",
    "MOESI_I",
    "MOESI_M",
    "MOESI_O",
    "MOESI_S",
    "SimState",
]

# MOESI states as dense codes, ordered so the hot predicates are single
# comparisons: valid == (code != I), supplies_data == (code >= O),
# can_write_silently == (code >= E).
MOESI_I = 0
MOESI_S = 1
MOESI_O = 2
MOESI_E = 3
MOESI_M = 4

#: code -> MoesiState.name, for debugging and the coherence audit.
MOESI_NAMES = ("INVALID", "SHARED", "OWNED", "EXCLUSIVE", "MODIFIED")

#: Non-invalidating probe transition table indexed by code:
#: M -> O, E -> S, others unchanged.
NON_INVALIDATING_NEXT = (MOESI_I, MOESI_S, MOESI_O, MOESI_S, MOESI_O)

#: Lines by which every plane grows once the interned lines fill it.
GROW_LINES = 256

#: ``(plane name, fresh-line value)`` for every chunk-grown per-line list
#: and per-core plane.
_PER_LINE = (
    ("set1", 0), ("set2", 0), ("set3", 0),
    ("holders", 0), ("owner", -1), ("spec_mask", 0),
)
_PER_CORE = (
    ("moesi", MOESI_I), ("data", None), ("pinned", 0), ("rmask", 0),
    ("wmask", 0), ("spec", 0), ("wr", 0), ("rr", 0), ("sowner", -1),
)


class SimState:
    """Preallocated flat arrays for every hot per-line/per-core quantity."""

    __slots__ = (
        "n_cores",
        "line_size",
        "l1_assoc",
        "l2_assoc",
        "l3_assoc",
        "l1_nsets",
        "l2_nsets",
        "l3_nsets",
        "capacity",
        "intern_map",
        "line_addrs",
        "set1",
        "set2",
        "set3",
        "holders",
        "owner",
        "spec_mask",
        "moesi",
        "data",
        "pinned",
        "rmask",
        "wmask",
        "spec",
        "wr",
        "rr",
        "sowner",
        "l1_sets",
        "l2_sets",
        "l3_sets",
        "txn_read_lines",
        "txn_write_lines",
        "txn_redo",
        "txn_observed",
    )

    def __init__(self, config: SystemConfig) -> None:
        n = config.n_cores
        self.n_cores = n
        self.line_size = config.line_size
        self.l1_assoc = config.l1.associativity
        self.l2_assoc = config.l2.associativity
        self.l3_assoc = config.l3.associativity
        self.l1_nsets = config.l1.n_sets
        self.l2_nsets = config.l2.n_sets
        self.l3_nsets = config.l3.n_sets

        # Lines every plane below holds (filled, interned or not).
        self.capacity = 0
        # line_addr -> dense index, assigned on first touch.
        self.intern_map: dict[int, int] = {}
        # per-line globals
        self.line_addrs: list[int] = []
        self.set1: list[int] = []
        self.set2: list[int] = []
        self.set3: list[int] = []
        self.holders: list[int] = []
        self.owner: list[int] = []
        self.spec_mask: list[int] = []
        # per-core planes, [core][li]
        self.moesi: list[list[int]] = [[] for _ in range(n)]
        self.data: list[list[list[int] | None]] = [[] for _ in range(n)]
        self.pinned: list[list[int]] = [[] for _ in range(n)]
        self.rmask: list[list[int]] = [[] for _ in range(n)]
        self.wmask: list[list[int]] = [[] for _ in range(n)]
        self.spec: list[list[int]] = [[] for _ in range(n)]
        self.wr: list[list[int]] = [[] for _ in range(n)]
        self.rr: list[list[int]] = [[] for _ in range(n)]
        self.sowner: list[list[int]] = [[] for _ in range(n)]
        # residency + LRU: insertion-ordered per-set dicts {li: None},
        # first key = LRU victim candidate (same discipline as
        # SetAssocCache so eviction order is bit-identical).  None until
        # add_line interns a line that maps to the set, on every core.
        self.l1_sets = [[None] * self.l1_nsets for _ in range(n)]
        self.l2_sets = [[None] * self.l2_nsets for _ in range(n)]
        self.l3_sets = [[None] * self.l3_nsets for _ in range(n)]
        # Per-core transaction hot-state planes (the flat-txn runtime):
        # the speculative read/write line sets, the redo log and the
        # first-read observations of the core's *current* attempt.  The
        # flat kernel's per-core ``Transaction`` views alias these
        # containers and clear them in place on every new attempt, so the
        # per-attempt dataclass allocation (and its four container
        # allocations) disappears from the retry hot path.
        self.txn_read_lines: list[set[int]] = [set() for _ in range(n)]
        self.txn_write_lines: list[set[int]] = [set() for _ in range(n)]
        self.txn_redo: list[dict[int, int]] = [{} for _ in range(n)]
        self.txn_observed: list[dict[int, int]] = [{} for _ in range(n)]

    @property
    def n_lines(self) -> int:
        return len(self.line_addrs)

    def add_line(self, line_addr: int) -> int:
        """Intern a line address: record its set indices and create its sets."""
        li = len(self.line_addrs)
        if li == self.capacity:
            self._grow()
        self.intern_map[line_addr] = li
        self.line_addrs.append(line_addr)
        lineno = line_addr // self.line_size
        for sets, index, nsets in (
            (self.l1_sets, self.set1, self.l1_nsets),
            (self.l2_sets, self.set2, self.l2_nsets),
            (self.l3_sets, self.set3, self.l3_nsets),
        ):
            idx = index[li] = lineno & (nsets - 1)
            if sets[0][idx] is None:
                # First line of this set: create its dict on every core.
                for core_sets in sets:
                    core_sets[idx] = {}
        return li

    def _grow(self) -> None:
        """Append :data:`GROW_LINES` fresh-line slots to every plane."""
        for name, fresh in _PER_LINE:
            getattr(self, name).extend([fresh] * GROW_LINES)
        for name, fresh in _PER_CORE:
            chunk = [fresh] * GROW_LINES
            for row in getattr(self, name):
                row.extend(chunk)
        self.capacity += GROW_LINES

    # ---------------------------------------------------------------- audit

    def audit_coherence(self) -> None:
        """Check every interned line's MOESI copies and holders/owner indexes.

        Each line's per-core codes map through :data:`MOESI_NAMES` to the
        states :func:`~repro.mem.moesi.check_global_invariant` checks; then
        ``holders`` must name exactly the cores with a valid copy, and a
        recorded ``owner`` a supply-capable one.  Raises
        :class:`~repro.errors.ProtocolError` naming the first bad line.
        For end-of-run audits in the parity and fuzz suites.
        """
        from repro.errors import ProtocolError
        from repro.mem.moesi import MoesiState, check_global_invariant

        states = [MoesiState[name] for name in MOESI_NAMES]
        for li, addr in enumerate(self.line_addrs):
            codes = [row[li] for row in self.moesi]
            try:
                check_global_invariant([states[code] for code in codes])
            except ProtocolError as exc:
                raise ProtocolError(f"line {addr:#x}: {exc}") from None
            valid = sum(1 << core for core, code in enumerate(codes) if code != MOESI_I)
            if self.holders[li] != valid:
                raise ProtocolError(f"line {addr:#x}: holders bitmask out of sync")
            owner = self.owner[li]
            if owner >= 0 and codes[owner] < MOESI_O:
                raise ProtocolError(
                    f"line {addr:#x}: owner pointer at non-supplying copy"
                )
