"""Set-associative cache with LRU replacement and line pinning.

One :class:`SetAssocCache` instance models each cache level.  The L1s carry
MOESI state and a word-granular data snapshot per line (ASF buffers
speculative data in L1 — lazy versioning); L2/L3 are presence/latency
models and ignore the data payload.

Speculative lines are *pinned*: evicting one would silently drop
transactional state, so the HTM layer pins lines it marks speculative and
the replacement policy refuses to choose them as victims.  A fill into a
set whose every way is pinned reports failure, which the engine turns into
a capacity abort (ASF is a best-effort HTM).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import ConfigError, ProtocolError
from repro.mem.moesi import MoesiState

__all__ = ["CacheLine", "FillResult", "SetAssocCache"]

#: What ``_set_of`` returns for an unused or empty set: no lines, read-only.
_UNUSED_SET = MappingProxyType({})


@dataclass(slots=True)
class CacheLine:
    """One resident cache line.

    ``data`` is a list of 32-bit word *tokens* (see
    :mod:`repro.htm.versioning`); only L1s populate it.  ``pinned`` marks
    lines holding speculative HTM state.
    """

    addr: int
    state: MoesiState = MoesiState.INVALID
    data: list[int] | None = None
    pinned: bool = False

    @property
    def valid(self) -> bool:
        return self.state is not MoesiState.INVALID


@dataclass(slots=True)
class FillResult:
    """Outcome of :meth:`SetAssocCache.fill`."""

    line: CacheLine | None
    evicted: CacheLine | None = None
    capacity_blocked: bool = False

    @property
    def ok(self) -> bool:
        return self.line is not None


class SetAssocCache:
    """LRU set-associative cache.

    Each set is an insertion-ordered dict ``{line_addr: CacheLine}``,
    created by the first fill that maps to it; the first entry is least
    recently used.  Lookups that hit refresh recency.
    Invalid lines are kept resident when they still carry pinned HTM state
    (the sub-blocking scheme checks conflicts on invalidated lines too);
    otherwise invalidation removes them.
    """

    __slots__ = ("n_sets", "associativity", "line_size", "_sets", "name", "observer")

    def __init__(
        self, n_sets: int, associativity: int, line_size: int, name: str = "cache"
    ) -> None:
        if n_sets <= 0 or n_sets & (n_sets - 1):
            raise ConfigError(f"n_sets must be a power of two, got {n_sets}")
        if associativity <= 0:
            raise ConfigError(f"associativity must be positive, got {associativity}")
        self.n_sets = n_sets
        self.associativity = associativity
        self.line_size = line_size
        self.name = name
        self._sets: list[dict[int, CacheLine] | None] = [None] * n_sets
        #: Optional ``callback(line_addr, valid)`` fired on every
        #: valid<->invalid residency transition.  The memory system uses it
        #: to maintain the per-line sharer index that lets probes skip
        #: caches that cannot possibly respond.
        self.observer = None

    @classmethod
    def from_config(cls, cfg, name: str = "cache") -> "SetAssocCache":
        """Build from a :class:`repro.config.CacheConfig`."""
        return cls(cfg.n_sets, cfg.associativity, cfg.line_size, name=name)

    # -- internals -----------------------------------------------------------

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_size) & (self.n_sets - 1)

    def _set_of(self, line_addr: int) -> dict[int, CacheLine]:
        return self._sets[self._set_index(line_addr)] or _UNUSED_SET

    # -- queries ---------------------------------------------------------------

    def lookup(self, line_addr: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line (valid or retained-invalid) or None.

        ``touch=True`` refreshes LRU recency on a valid hit.
        """
        s = self._set_of(line_addr)
        line = s.get(line_addr)
        if line is not None and touch and line.valid:
            # Move to MRU position.
            del s[line_addr]
            s[line_addr] = line
        return line

    def contains_valid(self, line_addr: int) -> bool:
        line = self._set_of(line_addr).get(line_addr)
        return line is not None and line.valid

    def resident_lines(self) -> list[CacheLine]:
        """All resident lines (valid and retained-invalid), LRU→MRU per set."""
        out: list[CacheLine] = []
        for s in filter(None, self._sets):
            out.extend(s.values())
        return out

    def set_occupancy(self, line_addr: int) -> int:
        """Number of resident lines in the set that would hold ``line_addr``."""
        return len(self._set_of(line_addr))

    # -- mutations ---------------------------------------------------------------

    def fill(self, line_addr: int, state: MoesiState, data: list[int] | None) -> FillResult:
        """Install a line, evicting the LRU unpinned line if the set is full.

        Returns ``capacity_blocked=True`` without modifying anything when
        every resident line in the set is pinned — the caller turns that
        into a transactional capacity abort.
        """
        if state is MoesiState.INVALID:
            raise ProtocolError("cannot fill a line in INVALID state")
        if line_addr % self.line_size:
            raise ProtocolError(f"unaligned line address {line_addr:#x}")
        idx = self._set_index(line_addr)
        s = self._sets[idx]
        if s is None:
            s = self._sets[idx] = {}
        existing = s.get(line_addr)
        if existing is not None:
            # Re-fill of a resident (possibly retained-invalid) line.
            was_valid = existing.valid
            existing.state = state
            if data is not None:
                existing.data = data
            del s[line_addr]
            s[line_addr] = existing
            if not was_valid and self.observer is not None:
                self.observer(line_addr, True)
            return FillResult(line=existing)
        evicted: CacheLine | None = None
        if len(s) >= self.associativity:
            victim_addr = next(
                (a for a, ln in s.items() if not ln.pinned), None
            )
            if victim_addr is None:
                return FillResult(line=None, capacity_blocked=True)
            evicted = s.pop(victim_addr)
        line = CacheLine(addr=line_addr, state=state, data=data)
        s[line_addr] = line
        if self.observer is not None:
            if evicted is not None and evicted.valid:
                self.observer(evicted.addr, False)
            self.observer(line_addr, True)
        return FillResult(line=line, evicted=evicted)

    def invalidate(self, line_addr: int, retain: bool = False) -> CacheLine | None:
        """Invalidate a resident line.

        ``retain=True`` keeps the (now invalid) line resident so pinned
        speculative state survives — the sub-blocking scheme's
        "speculative information stays inside the invalidated cache line".
        Returns the affected line, or None if not resident.
        """
        s = self._set_of(line_addr)
        line = s.get(line_addr)
        if line is None:
            return None
        was_valid = line.valid
        line.state = MoesiState.INVALID
        if not retain:
            del s[line_addr]
        if was_valid and self.observer is not None:
            self.observer(line_addr, False)
        return line

    def drop(self, line_addr: int) -> None:
        """Remove a line outright (used when clearing retained spec lines)."""
        s = self._sets[self._set_index(line_addr)]
        line = s.pop(line_addr, None) if s else None
        if line is not None and line.valid and self.observer is not None:
            self.observer(line_addr, False)

    def pin(self, line_addr: int) -> None:
        line = self._set_of(line_addr).get(line_addr)
        if line is None:
            raise ProtocolError(f"cannot pin non-resident line {line_addr:#x}")
        line.pinned = True

    def unpin(self, line_addr: int) -> None:
        line = self._set_of(line_addr).get(line_addr)
        if line is not None:
            line.pinned = False

    def pinned_count(self) -> int:
        return sum(1 for ln in self.resident_lines() if ln.pinned)

    def check_invariants(self) -> None:
        """Structural sanity: set sizing, address-to-set mapping, alignment."""
        for idx, s in enumerate(self._sets):
            if not s:
                continue
            if len(s) > self.associativity:
                raise ProtocolError(
                    f"{self.name} set {idx} holds {len(s)} lines "
                    f"(associativity {self.associativity})"
                )
            for addr, line in s.items():
                if addr != line.addr:
                    raise ProtocolError(f"{self.name}: key/addr mismatch at {addr:#x}")
                if addr % self.line_size:
                    raise ProtocolError(f"{self.name}: unaligned resident {addr:#x}")
                if self._set_index(addr) != idx:
                    raise ProtocolError(f"{self.name}: line {addr:#x} in wrong set")
