"""Model-based property test: SetAssocCache vs a naive reference LRU.

The reference model is an obviously correct per-set list implementation;
hypothesis drives both with the same operation stream and the resident
lines (in ``resident_lines()`` order: ascending set, LRU to MRU within a
set) plus eviction choices must agree exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import SetAssocCache
from repro.mem.moesi import MoesiState

N_SETS = 4
ASSOC = 2
LINE = 64


class ReferenceLru:
    """Per-set LRU list; no pinning (pinning covered elsewhere)."""

    def __init__(self):
        self.sets = [[] for _ in range(N_SETS)]  # MRU at the end

    def _set(self, addr):
        return self.sets[(addr // LINE) % N_SETS]

    def lookup(self, addr):
        s = self._set(addr)
        if addr in s:
            s.remove(addr)
            s.append(addr)
            return True
        return False

    def fill(self, addr):
        s = self._set(addr)
        evicted = None
        if addr in s:
            s.remove(addr)
        elif len(s) >= ASSOC:
            evicted = s.pop(0)
        s.append(addr)
        return evicted

    def invalidate(self, addr):
        s = self._set(addr)
        if addr in s:
            s.remove(addr)

    drop = invalidate

    def resident(self):
        return [a for s in self.sets for a in s]


@st.composite
def op_streams(draw):
    ops = []
    for _ in range(draw(st.integers(1, 80))):
        kind = draw(st.sampled_from(["fill", "lookup", "invalidate", "drop"]))
        addr = draw(st.integers(0, 15)) * LINE
        ops.append((kind, addr))
    return ops


@settings(max_examples=150, deadline=None)
@given(op_streams())
def test_cache_matches_reference_lru(ops):
    cache = SetAssocCache(n_sets=N_SETS, associativity=ASSOC, line_size=LINE)
    ref = ReferenceLru()
    for kind, addr in ops:
        if kind == "fill":
            result = cache.fill(addr, MoesiState.SHARED, None)
            expected_evicted = ref.fill(addr)
            got_evicted = result.evicted.addr if result.evicted else None
            assert got_evicted == expected_evicted, (kind, addr)
        elif kind == "lookup":
            got = cache.lookup(addr) is not None
            assert got == ref.lookup(addr), (kind, addr)
        elif kind == "drop":
            cache.drop(addr)
            ref.drop(addr)
        else:
            cache.invalidate(addr)
            ref.invalidate(addr)
        assert all(ln.valid for ln in cache.resident_lines())
        assert [ln.addr for ln in cache.resident_lines()] == ref.resident()
        cache.check_invariants()
