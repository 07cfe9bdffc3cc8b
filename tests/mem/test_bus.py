"""Snoop-bus tests: probe fan-out order."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.bus import SnoopBus


class TestSnoopOrder:
    def test_excludes_requester(self):
        bus = SnoopBus(4)
        for r in range(4):
            assert r not in bus.snoop_order(r)

    def test_covers_all_other_cores(self):
        bus = SnoopBus(8)
        assert sorted(bus.snoop_order(3)) == [0, 1, 2, 4, 5, 6, 7]

    def test_round_robin_from_requester(self):
        bus = SnoopBus(4)
        assert bus.snoop_order(2) == [3, 0, 1]

    def test_single_core_empty(self):
        assert SnoopBus(1).snoop_order(0) == []

    @given(st.integers(2, 16), st.integers(0, 15))
    def test_order_is_permutation(self, n, r):
        if r >= n:
            r %= n
        order = SnoopBus(n).snoop_order(r)
        assert sorted(order) == [c for c in range(n) if c != r]
