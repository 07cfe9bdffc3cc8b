"""Traced data-structure tests: real invariants AND valid traces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.htm.ops import OpKind
from repro.workloads.allocator import HeapAllocator
from repro.workloads.structures.rbtree import NODE_BYTES, TracedRbTree


def tree():
    return TracedRbTree(HeapAllocator())


class TestRbTreeStructure:
    def test_empty_invariants(self):
        tree().check_invariants()

    def test_sorted_iteration(self):
        t = tree()
        for k in (5, 1, 9, 3, 7):
            t.insert(k)
        assert t.keys() == [1, 3, 5, 7, 9]

    def test_duplicate_insert_updates(self):
        t = tree()
        t.insert(5)
        t.insert(5)
        assert t.size == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    def test_invariants_after_random_inserts(self, keys):
        t = tree()
        for k in keys:
            t.insert(k)
            t.check_invariants()
        assert t.keys() == sorted(set(keys))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300, unique=True))
    def test_balanced_height(self, keys):
        """Red-black trees bound the search-path length logarithmically:
        lookup traces must stay short."""
        import math

        t = tree()
        for k in keys:
            t.insert(k)
        ops, addr = t.lookup(keys[-1])
        assert addr is not None
        # <= 2*log2(n+1) node visits, ~2 reads per visit + value read.
        limit = 2 * (2 * math.log2(len(keys) + 1) + 1) + 1
        assert len(ops) <= limit


class TestRbTreeTraces:
    def test_lookup_trace_is_reads_only(self):
        t = tree()
        for k in range(16):
            t.insert(k)
        ops, _ = t.lookup(7)
        assert ops
        assert all(op.kind is OpKind.READ for op in ops)

    def test_update_ends_with_value_write(self):
        t = tree()
        t.insert(4)
        ops = t.update_value(4)
        assert ops[-1].kind is OpKind.WRITE
        assert ops[-1].size == 8

    def test_update_missing_key_rejected(self):
        with pytest.raises(WorkloadError):
            tree().update_value(1)

    def test_trace_addresses_belong_to_nodes(self):
        t = tree()
        for k in range(64):
            t.insert(k)
        node_starts = set(t.node_addrs())
        ops, _ = t.lookup(33)
        for op in ops:
            base = op.addr - (op.addr % NODE_BYTES)
            assert base in node_starts

    def test_nodes_pack_two_per_line(self):
        t = tree()
        for k in range(8):
            t.insert(k)
        addrs = sorted(t.node_addrs())
        lines = {a // 64 for a in addrs}
        assert len(lines) <= (len(addrs) + 1) // 2

    def test_insert_trace_contains_link_write(self):
        t = tree()
        t.insert(10)
        ops = t.insert(5)
        assert any(op.kind is OpKind.WRITE for op in ops)

    def test_root_path_shared_across_lookups(self):
        """Every lookup traverses the root — the hot-line phenomenon."""
        t = tree()
        for k in range(128):
            t.insert(k)
        root_addr = t.root.addr
        for key in (0, 64, 127):
            ops, _ = t.lookup(key)
            assert any(
                op.addr - (op.addr % NODE_BYTES) == root_addr for op in ops
            )

