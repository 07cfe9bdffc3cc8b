"""Single-core machine behaviour: hits, misses, latency, versioning."""

import pytest

from repro.errors import ProtocolError
from repro.htm.txn import AbortCause, TxnStatus
from repro.mem.moesi import MoesiState

A = 0x10000  # line-aligned addresses in distinct lines
B = 0x10040
C = 0x10080


class TestTimingModel:
    def test_cold_miss_costs_memory(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        out = d.read(0, A)
        assert out.latency == 210
        assert not out.hit_l1

    def test_second_access_hits_l1(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        out = d.read(0, A)
        assert out.latency == 3
        assert out.hit_l1

    def test_refetch_after_eviction_hits_l2(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        d.commit(0)
        # Evict A by filling its L1 set (same set => stride n_sets*64).
        stride = 512 * 64
        d.begin(0)
        d.read(0, A + stride)
        d.read(0, A + 2 * stride)
        out = d.read(0, A)
        assert out.latency == 15  # L2 hit
        d.commit(0)

    def test_store_to_exclusive_is_silent(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)  # fills E (no other holders)
        out = d.write(0, A)
        # An upgrade probe would cost l1_hit + cache_to_cache // 2.
        assert out.hit_l1
        assert out.latency == d.machine.config.latency.l1_hit

    def test_line_crossing_access_costs_both_lines(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        out = d.read(0, A + 60, 8)  # 4 bytes in A's line, 4 in the next
        assert out.latency == 420  # two cold misses


class TestMoesiViaMachine:
    def test_read_fill_exclusive(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        assert d.machine.mem.l1s[0].lookup(A, touch=False).state is MoesiState.EXCLUSIVE

    def test_second_reader_shares(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        d.commit(0)
        d.begin(1)
        d.read(1, A)
        d.commit(1)
        assert d.machine.mem.l1s[0].lookup(A, touch=False).state is MoesiState.SHARED
        assert d.machine.mem.l1s[1].lookup(A, touch=False).state is MoesiState.SHARED

    def test_reader_demotes_modified_to_owned(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        d.commit(0)
        d.begin(1)
        out = d.read(1, A)
        assert out.latency == 60  # cache-to-cache
        d.commit(1)
        assert d.machine.mem.l1s[0].lookup(A, touch=False).state is MoesiState.OWNED
        assert d.machine.mem.l1s[1].lookup(A, touch=False).state is MoesiState.SHARED

    def test_writer_invalidates_all(self, baseline_driver):
        d = baseline_driver
        for core in (0, 1, 2):
            d.begin(core)
            d.read(core, A)
            d.commit(core)
        d.begin(3)
        d.write(3, A)
        d.commit(3)
        states = d.machine.mem.moesi_states(A)
        assert states[3] is MoesiState.MODIFIED
        assert all(s is MoesiState.INVALID for i, s in enumerate(states) if i != 3)

    def test_global_invariant_maintained(self, baseline_driver):
        from repro.mem.moesi import check_global_invariant

        d = baseline_driver
        for core, addr, w in [
            (0, A, False),
            (1, A, False),
            (2, A, True),
            (0, A, False),
            (1, B, True),
        ]:
            if d.txn(core) is None:
                d.begin(core)
            (d.write if w else d.read)(core, addr)
            check_global_invariant(d.machine.mem.moesi_states(A))
            check_global_invariant(d.machine.mem.moesi_states(B))


class TestVersioning:
    def test_commit_publishes_tokens(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        txn = d.commit(0)
        token = txn.redo[A]
        assert d.machine.mem.mem_read_word(A) == token

    def test_abort_discards_tokens(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        d.abort(0)
        assert d.machine.mem.mem_read_word(A) == 0

    def test_read_own_write_forwarded(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        txn = d.txn(0)
        d.read(0, A)
        # The read must not have observed a foreign token.
        assert A not in txn.observed

    def test_reader_sees_committed_value(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        t0 = d.commit(0)
        d.begin(1)
        d.read(1, A)
        t1 = d.commit(1)
        assert t1.observed[A] == t0.redo[A]

    def test_abort_then_read_sees_old_value(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        t_first = d.commit(0)
        d.begin(0)
        d.write(0, A)
        d.abort(0)
        d.begin(1)
        d.read(1, A)
        t1 = d.commit(1)
        assert t1.observed[A] == t_first.redo[A]


class TestSpecBookkeeping:
    def test_spec_lines_pinned(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        assert d.machine.mem.l1s[0].lookup(A, touch=False).pinned

    def test_commit_unpins(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        d.commit(0)
        assert not d.machine.mem.l1s[0].lookup(A, touch=False).pinned

    def test_commit_clears_spec_table(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        d.write(0, B)
        d.commit(0)
        assert A not in d.machine.spec_tables[0]
        assert B not in d.machine.spec_tables[0]

    def test_abort_drops_written_lines(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.write(0, A)
        d.read(0, B)
        d.abort(0)
        assert d.machine.mem.l1s[0].lookup(A, touch=False) is None
        line_b = d.machine.mem.l1s[0].lookup(B, touch=False)
        assert line_b is not None and line_b.valid  # read lines stay


class TestApiGuards:
    def test_double_begin_rejected(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        with pytest.raises(ProtocolError):
            d.begin(0)

    def test_commit_without_txn_rejected(self, baseline_driver):
        with pytest.raises(ProtocolError):
            baseline_driver.commit(0)

    def test_wrong_core_binding_rejected(self, baseline_machine):
        txn = baseline_machine.new_txn(1, 0, (), 1, 0)
        with pytest.raises(ProtocolError):
            baseline_machine.begin_txn(0, txn)

    def test_non_txn_access_works(self, baseline_driver):
        d = baseline_driver
        out = d.read(0, A)
        assert out.latency == 210


class TestCapacity:
    def test_capacity_abort_on_set_overflow(self, baseline_driver):
        """A transaction touching more same-set lines than associativity
        plus the overflow allowance must capacity-abort."""
        from repro.htm.machine import SPEC_OVERFLOW_WAYS

        d = baseline_driver
        d.begin(0)
        stride = 512 * 64  # same L1 set
        limit = 2 + SPEC_OVERFLOW_WAYS
        outcome = None
        for k in range(limit + 1):
            outcome = d.read(0, A + k * stride)
            if outcome.self_abort is not None:
                break
        assert outcome is not None
        assert outcome.self_abort is AbortCause.CAPACITY
        assert d.machine.active[0] is None
        assert d.machine.stats.aborts_capacity == 1

    def test_within_overflow_no_abort(self, baseline_driver):
        from repro.htm.machine import SPEC_OVERFLOW_WAYS

        d = baseline_driver
        d.begin(0)
        stride = 512 * 64
        for k in range(2 + SPEC_OVERFLOW_WAYS):
            assert d.read(0, A + k * stride).self_abort is None
        d.commit(0)

    def test_user_abort_cause_recorded(self, baseline_driver):
        d = baseline_driver
        d.begin(0)
        d.read(0, A)
        txn = d.abort(0, AbortCause.USER)
        assert txn.status is TxnStatus.ABORTED
        assert txn.abort_cause is AbortCause.USER
        assert d.machine.stats.aborts_user == 1
