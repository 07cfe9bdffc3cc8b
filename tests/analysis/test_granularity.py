"""Open-loop granularity replay tests (the Figure 8 method)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.granularity import (
    conflict_survives,
    reduction_by_granularity,
    surviving_false,
)
from repro.htm.conflict import ConflictRecord, ConflictType
from repro.util.bitops import byte_mask


def rec(req_mask, vr=0, vw=0, is_write=True):
    victim = vw | (vr if is_write else 0)
    return ConflictRecord(
        time=0,
        requester_core=0,
        victim_core=1,
        requester_txn=1,
        victim_txn=2,
        line_addr=0,
        line_index=0,
        ctype=ConflictType.WAR if is_write else ConflictType.RAW,
        is_false=(req_mask & victim) == 0,
        requester_is_write=is_write,
        requester_mask=req_mask,
        victim_read_mask=vr,
        victim_write_mask=vw,
        forced_waw=False,
    )


class TestConflictSurvives:
    def test_true_conflict_survives_everywhere(self):
        r = rec(byte_mask(0, 8), vr=byte_mask(0, 8))
        for n in (1, 2, 4, 8, 16, 64):
            assert conflict_survives(r, n)

    def test_cross_half_false_dies_at_two(self):
        r = rec(byte_mask(0, 8), vr=byte_mask(48, 8))
        assert conflict_survives(r, 1)
        assert not conflict_survives(r, 2)

    def test_same_subblock_false_needs_fine_grain(self):
        r = rec(byte_mask(0, 8), vr=byte_mask(8, 8))
        assert conflict_survives(r, 4)  # both in sub-block 0 at 16B
        assert not conflict_survives(r, 8)  # separated at 8B

    def test_load_ignores_victim_reads(self):
        r = rec(byte_mask(0, 8), vr=byte_mask(0, 8), vw=0, is_write=False)
        assert not conflict_survives(r, 1)  # no speculative write at all

    def test_forced_waw_option(self):
        r = rec(byte_mask(0, 8), vw=byte_mask(48, 8))
        assert not conflict_survives(r, 4, include_forced_waw=False)
        assert conflict_survives(r, 4, include_forced_waw=True)


class TestReduction:
    def test_empty_records(self):
        assert reduction_by_granularity([]) == {2: 0.0, 4: 0.0, 8: 0.0, 16: 0.0}

    def test_full_elimination_at_byte_granularity(self):
        records = [
            rec(byte_mask(0, 8), vr=byte_mask(8, 8)),
            rec(byte_mask(16, 8), vr=byte_mask(32, 8)),
        ]
        out = reduction_by_granularity(records, (64,))
        assert out[64] == 1.0

    def test_true_conflicts_ignored(self):
        records = [rec(byte_mask(0, 8), vr=byte_mask(0, 8))]
        out = reduction_by_granularity(records, (4,))
        assert out[4] == 0.0  # no false conflicts to reduce

    def test_partial_reduction(self):
        records = [
            rec(byte_mask(0, 8), vr=byte_mask(8, 8)),  # same 16B sub-block
            rec(byte_mask(0, 8), vr=byte_mask(48, 8)),  # far apart
        ]
        out = reduction_by_granularity(records, (4,))
        assert out[4] == 0.5

    def test_surviving_false_counts(self):
        records = [
            rec(byte_mask(0, 8), vr=byte_mask(8, 8)),
            rec(byte_mask(0, 8), vr=byte_mask(0, 8)),  # true: not counted
        ]
        assert surviving_false(records, 4) == 1
        assert surviving_false(records, 8) == 0


_accesses = st.integers(0, 63).flatmap(
    lambda off: st.tuples(st.just(off), st.integers(1, 64 - off))
)


@given(st.lists(st.tuples(_accesses, _accesses), min_size=1, max_size=20))
def test_reduction_monotone_in_granularity(pairs):
    """More sub-blocks never reduce fewer false conflicts — Figure 8's
    curves are monotone by construction."""
    records = [rec(byte_mask(*a), vr=byte_mask(*b)) for a, b in pairs]
    out = reduction_by_granularity(records, (1, 2, 4, 8, 16, 32, 64))
    values = [out[n] for n in (1, 2, 4, 8, 16, 32, 64)]
    assert values == sorted(values)
    assert out[64] == 1.0 or all(not r.is_false for r in records)
