"""Conflict classification tests (the Section III taxonomy)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.htm.conflict import ConflictRecord, ConflictType, classify_type
from repro.util.bitops import byte_mask


class TestClassifyType:
    def test_load_always_raw(self):
        # Loads only conflict with speculative writes.
        assert classify_type(False, 0, 0xFF) is ConflictType.RAW
        assert classify_type(False, 0xFF, 0xFF) is ConflictType.RAW

    def test_store_vs_pure_reader_is_war(self):
        assert classify_type(True, 0xFF, 0) is ConflictType.WAR

    def test_store_vs_pure_writer_is_waw(self):
        assert classify_type(True, 0, 0xFF) is ConflictType.WAW

    def test_store_vs_reader_writer_is_war(self):
        # The paper's breakdown keeps WAW at ~0%: victims that read the
        # line at all count as WAR.
        assert classify_type(True, 0xF0, 0x0F) is ConflictType.WAR


def record(req_mask, vr, vw, is_write=True, forced=False):
    return ConflictRecord.detect(
        time=10,
        requester_core=0,
        victim_core=1,
        requester_txn=5,
        victim_txn=6,
        line_addr=0x40,
        line_index=1,
        requester_is_write=is_write,
        requester_mask=req_mask,
        victim_read_mask=vr,
        victim_write_mask=vw,
        forced_waw=forced,
    )


def _union(runs):
    mask = 0
    for offset, size in runs:
        mask |= byte_mask(offset, min(size, 64 - offset))
    return mask


#: Byte masks of a 64-byte line: unions of up to three short runs, so
#: disjoint and overlapping footprints both occur often.
LINE_MASKS = st.lists(
    st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=3
).map(_union)


class TestConflictRecord:
    def test_true_conflict_has_overlap(self):
        rec = record(byte_mask(0, 8), byte_mask(0, 8), 0)
        assert not rec.is_false
        assert rec.overlap_mask == byte_mask(0, 8)

    def test_false_conflict_no_overlap(self):
        rec = record(byte_mask(0, 8), byte_mask(8, 8), 0)
        assert rec.is_false
        assert rec.overlap_mask == 0

    def test_load_ignores_victim_reads_for_overlap(self):
        # A load probing a victim that only READ the same bytes is not a
        # conflict at all architecturally; overlap uses writes only.
        rec = record(byte_mask(0, 8), byte_mask(0, 8), byte_mask(8, 8), is_write=False)
        assert rec.is_false
        assert rec.overlap_mask == 0

    def test_describe_mentions_kind(self):
        assert "FALSE" in record(byte_mask(0, 8), byte_mask(8, 8), 0).describe()
        assert "TRUE" in record(byte_mask(0, 8), byte_mask(0, 8), 0).describe()

    def test_describe_flags_forced(self):
        rec = record(byte_mask(0, 8), 0, byte_mask(8, 8), forced=True)
        assert "forced WAW" in rec.describe()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            record(1, 2, 4).time = 0  # type: ignore[misc]


@given(
    scalars=st.tuples(*[st.integers(-1, 1 << 40)] * 7),
    requester_is_write=st.booleans(),
    requester_mask=LINE_MASKS,
    victim_read_mask=LINE_MASKS,
    victim_write_mask=LINE_MASKS,
    forced_waw=st.booleans(),
    at_commit=st.booleans(),
)
def test_detect_derives_type_and_truth_from_the_masks(scalars, **fields):
    """``detect`` classifies from the direction and the masks alone and
    passes every other field through."""
    names = ("time", "requester_core", "victim_core", "requester_txn",
             "victim_txn", "line_addr", "line_index")
    fields.update(zip(names, scalars))
    rec = ConflictRecord.detect(**fields)
    assert rec.is_false == (rec.overlap_mask == 0)
    assert rec.ctype is classify_type(
        fields["requester_is_write"], fields["victim_read_mask"],
        fields["victim_write_mask"],
    )
    assert {name: getattr(rec, name) for name in fields} == fields


class TestWawRawBoundary:
    """Mixed read+write victim masks: the WAW/WAR boundary is "did the
    victim read the line at all", never mask overlap or ordering."""

    def test_disjoint_read_and_write_bytes_is_war(self):
        # Victim wrote bytes 0-3 and read bytes 8-11: the read makes any
        # store against it read-dependent, even though the masks are
        # disjoint.
        assert classify_type(True, 0x0F00, 0x000F) is ConflictType.WAR

    def test_single_read_byte_flips_waw_to_war(self):
        assert classify_type(True, 0, 0xFFFF) is ConflictType.WAW
        assert classify_type(True, 0x1, 0xFFFF) is ConflictType.WAR

    def test_overlapping_read_write_bytes_is_war(self):
        # Read-then-write of the same bytes is still read-dependent.
        assert classify_type(True, 0xFF, 0xFF) is ConflictType.WAR

    def test_load_against_mixed_mask_stays_raw(self):
        assert classify_type(False, 0x0F, 0xF0) is ConflictType.RAW
        assert classify_type(False, 0xFF, 0xFF) is ConflictType.RAW

    def test_empty_victim_write_mask_is_war(self):
        # A pure reader can never yield WAW, whatever the store touches.
        assert classify_type(True, 0x1, 0) is ConflictType.WAR


class TestWawRawBoundaryOnMachine:
    """The same boundary observed end-to-end through a machine probe."""

    def _conflict(self, victim_reads: bool, victim_writes: bool):
        from repro.config import DetectionScheme, default_system
        from tests.conftest import TxnDriver, make_machine

        d = TxnDriver(make_machine(default_system(DetectionScheme.ASF_BASELINE)))
        line = 0xA0000
        d.begin(0)
        if victim_reads:
            d.read(0, line + 8, 4)
        if victim_writes:
            d.write(0, line, 4)
        d.begin(1)
        out = d.write(1, line + 32, 4)
        assert len(out.conflicts) == 1
        return out.conflicts[0]

    def test_pure_writer_victim_records_waw(self):
        rec = self._conflict(victim_reads=False, victim_writes=True)
        assert rec.ctype is ConflictType.WAW

    def test_mixed_victim_records_war(self):
        # Victim read one word and wrote another (disjoint bytes): the
        # probe against its line must classify WAR, not WAW.
        rec = self._conflict(victim_reads=True, victim_writes=True)
        assert rec.ctype is ConflictType.WAR
        assert rec.victim_read_mask and rec.victim_write_mask
        assert rec.victim_read_mask & rec.victim_write_mask == 0
