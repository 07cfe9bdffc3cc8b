"""Table I encoding and single-sub-block transition tests."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.subblock import SubblockDetector
from repro.core.subblock_state import (
    SubblockState,
    TABLE1_ROWS,
    decode_state,
    encode_state,
    on_commit_or_abort,
    on_local_read,
    on_local_write,
    on_piggyback,
    states_of,
)
from repro.errors import ProtocolError
from repro.htm.specstate import SpecLineState


class TestTable1:
    def test_exact_rows(self):
        assert TABLE1_ROWS == (
            (0, 0, "Non-speculate"),
            (0, 1, "Dirty"),
            (1, 0, "Speculative Read (S-RD)"),
            (1, 1, "Speculative Write (S-WR)"),
        )

    def test_encode_decode_roundtrip(self):
        for state in SubblockState:
            assert decode_state(*encode_state(state)) is state

    def test_encoding_values(self):
        assert encode_state(SubblockState.NON_SPECULATIVE) == (0, 0)
        assert encode_state(SubblockState.DIRTY) == (0, 1)
        assert encode_state(SubblockState.S_RD) == (1, 0)
        assert encode_state(SubblockState.S_WR) == (1, 1)

    def test_str_matches_table(self):
        names = {str(s) for s in SubblockState}
        assert names == {row[2] for row in TABLE1_ROWS}


class TestTransitions:
    def test_read_from_nonspec(self):
        assert on_local_read(SubblockState.NON_SPECULATIVE) is SubblockState.S_RD

    def test_read_keeps_swr(self):
        assert on_local_read(SubblockState.S_WR) is SubblockState.S_WR

    def test_read_keeps_srd(self):
        assert on_local_read(SubblockState.S_RD) is SubblockState.S_RD

    def test_read_of_dirty_forbidden(self):
        with pytest.raises(ProtocolError):
            on_local_read(SubblockState.DIRTY)

    def test_write_upgrades(self):
        assert on_local_write(SubblockState.NON_SPECULATIVE) is SubblockState.S_WR
        assert on_local_write(SubblockState.S_RD) is SubblockState.S_WR
        assert on_local_write(SubblockState.S_WR) is SubblockState.S_WR

    def test_write_of_dirty_forbidden(self):
        with pytest.raises(ProtocolError):
            on_local_write(SubblockState.DIRTY)

    def test_piggyback_marks_dirty(self):
        assert on_piggyback(SubblockState.NON_SPECULATIVE) is SubblockState.DIRTY
        assert on_piggyback(SubblockState.DIRTY) is SubblockState.DIRTY

    def test_piggyback_overlapping_own_spec_forbidden(self):
        with pytest.raises(ProtocolError):
            on_piggyback(SubblockState.S_RD)
        with pytest.raises(ProtocolError):
            on_piggyback(SubblockState.S_WR)

    def test_gang_clear_preserves_dirty(self):
        assert on_commit_or_abort(SubblockState.DIRTY) is SubblockState.DIRTY
        assert (
            on_commit_or_abort(SubblockState.S_WR) is SubblockState.NON_SPECULATIVE
        )
        assert (
            on_commit_or_abort(SubblockState.S_RD) is SubblockState.NON_SPECULATIVE
        )


class TestStatesOf:
    def test_packed_view(self):
        st = SpecLineState(0)
        st.spec_bits = 0b1010  # sub-blocks 1 and 3 speculative
        st.wr_bits = 0b1001  # sub-block 3 S-WR, sub-block 0 dirty
        assert states_of(st, 4) == [
            SubblockState.DIRTY,
            SubblockState.S_RD,
            SubblockState.NON_SPECULATIVE,
            SubblockState.S_WR,
        ]

    def test_derived_bit_properties(self):
        st = SpecLineState(0)
        st.spec_bits = 0b1010
        st.wr_bits = 0b1001
        assert st.dirty_bits == 0b0001
        assert st.swr_bits == 0b1000
        assert st.srd_bits == 0b0010
        assert st.any_spec
        assert st.any_dirty


LINE = 64


@st.composite
def lines(draw):
    """A sub-block count and the Table I state of each sub-block."""
    n = draw(st.sampled_from((1, 2, 4, 8, 16)))
    states = draw(st.lists(st.sampled_from(list(SubblockState)), min_size=n, max_size=n))
    return n, states


@st.composite
def access_masks(draw, n, states):
    """A nonempty byte mask that touches no Dirty sub-block: the machine
    re-probes before it reads or writes one (Section IV-C)."""
    size = LINE // n
    mask = 0
    for j, state in enumerate(states):
        if state is not SubblockState.DIRTY:
            mask |= draw(st.integers(0, (1 << size) - 1)) << (j * size)
    assume(mask)
    return mask


def packed(states):
    line = SpecLineState(0)
    for j, state in enumerate(states):
        line.spec_bits |= state.spec << j
        line.wr_bits |= state.wr << j
    return line


class TestDetectorFollowsTable1:
    """The detector's vectorised bit updates give, per sub-block, exactly
    the scalar transition functions above (protocol-valid inputs only)."""

    @pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
    @given(data=st.data())
    def test_local_access(self, is_write, data):
        n, before = data.draw(lines())
        mask = data.draw(access_masks(n, before))
        line = packed(before)
        det = SubblockDetector(LINE, n)
        (det.record_write if is_write else det.record_read)(line, mask)
        step = on_local_write if is_write else on_local_read
        size = LINE // n
        touched = [(mask >> (j * size)) & ((1 << size) - 1) for j in range(n)]
        assert states_of(line, n) == [
            step(state) if hit else state for state, hit in zip(before, touched)
        ]

    @given(data=st.data())
    def test_fill_piggyback(self, data):
        n, before = data.draw(lines())
        line = packed(before)
        # A remote S-WR overlapping our own speculation conflicts at probe
        # time, so piggy-back bits never cover a speculative sub-block.
        piggy = data.draw(st.integers(0, (1 << n) - 1)) & ~line.spec_bits
        SubblockDetector(LINE, n).apply_fill_piggyback(line, piggy)
        # Fresh data clears Dirty where no responder reports a write.
        assert states_of(line, n) == [
            on_piggyback(state) if (piggy >> j) & 1
            else state if state.spec
            else SubblockState.NON_SPECULATIVE
            for j, state in enumerate(before)
        ]

    @given(lines())
    def test_commit_or_abort(self, line_states):
        n, before = line_states
        line = packed(before)
        SubblockDetector(LINE, n).clear_spec(line)
        assert states_of(line, n) == [on_commit_or_abort(s) for s in before]
