"""Transaction-operation record tests."""

import pytest

from repro.htm.ops import OpKind, TxnOp, read_op, work_op, write_op


class TestConstructors:
    def test_read(self):
        op = read_op(0x100, 8)
        assert op.kind is OpKind.READ
        assert not op.is_write
        assert op.is_mem

    def test_write(self):
        op = write_op(0x100, 8)
        assert op.is_write
        assert op.is_mem

    def test_work(self):
        op = work_op(10)
        assert not op.is_mem
        assert op.cycles == 10


class TestValidation:
    def test_zero_size_mem_rejected(self):
        with pytest.raises(ValueError):
            read_op(0, 0)

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            write_op(-4, 8)

    def test_zero_cycle_work_rejected(self):
        with pytest.raises(ValueError):
            work_op(0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            read_op(0, 8).addr = 5  # type: ignore[misc]

    def test_hashable_for_dedup(self):
        assert len({read_op(0, 8), read_op(0, 8), write_op(0, 8)}) == 2


class TestRepresentation:
    """An op is the engine's ``(is_mem, addr, size, is_write, cycles)``
    tuple; the keyword constructor and the named views are unchanged."""

    @pytest.mark.parametrize(
        ("op", "kind", "fields"),
        [
            (read_op(0x40, 8), OpKind.READ, (True, 0x40, 8, False, 0)),
            (write_op(0x44, 4), OpKind.WRITE, (True, 0x44, 4, True, 0)),
            (work_op(7), OpKind.WORK, (False, 0, 0, False, 7)),
        ],
    )
    def test_tuple_layout_and_kind(self, op, kind, fields):
        assert tuple(op) == fields
        assert op.kind is kind
        assert op == TxnOp(kind, addr=op.addr, size=op.size, cycles=op.cycles)
        assert (op.is_mem, op.addr, op.size, op.is_write, op.cycles) == fields

    def test_keyword_constructor_validates(self):
        assert TxnOp(OpKind.WRITE, addr=8, size=4).kind is OpKind.WRITE
        with pytest.raises(ValueError):
            TxnOp(OpKind.READ, addr=0, size=0)
        with pytest.raises(ValueError):
            TxnOp(OpKind.WORK, cycles=0)
        with pytest.raises(ValueError):
            TxnOp("R", addr=0, size=8)  # type: ignore[arg-type]

    def test_repr_names_fields(self):
        assert repr(write_op(0x40, 8)) == (
            "TxnOp(kind=<OpKind.WRITE: 'W'>, addr=64, size=8, cycles=0)"
        )
