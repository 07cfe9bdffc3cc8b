"""Transaction operations.

A workload describes each transaction as a fixed list of :class:`TxnOp`
values — loads, stores and pure-computation gaps.  The list is *replayed
unchanged on every retry* (transactions are deterministic code), which is
what lets two detection schemes be compared on identical programs.

A :class:`TxnOp` is the engine's own per-op value: an immutable
``(is_mem, addr, size, is_write, cycles)`` tuple, validated once when it
is built, that the engine's op loop unpacks directly.  ``kind`` and the
named fields are read-only views of that tuple.
"""

from __future__ import annotations

import enum
from operator import itemgetter

__all__ = ["OpKind", "TxnOp", "read_op", "work_op", "write_op"]


class OpKind(enum.Enum):
    READ = "R"
    WRITE = "W"
    WORK = "C"  # pure computation: cycles with no memory traffic


class TxnOp(tuple):
    """One operation inside a transaction: ``(is_mem, addr, size, is_write, cycles)``.

    ``addr``/``size`` are meaningful for READ/WRITE and ``cycles`` for
    WORK; the fields a kind does not use are 0.
    """

    __slots__ = ()

    def __new__(
        cls, kind: OpKind, addr: int = 0, size: int = 0, cycles: int = 0
    ) -> TxnOp:
        if kind is OpKind.READ:
            return read_op(addr, size)
        if kind is OpKind.WRITE:
            return write_op(addr, size)
        if kind is OpKind.WORK:
            return work_op(cycles)
        raise ValueError(f"unknown op kind {kind!r}")

    is_mem = property(itemgetter(0), doc="A load or a store (not WORK).")
    addr = property(itemgetter(1))
    size = property(itemgetter(2))
    is_write = property(itemgetter(3))
    cycles = property(itemgetter(4))

    @property
    def kind(self) -> OpKind:
        if self[3]:
            return OpKind.WRITE
        return OpKind.READ if self[0] else OpKind.WORK

    def __getnewargs__(self) -> tuple:
        # Unpickle through the validating constructor, not tuple's
        # one-argument form.
        return (self.kind, self[1], self[2], self[4])

    def __repr__(self) -> str:
        return (
            f"TxnOp(kind={self.kind!r}, addr={self[1]}, size={self[2]}, "
            f"cycles={self[4]})"
        )


_new_op = tuple.__new__


def read_op(addr: int, size: int) -> TxnOp:
    """A transactional load of ``size`` bytes at ``addr``."""
    if size <= 0:
        raise ValueError("READ op needs positive size")
    if addr < 0:
        raise ValueError("negative address")
    return _new_op(TxnOp, (True, addr, size, False, 0))


def write_op(addr: int, size: int) -> TxnOp:
    """A transactional store of ``size`` bytes at ``addr``."""
    if size <= 0:
        raise ValueError("WRITE op needs positive size")
    if addr < 0:
        raise ValueError("negative address")
    return _new_op(TxnOp, (True, addr, size, True, 0))


def work_op(cycles: int) -> TxnOp:
    """Non-memory computation inside the transaction."""
    if cycles <= 0:
        raise ValueError("WORK op needs positive cycles")
    return _new_op(TxnOp, (False, 0, 0, False, cycles))
