"""Flat struct-of-arrays machine kernel (see :mod:`repro.kernel.state`).

Two interchangeable machine implementations exist:

* ``kernel="object"`` — :class:`repro.htm.machine.HtmMachine`, the per-line
  object model (dict-of-``CacheLine`` + ``SpecLineState`` side tables):
  the readable reference;
* ``kernel="flat"`` — :class:`repro.kernel.flat.FlatTxnMachine`, the same
  protocol on preallocated flat arrays with the scheme's rules inlined as
  mask arithmetic, plus the flat transactional runtime: per-core recycled
  ``Transaction`` views aliasing the :class:`SimState` txn planes, inlined
  commit/abort cleanup, and checker-free load bookkeeping elision (the
  default, several times faster on the per-access hot path).

:func:`build_machine` picks one from :attr:`SystemConfig.kernel`; both
emit bit-identical telemetry (asserted by the kernel-parity suite), so
everything above the machine — engine, runner, analysis — is agnostic.
:class:`MachineProtocol` is the structural type of that shared surface,
for annotating code that holds "some machine" without caring which.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.config import SystemConfig
from repro.htm.machine import AccessOutcome, HtmMachine
from repro.kernel.flat import FlatTxnMachine
from repro.kernel.state import SimState

if TYPE_CHECKING:
    from repro.htm.ops import TxnOp
    from repro.htm.txn import AbortCause, Transaction
    from repro.htm.versioning import TokenAllocator, VersionTracker
    from repro.telemetry.events import EventSink

__all__ = [
    "FlatTxnMachine",
    "MachineProtocol",
    "SimState",
    "build_machine",
]


@runtime_checkable
class MachineProtocol(Protocol):
    """The machine surface the engine (and anything above it) relies on.

    Structural, so both kernels — and test doubles — satisfy it without
    inheriting from :class:`HtmMachine`.
    """

    config: SystemConfig
    sink: "EventSink"
    checker: object | None
    tokens: "TokenAllocator"
    versions: "VersionTracker"
    active: "list[Transaction | None]"

    def new_txn(
        self,
        core: int,
        static_id: int,
        ops: "tuple[TxnOp, ...]",
        attempt: int,
        time: int,
    ) -> "Transaction": ...

    def begin_txn(self, core: int, txn: "Transaction") -> None: ...

    def commit(self, core: int, time: int) -> "Transaction": ...

    def abort_self(
        self, core: int, time: int, cause: "AbortCause"
    ) -> "Transaction": ...

    def access(
        self, core: int, addr: int, size: int, is_write: bool, time: int
    ) -> AccessOutcome: ...


def build_machine(config: SystemConfig, **kwargs) -> HtmMachine:
    """Construct the machine implementation selected by ``config.kernel``."""
    if config.kernel == "flat":
        return FlatTxnMachine(config, **kwargs)
    return HtmMachine(config, **kwargs)
