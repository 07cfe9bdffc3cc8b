"""Workload abstractions.

A workload compiles, for a given ``(n_cores, seed)``, into one
:class:`CoreScript` per core: a list of :class:`ScriptedTxn` entries, each
an inter-transaction gap (non-transactional cycles) plus a fixed operation
list.  The operation list is replayed unchanged on every retry — a
transaction is deterministic code — which is what makes runs under
different detection schemes directly comparable.

``user_abort_attempts`` models labyrinth-style explicit aborts: the first
k attempts of the transaction abort themselves at the end (path validation
failed), attempt k+1 commits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.htm.ops import TxnOp

__all__ = ["CoreScript", "ScriptedTxn", "Workload", "WorkloadInfo"]


@dataclass(frozen=True, slots=True)
class ScriptedTxn:
    """One program transaction: a gap, then a fixed op sequence."""

    gap_cycles: int
    ops: tuple[TxnOp, ...]
    user_abort_attempts: int = 0

    def __post_init__(self) -> None:
        if self.gap_cycles < 0:
            raise WorkloadError("negative inter-transaction gap")
        if not self.ops:
            raise WorkloadError("empty transaction")
        if self.user_abort_attempts < 0:
            raise WorkloadError("negative user_abort_attempts")


@dataclass(frozen=True, slots=True)
class CoreScript:
    """The full per-core program."""

    core: int
    txns: tuple[ScriptedTxn, ...]

    @property
    def n_txns(self) -> int:
        return len(self.txns)


@dataclass(frozen=True, slots=True)
class WorkloadInfo:
    """Table III metadata for one benchmark."""

    name: str
    description: str
    suite: str  # "STAMP" | "RMS-TM" | "synthetic"
    field_bytes: int  # dominant data-structure granularity (Figure 5)


class Workload(ABC):
    """A seeded generator of per-core transactional programs."""

    #: Table III row for this workload.
    info: WorkloadInfo

    def __init__(self, txns_per_core: int = 400) -> None:
        if txns_per_core <= 0:
            raise WorkloadError("txns_per_core must be positive")
        self.txns_per_core = txns_per_core

    @abstractmethod
    def build(self, n_cores: int, seed: int) -> list[CoreScript]:
        """Compile the workload for a machine size and seed.

        Must be deterministic in ``(n_cores, seed, txns_per_core)`` and
        must not depend on any global random state.
        """

    @property
    def name(self) -> str:
        return self.info.name

    def validate_scripts(self, scripts: list[CoreScript]) -> None:
        """Common sanity checks generators run on their own output."""
        for cs in scripts:
            for txn in cs.txns:
                if not any(op.is_mem for op in txn.ops):
                    raise WorkloadError(
                        f"{self.name}: transaction with no memory operations"
                    )


@dataclass(slots=True)
class ScriptStats:
    """Aggregate shape of a compiled workload (used by generator tests)."""

    n_txns: int = 0
    n_reads: int = 0
    n_writes: int = 0
    lines_touched: set[int] = field(default_factory=set)

    @classmethod
    def of(cls, scripts: list[CoreScript], line_size: int = 64) -> "ScriptStats":
        out = cls()
        for cs in scripts:
            out.n_txns += cs.n_txns
            for txn in cs.txns:
                for op in txn.ops:
                    if not op.is_mem:
                        continue
                    if op.is_write:
                        out.n_writes += 1
                    else:
                        out.n_reads += 1
                    first = op.addr // line_size
                    last = (op.addr + op.size - 1) // line_size
                    out.lines_touched.update(range(first, last + 1))
        return out
