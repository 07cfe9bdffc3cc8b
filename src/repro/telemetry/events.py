"""Typed telemetry events and the :class:`EventSink` protocol.

The machine layers (:mod:`repro.htm.machine`, :mod:`repro.mem.hierarchy`,
:mod:`repro.sim.engine`) never talk to a concrete statistics class; they
emit through the narrow :class:`EventSink` protocol below.  What happens
to an event — counted, histogrammed, streamed to a JSONL trace, dropped —
is the sink's business, so new measurement backends are drop-in
(:mod:`repro.telemetry.sinks` ships the standard ones).

Two design rules keep the hot path hot:

* emission methods take **plain scalars** (no per-event allocation in the
  simulator's inner loops); the frozen event dataclasses here exist for
  the trace reader, which rebuilds them from a recorded trace, and for
  tests;
* this package sits **below** the mem/htm layers — it imports neither, so
  every layer may depend on it.  ``on_conflict`` receives the machine's
  :class:`repro.htm.conflict.ConflictRecord` (the trace reader decodes
  ``conflict`` lines into the same class); sinks read its fields by
  name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

__all__ = [
    "AccessEvent",
    "BackoffEvent",
    "DirtyReprobeEvent",
    "EventSink",
    "FillEvent",
    "NullSink",
    "RunCompleteEvent",
    "StallEvent",
    "TxnAbortEvent",
    "TxnCommitEvent",
    "TxnStartEvent",
]


@dataclass(frozen=True, slots=True)
class TxnStartEvent:
    """A transaction attempt began on a core."""

    core: int
    time: int
    attempt: int
    static_id: int


@dataclass(frozen=True, slots=True)
class TxnCommitEvent:
    """A transaction committed."""

    core: int
    time: int


@dataclass(frozen=True, slots=True)
class TxnAbortEvent:
    """A transaction aborted (``cause`` is the AbortCause value string)."""

    core: int
    time: int
    cause: str
    wasted_cycles: int


@dataclass(frozen=True, slots=True)
class StallEvent:
    """A stall/backoff-policy requester parked (or fell back to abort).

    ``cycles`` is the deterministic stall delay (0 when ``aborted``);
    ``aborted`` marks the deadlock-avoidance fallback — the requester
    exhausted its stall budget or the stall queue was full and aborted
    itself instead of waiting.
    """

    core: int
    time: int
    cycles: int
    aborted: bool


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One memory access retired by the machine."""

    core: int
    line_addr: int
    offset: int
    is_write: bool
    hit_l1: bool


@dataclass(frozen=True, slots=True)
class BackoffEvent:
    """Cycles a core spent in post-abort backoff."""

    core: int
    cycles: int


@dataclass(frozen=True, slots=True)
class DirtyReprobeEvent:
    """A valid L1 hit forced back onto the probe path (Figure 6 hazard)."""

    core: int
    line_addr: int
    time: int


@dataclass(frozen=True, slots=True)
class FillEvent:
    """An L1 miss was filled from ``level`` (L2/L3/remote/memory)."""

    core: int
    line_addr: int
    level: str


@dataclass(frozen=True, slots=True)
class RunCompleteEvent:
    """End-of-run marker carrying the final cycle counts."""

    execution_cycles: int
    per_core_cycles: tuple[int, ...]


@runtime_checkable
class EventSink(Protocol):
    """The narrow emission surface the simulator layers write to.

    Implementations are free to ignore any event.  Methods take scalars
    (see the matching event dataclasses for field meanings) so the
    counter-only fast path allocates nothing per event; ``on_conflict``
    takes the machine's :class:`repro.htm.conflict.ConflictRecord` whole.
    """

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        ...

    def on_txn_commit(self, core: int, time: int) -> None:
        ...

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        ...

    def on_conflict(self, rec) -> None:
        ...

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        ...

    def on_backoff(self, core: int, cycles: int) -> None:
        ...

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        ...

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        ...

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        ...

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        ...


class NullSink:
    """Discards every event (default for bare :class:`MemorySystem`)."""

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        pass

    def on_txn_commit(self, core: int, time: int) -> None:
        pass

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        pass

    def on_conflict(self, rec) -> None:
        pass

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        pass

    def on_backoff(self, core: int, cycles: int) -> None:
        pass

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        pass

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        pass

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        pass

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        pass
