"""Per-access event tap for the HTM machine.

:func:`attach_access_log` wraps a machine's ``access`` method and records
one :class:`AccessEvent` per call — core, address, direction, latency,
conflicts triggered — without touching the machine's own code paths.
Useful for post-hoc debugging ("what happened around cycle 40k on line
0x2040?") and for building custom analyses the detail sink does not
pre-aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htm.machine import HtmMachine

__all__ = ["AccessEvent", "AccessLog", "attach_access_log"]


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One recorded memory access."""

    time: int
    core: int
    addr: int
    size: int
    is_write: bool
    txn_uid: int  # -1 = non-transactional
    latency: int
    hit_l1: bool
    n_conflicts: int
    dirty_reprobe: bool
    self_abort: str | None


@dataclass
class AccessLog:
    """Accumulated access events plus convenience queries."""

    events: list[AccessEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def for_core(self, core: int) -> list[AccessEvent]:
        return [e for e in self.events if e.core == core]

    def for_line(self, line_addr: int, line_size: int = 64) -> list[AccessEvent]:
        base = line_addr & ~(line_size - 1)
        return [
            e
            for e in self.events
            if (e.addr & ~(line_size - 1)) == base
        ]

    def conflicts(self) -> list[AccessEvent]:
        return [e for e in self.events if e.n_conflicts]

    def window(self, t0: int, t1: int) -> list[AccessEvent]:
        return [e for e in self.events if t0 <= e.time < t1]


def attach_access_log(machine: HtmMachine) -> AccessLog:
    """Instrument a machine; returns the live log.

    The wrapper delegates to the original bound method, so behaviour and
    timing are unchanged; call order is preserved (the machine is
    single-threaded by construction).
    """
    log = AccessLog()
    original = machine.access

    def logged_access(core, addr, size, is_write, time):
        txn = machine.active[core]
        out = original(core, addr, size, is_write, time)
        log.events.append(
            AccessEvent(
                time=time,
                core=core,
                addr=addr,
                size=size,
                is_write=is_write,
                txn_uid=txn.uid if txn is not None else -1,
                latency=out.latency,
                hit_l1=out.hit_l1,
                n_conflicts=len(out.conflicts),
                dirty_reprobe=out.dirty_reprobe,
                self_abort=out.self_abort.value if out.self_abort else None,
            )
        )
        return out

    machine.access = logged_access  # type: ignore[method-assign]
    return log
