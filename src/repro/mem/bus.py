"""Snooping-bus probe delivery order.

AMD64 coherence is probe-based: a requester broadcasts a probe, every other
cache snoops it, owners supply data, and copies transition per MOESI.  The
paper's entire mechanism keys off the two probe kinds:

* a store issues an **invalidating** probe — conflicts with remote
  speculative *reads and writes* (SR or SW bits);
* a load issues a **non-invalidating** probe — conflicts with remote
  speculative *writes* only (SW bit).

The sub-blocking extension additionally rides **piggy-back bits** on the
data response of a non-invalidating probe: a bitmap of the responder's
speculatively written sub-blocks, which the requester records as *Dirty*.
The machine carries those bits as a plain integer mask.

:class:`SnoopBus` only sequences probe delivery deterministically;
conflict checking and state transitions are done by the subscribers (the
HTM machine), keeping the protocol itself "intact" as the paper requires.
What a run observes of its traffic reaches its
:class:`~repro.telemetry.events.EventSink`.
"""

from __future__ import annotations

__all__ = ["SnoopBus"]


class SnoopBus:
    """Deterministic probe fan-out across a fixed set of cores.

    Delivery order is ascending core id starting after the requester
    (round-robin), which makes multi-victim conflict resolution
    reproducible for a given seed.
    """

    __slots__ = ("n_cores",)

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores

    def snoop_order(self, requester: int) -> list[int]:
        """Cores that snoop a probe from ``requester``, in delivery order."""
        return [
            (requester + k) % self.n_cores for k in range(1, self.n_cores)
        ]
