"""Memory-system substrate: addresses, set-associative caches, MOESI
coherence, the snoop bus's probe delivery order, and the Table-II latency
hierarchy.

This package knows nothing about transactions.  The HTM layer
(:mod:`repro.htm`, :mod:`repro.core`) issues the coherence *probes* in
the order :class:`SnoopBus` fixes and attaches speculative state to
lines; the split mirrors the paper's design constraint that the coherence
protocol itself stays unmodified.
"""

from repro.mem.address import AddressMap
from repro.mem.bus import SnoopBus
from repro.mem.cache import CacheLine, SetAssocCache
from repro.mem.hierarchy import AccessResult, MemorySystem
from repro.mem.moesi import MoesiState

__all__ = [
    "AccessResult",
    "AddressMap",
    "CacheLine",
    "MemorySystem",
    "MoesiState",
    "SetAssocCache",
    "SnoopBus",
]
