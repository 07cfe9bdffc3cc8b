"""MOESI coherence states and legal transitions.

The paper's baseline (AMD ASF) detects transactional conflicts from
*unmodified* MOESI protocol traffic, so the protocol here is the textbook
AMD64 MOESI with a snooping fabric:

=========  ===========================================================
State      Meaning
=========  ===========================================================
MODIFIED   only copy, dirty (memory stale)
OWNED      dirty + shared; this cache responds to probes, memory stale
EXCLUSIVE  only copy, clean
SHARED     possibly one of many copies, clean (or owned elsewhere)
INVALID    no valid copy
=========  ===========================================================

Two probe kinds matter to the HTM layer (Section IV-A of the paper):
an **invalidating** probe (triggered by a remote store) and a
**non-invalidating** probe (triggered by a remote load).  The transition
tables below are pure functions so they can be exhaustively tested.
"""

from __future__ import annotations

import enum

from repro.errors import ProtocolError

__all__ = [
    "MoesiState",
    "can_read",
    "can_write_silently",
    "on_invalidating_probe",
    "on_local_write",
    "on_non_invalidating_probe",
    "state_on_fill",
    "supplies_data",
]


class MoesiState(enum.Enum):
    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __str__(self) -> str:  # compact in traces
        return self.value


_VALID = frozenset(
    {MoesiState.MODIFIED, MoesiState.OWNED, MoesiState.EXCLUSIVE, MoesiState.SHARED}
)


def can_read(state: MoesiState) -> bool:
    """Local load hits in any valid state."""
    return state in _VALID


def can_write_silently(state: MoesiState) -> bool:
    """Local store needs no bus transaction only in M or E.

    In E the store performs the silent E→M upgrade; in O or S the core must
    first issue an invalidating probe to obtain ownership.
    """
    return state in (MoesiState.MODIFIED, MoesiState.EXCLUSIVE)


def supplies_data(state: MoesiState) -> bool:
    """Whether this cache responds with data to a remote fetch.

    M and O are dirty and *must* respond; E responds as an optimisation
    (standard AMD64 behaviour — avoids a memory round trip).  S holders stay
    silent (the owner or memory responds).
    """
    return state in (MoesiState.MODIFIED, MoesiState.OWNED, MoesiState.EXCLUSIVE)


def on_local_write(state: MoesiState) -> MoesiState:
    """Local state after a store, assuming required probes were issued."""
    if state is MoesiState.INVALID:
        raise ProtocolError("store to INVALID line must fill first")
    return MoesiState.MODIFIED


def on_non_invalidating_probe(state: MoesiState) -> MoesiState:
    """Remote-load probe: dirty owners keep ownership as OWNED, clean
    exclusives degrade to SHARED, everyone keeps a valid copy."""
    if state is MoesiState.MODIFIED:
        return MoesiState.OWNED
    if state is MoesiState.EXCLUSIVE:
        return MoesiState.SHARED
    return state  # O stays O, S stays S, I stays I


def on_invalidating_probe(state: MoesiState) -> MoesiState:
    """Remote-store probe: every remote copy is invalidated."""
    return MoesiState.INVALID


def state_on_fill(had_remote_sharers: bool, for_write: bool) -> MoesiState:
    """State installed in the requester after a fill completes."""
    if for_write:
        return MoesiState.MODIFIED
    return MoesiState.SHARED if had_remote_sharers else MoesiState.EXCLUSIVE


def check_global_invariant(states: list[MoesiState]) -> None:
    """Assert the one-writer/any-readers MOESI invariant over all copies
    of a single line.  The one statement of the invariant: the property
    tests call it on the object model's copies, and
    :meth:`repro.kernel.state.SimState.audit_coherence` on the flat
    kernel's.

    * at most one M or E copy, and if one exists, no other valid copies;
    * at most one O copy (the owner) alongside any number of S copies.
    """
    n_m = sum(1 for s in states if s is MoesiState.MODIFIED)
    n_e = sum(1 for s in states if s is MoesiState.EXCLUSIVE)
    n_o = sum(1 for s in states if s is MoesiState.OWNED)
    n_valid = sum(1 for s in states if s in _VALID)
    if n_m + n_e > 1:
        raise ProtocolError(f"multiple exclusive owners: {states}")
    if (n_m or n_e) and n_valid > 1:
        raise ProtocolError(f"M/E copy coexists with other valid copies: {states}")
    if n_o > 1:
        raise ProtocolError(f"multiple OWNED copies: {states}")
