"""Conflict records and classification.

Every detected transactional conflict is classified two ways, exactly as
the paper's Section III measures them:

* **true vs false** — ground truth from byte-granularity footprints: the
  conflict is *false* when the requester's access bytes are disjoint from
  the victim's speculative bytes (pure false sharing within the line);
* **type** — which ordering produced it:

  - ``RAW`` read-after-write: a transactional *load* probed a line the
    victim had speculatively *written*;
  - ``WAR`` write-after-read: a transactional *store* probed a line the
    victim had speculatively *read*;
  - ``WAW`` write-after-write: a transactional *store* probed a line the
    victim had speculatively *written* (and not read) — the paper measures
    this at ≈0% of false conflicts and the sub-blocking scheme knowingly
    does not optimise it.

Classification is independent of the detector that raised the conflict, so
baseline/sub-block/perfect runs produce directly comparable statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ConflictRecord", "ConflictType", "classify_type"]


class ConflictType(enum.Enum):
    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


def classify_type(
    requester_is_write: bool, victim_read_mask: int, victim_write_mask: int
) -> ConflictType:
    """Type a conflict from the access direction and the victim footprint.

    A load can only conflict with speculative writes, so requester-read is
    always RAW.  For a store, the conflict is WAW only when the victim was a
    pure writer of the line (never read it); if the victim read the line at
    all, the lost work is read-dependent and the paper's breakdown counts it
    as WAR.  This matches the observation that WAW false conflicts are
    negligible: transactional writers almost always read nearby data too.
    """
    if not requester_is_write:
        return ConflictType.RAW
    if victim_write_mask and not victim_read_mask:
        return ConflictType.WAW
    return ConflictType.WAR


@dataclass(frozen=True, slots=True)
class ConflictRecord:
    """One detected (and acted-on) transactional conflict.

    ``is_false`` is the byte-granularity ground truth; ``forced_waw`` marks
    sub-blocking's "abort anyway, speculative data would be lost" rule
    (Section IV-D-2).  ``time`` is the global cycle of the probing access
    and ``line_index`` the dense line number used by the Figure 4
    histogram.  ``at_commit`` marks lazy-detection arbitration: the
    "requester" is a committing transaction and the victim was killed by
    its commit broadcast rather than by an access-time probe.

    A trace's ``conflict`` line holds these fields in this order, and the
    trace reader decodes it back into this class.
    """

    time: int
    requester_core: int
    victim_core: int
    requester_txn: int
    victim_txn: int
    line_addr: int
    line_index: int
    ctype: ConflictType
    is_false: bool
    requester_is_write: bool
    requester_mask: int
    victim_read_mask: int
    victim_write_mask: int
    forced_waw: bool
    at_commit: bool = False

    @classmethod
    def detect(
        cls,
        time: int,
        requester_core: int,
        victim_core: int,
        requester_txn: int,
        victim_txn: int,
        line_addr: int,
        line_index: int,
        requester_is_write: bool,
        requester_mask: int,
        victim_read_mask: int,
        victim_write_mask: int,
        forced_waw: bool,
        at_commit: bool = False,
    ) -> ConflictRecord:
        """The record of a detected conflict, classified from its masks.

        ``ctype`` comes from :func:`classify_type`.  ``is_false`` holds when
        the requester's bytes miss the victim's written bytes, plus its read
        bytes when the requester is a store: the rule :attr:`overlap_mask`
        states.  Every kernel builds its records here, so the
        classification has one owner.
        """
        victim = victim_write_mask
        if requester_is_write:
            victim |= victim_read_mask
        return cls(
            time, requester_core, victim_core, requester_txn, victim_txn,
            line_addr, line_index,
            classify_type(requester_is_write, victim_read_mask, victim_write_mask),
            (requester_mask & victim) == 0, requester_is_write, requester_mask,
            victim_read_mask, victim_write_mask, forced_waw, at_commit,
        )

    @property
    def overlap_mask(self) -> int:
        """Bytes genuinely shared by requester and victim (0 for false)."""
        victim = self.victim_write_mask
        if self.requester_is_write:
            victim |= self.victim_read_mask
        return self.requester_mask & victim

    def describe(self) -> str:
        kind = "FALSE" if self.is_false else "TRUE"
        return (
            f"@{self.time} core{self.requester_core}"
            f"{'W' if self.requester_is_write else 'R'} -> "
            f"core{self.victim_core} line {self.line_addr:#x} "
            f"{self.ctype.value} {kind}"
            + (" (forced WAW)" if self.forced_waw else "")
        )
