"""Lazy data versioning with unique word tokens.

ASF buffers speculative stores in the L1/LSQ and only makes them
architecturally visible at commit (lazy versioning).  To *check* that the
protocol preserves atomicity — including the Figure 6 dirty-state hazards —
we model every 32-bit word's value as an opaque **token**:

* token ``0`` is the initial value of all memory;
* every speculative store allocates a fresh token, remembered with its
  writing transaction attempt;
* commit publishes the transaction's redo-log tokens to backing memory.

Because tokens are unique, "which write produced the value this load saw"
is always answerable, which turns serializability checking into simple
token comparisons (see :mod:`repro.sim.atomicity`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TokenAllocator", "TokenInfo", "VersionTracker", "restore_undo"]


def restore_undo(memory: dict[int, int], undo: dict[int, int]) -> None:
    """Roll an eager-versioning undo log back into backing memory.

    Writes every pre-transaction token back and clears the log.  Shared
    by both kernels' abort paths so rollback is bit-identical.
    Restoring an explicit 0 (word was untouched before the transaction)
    is equivalent to absence: token 0 is the initial value of all memory
    and every reader uses ``memory.get(word, 0)``.
    """
    for word_addr, token in undo.items():
        memory[word_addr] = token
    undo.clear()


@dataclass(frozen=True, slots=True)
class TokenInfo:
    """Provenance of one store token."""

    token: int
    txn_uid: int
    word_addr: int


class TokenAllocator:
    """Allocates unique, monotonically increasing store tokens.

    Token ids are dense (1, 2, 3, …), so provenance is stored as two
    parallel flat lists indexed by token id instead of a dict of frozen
    :class:`TokenInfo` objects: ``allocate`` on the store hot path is two
    list appends, and the common provenance question ("who wrote this
    token?") is one list index via :meth:`writer_of`.  :class:`TokenInfo`
    survives as the cold-path view :meth:`provenance` materialises on
    demand.  Slot 0 holds the initial-memory token, which has no writer.
    """

    __slots__ = ("_writers", "_words")

    def __init__(self) -> None:
        self._writers: list[int] = [-1]  # [token] -> writing txn uid
        self._words: list[int] = [-1]  # [token] -> word address written

    def allocate(self, txn_uid: int, word_addr: int) -> int:
        writers = self._writers
        token = len(writers)
        writers.append(txn_uid)
        self._words.append(word_addr)
        return token

    def provenance(self, token: int) -> TokenInfo | None:
        """Provenance of a token; None for the initial token 0."""
        if 0 < token < len(self._writers):
            return TokenInfo(token, self._writers[token], self._words[token])
        return None

    def writer_of(self, token: int) -> int | None:
        """Writing txn uid of a token; None for the initial token 0."""
        if 0 < token < len(self._writers):
            return self._writers[token]
        return None

    def __len__(self) -> int:
        return len(self._writers) - 1


class VersionTracker:
    """Tracks committed/aborted transaction attempts by uid.

    The atomicity checker needs to answer, for any token a committed
    transaction observed: "was its writer committed, and was it still the
    latest committed write of that word at my commit?".  This class keeps
    the committed/aborted sets; the latest-committed-write question is
    answered by the backing memory image itself (it only ever holds
    committed tokens).
    """

    __slots__ = ("committed", "aborted", "commit_order")

    def __init__(self) -> None:
        self.committed: set[int] = set()
        self.aborted: set[int] = set()
        self.commit_order: list[int] = []

    def on_commit(self, txn_uid: int) -> None:
        self.committed.add(txn_uid)
        self.commit_order.append(txn_uid)

    def on_abort(self, txn_uid: int) -> None:
        self.aborted.add(txn_uid)

    def is_committed(self, txn_uid: int) -> bool:
        return txn_uid in self.committed

    def is_aborted(self, txn_uid: int) -> bool:
        return txn_uid in self.aborted
