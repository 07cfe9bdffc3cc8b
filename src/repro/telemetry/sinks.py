"""Standard :class:`~repro.telemetry.events.EventSink` implementations.

Three sinks cover the evaluation's needs:

* :class:`CounterSink` — aggregate counters only.  What a run records
  unless its caller asks for detail: every hook is a few integer adds.
* :class:`DetailSink` — counters **plus** the per-event record the
  paper's characterization figures read: attempt intervals, every
  conflict record with the victim attempt it interrupted, the access
  offsets, per-static-transaction outcomes.  One class for a live run
  and for a replayed trace
  (:class:`~repro.analysis.trace.ConflictTimeline` feeds it the decoded
  events), so both answer every reader identically.  Its aggregate
  counters equal a :class:`CounterSink`'s for the same run (the parity
  tests assert it).
* :class:`JsonlTraceSink` — streams every event as one JSON line for
  offline analysis, forwarding to an inner sink so counters still
  accumulate.  Unknown attribute reads proxy to the inner sink, so a
  trace-wrapped sink still answers ``summary()`` etc.

:class:`ConflictCounts` lives here because every sink and summary
shares it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import Sequence

from repro.errors import ConfigError

__all__ = [
    "AttemptRecord",
    "CascadeStats",
    "ConflictCounts",
    "CounterSink",
    "DetailSink",
    "JsonlTraceSink",
    "SUMMARY_KEYS",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_MAJOR",
    "TRACE_SCHEMA_MINOR",
    "cumulative_series",
    "summary_dict",
]

#: Schema identity of the JSONL trace format.  The header line every
#: :class:`JsonlTraceSink` writes first carries these; readers accept any
#: minor revision of a known major and reject everything else up front
#: (:class:`repro.analysis.trace.TraceReader`).  Bump the major on any
#: change that would misread existing consumers (field removal/renaming),
#: the minor for additive changes (new event kinds, new optional fields).
TRACE_SCHEMA = "repro-asf-trace"
TRACE_SCHEMA_MAJOR = 1
# Minor 1: added the "stall" event kind and the optional "at_commit"
# conflict field (policy-matrix stall/backoff + lazy-commit arbitration).
TRACE_SCHEMA_MINOR = 1

#: JSON spelling of a bool, indexed by the bool.
_BOOL = ("false", "true")


@dataclass(slots=True)
class ConflictCounts:
    """Counts of detected conflicts, split by ground truth and type."""

    true_raw: int = 0
    true_war: int = 0
    true_waw: int = 0
    false_raw: int = 0
    false_war: int = 0
    false_waw: int = 0

    def add(self, ctype, is_false: bool) -> None:
        key = ("false_" if is_false else "true_") + ctype.value.lower()
        setattr(self, key, getattr(self, key) + 1)

    def merge(self, other: "ConflictCounts") -> None:
        """Accumulate another run's counts into this one (field-wise sum)."""
        self.true_raw += other.true_raw
        self.true_war += other.true_war
        self.true_waw += other.true_waw
        self.false_raw += other.false_raw
        self.false_war += other.false_war
        self.false_waw += other.false_waw

    def copy(self) -> "ConflictCounts":
        return ConflictCounts(
            true_raw=self.true_raw,
            true_war=self.true_war,
            true_waw=self.true_waw,
            false_raw=self.false_raw,
            false_war=self.false_war,
            false_waw=self.false_waw,
        )

    @property
    def total(self) -> int:
        return (
            self.true_raw
            + self.true_war
            + self.true_waw
            + self.false_raw
            + self.false_war
            + self.false_waw
        )

    @property
    def total_false(self) -> int:
        return self.false_raw + self.false_war + self.false_waw

    @property
    def total_true(self) -> int:
        return self.total - self.total_false

    @property
    def false_rate(self) -> float:
        """Fraction of all conflicts that are false (Figure 1)."""
        return self.total_false / self.total if self.total else 0.0

    def false_breakdown(self) -> dict[str, float]:
        """WAR/RAW/WAW shares of the false conflicts (Figure 2)."""
        tot = self.total_false
        if not tot:
            return {"WAR": 0.0, "RAW": 0.0, "WAW": 0.0}
        return {
            "WAR": self.false_war / tot,
            "RAW": self.false_raw / tot,
            "WAW": self.false_waw / tot,
        }


#: Integer counter attributes shared by every counting sink and by
#: :class:`~repro.telemetry.summary.RunSummary`.  One list so the
#: summary/merge code cannot drift out of sync with the sinks.
COUNTER_FIELDS = (
    "txn_attempts",
    "txn_commits",
    "aborts_conflict_true",
    "aborts_conflict_false",
    "aborts_capacity",
    "aborts_user",
    "aborts_validation",
    "wasted_cycles",
    "backoff_cycles",
    "l1_hits",
    "l1_misses",
    "dirty_reprobes",
    "forced_waw_aborts",
    "fills_l2",
    "fills_l3",
    "fills_memory",
    "fills_remote",
    "stalls",
    "stall_cycles",
    "stall_aborts",
    "arbitration_aborts",
)


def summary_dict(s) -> dict[str, object]:
    """Flat summary used by reports and the EXPERIMENTS index.

    Works on anything exposing the counter attributes (``CounterSink``,
    ``DetailSink``, ``RunSummary``) — one implementation so the
    summary parity guarantee is bit-for-bit by construction.
    """
    return {
        "txn_attempts": s.txn_attempts,
        "txn_commits": s.txn_commits,
        "aborts_total": s.total_aborts,
        "aborts_conflict_true": s.aborts_conflict_true,
        "aborts_conflict_false": s.aborts_conflict_false,
        "aborts_capacity": s.aborts_capacity,
        "aborts_user": s.aborts_user,
        "aborts_validation": s.aborts_validation,
        "conflicts_total": s.conflicts.total,
        "conflicts_false": s.conflicts.total_false,
        "false_rate": s.conflicts.false_rate,
        "avg_retries": s.avg_retries,
        "execution_cycles": s.execution_cycles,
        "wasted_cycles": s.wasted_cycles,
        "backoff_cycles": s.backoff_cycles,
        "l1_hits": s.l1_hits,
        "l1_misses": s.l1_misses,
        "dirty_reprobes": s.dirty_reprobes,
        "forced_waw_aborts": s.forced_waw_aborts,
        "fills_l2": s.fills_l2,
        "fills_l3": s.fills_l3,
        "fills_memory": s.fills_memory,
        "fills_remote": s.fills_remote,
        "stalls": s.stalls,
        "stall_cycles": s.stall_cycles,
        "stall_aborts": s.stall_aborts,
        "arbitration_aborts": s.arbitration_aborts,
    }


class CounterSink:
    """Aggregate counters only — the per-event cost is a few integer adds."""

    def __init__(self) -> None:
        self.conflicts = ConflictCounts()
        self.txn_attempts: int = 0
        self.txn_commits: int = 0
        self.aborts_conflict_true: int = 0
        self.aborts_conflict_false: int = 0
        self.aborts_capacity: int = 0
        self.aborts_user: int = 0
        self.aborts_validation: int = 0
        self.retries_by_static: Counter[int] = Counter()
        self.wasted_cycles: int = 0
        self.backoff_cycles: int = 0
        self.l1_hits: int = 0
        self.l1_misses: int = 0
        self.dirty_reprobes: int = 0
        self.forced_waw_aborts: int = 0
        # L1-miss fills by supplying level (emitted by MemorySystem).
        self.fills_l2: int = 0
        self.fills_l3: int = 0
        self.fills_memory: int = 0
        self.fills_remote: int = 0
        # Policy-matrix counters: stall/backoff resolution and
        # lazy-detection commit arbitration (zero under plain ASF).
        self.stalls: int = 0
        self.stall_cycles: int = 0
        self.stall_aborts: int = 0
        self.arbitration_aborts: int = 0
        # Filled in by on_run_complete.
        self.execution_cycles: int = 0
        self.per_core_cycles: list[int] = []

    # -- event hooks ---------------------------------------------------------

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self.txn_attempts += 1
        if attempt > 1:
            self.retries_by_static[static_id] += 1

    def on_txn_commit(self, core: int, time: int) -> None:
        self.txn_commits += 1

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        name = "aborts_" + cause
        setattr(self, name, getattr(self, name) + 1)
        self.wasted_cycles += wasted_cycles

    def on_conflict(self, rec) -> None:
        self.conflicts.add(rec.ctype, rec.is_false)
        if rec.forced_waw:
            self.forced_waw_aborts += 1
        if getattr(rec, "at_commit", False):
            self.arbitration_aborts += 1

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        if hit_l1:
            self.l1_hits += 1
        else:
            self.l1_misses += 1

    def on_backoff(self, core: int, cycles: int) -> None:
        self.backoff_cycles += cycles

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        if aborted:
            self.stall_aborts += 1
        else:
            self.stalls += 1
            self.stall_cycles += cycles

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        self.dirty_reprobes += 1

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        if level == "L2":
            self.fills_l2 += 1
        elif level == "L3":
            self.fills_l3 += 1
        elif level == "remote":
            self.fills_remote += 1
        else:
            self.fills_memory += 1

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        self.execution_cycles = execution_cycles
        self.per_core_cycles = list(per_core_cycles)

    # -- derived metrics -----------------------------------------------------

    @property
    def total_aborts(self) -> int:
        return (
            self.aborts_conflict_true
            + self.aborts_conflict_false
            + self.aborts_capacity
            + self.aborts_user
            + self.aborts_validation
        )

    @property
    def avg_retries(self) -> float:
        """Average attempts per *committed* transaction."""
        if not self.txn_commits:
            return 0.0
        return self.txn_attempts / self.txn_commits

    def summary(self) -> dict[str, object]:
        return summary_dict(self)


@dataclass(slots=True)
class AttemptRecord:
    """One transaction attempt's interval.

    ``outcome`` is ``"commit"``, an abort-cause string, or ``None`` for
    an attempt still open when the run (or its trace) ended.
    """

    core: int
    static_id: int
    attempt: int
    start: int
    end: int | None = None
    outcome: str | None = None
    wasted_cycles: int = 0


@dataclass(frozen=True, slots=True)
class CascadeStats:
    """Abort-cascade measurement over a run's conflict stream.

    A conflict extends a cascade when its *requester* was itself the
    victim of a conflict at most ``window`` cycles earlier — contention
    propagating through the retry path.  ``depths`` maps chain depth to
    how many conflicts sat at that depth (depth 1 = cascade roots).
    """

    window: int
    depths: dict[int, int]

    @property
    def max_depth(self) -> int:
        return max(self.depths, default=0)

    @property
    def cascaded(self) -> int:
        """Conflicts at depth ≥ 2 (caused by an earlier abort)."""
        return sum(n for d, n in self.depths.items() if d >= 2)


class DetailSink(CounterSink):
    """Counters plus the per-event record of a run, fed live or by
    :class:`repro.analysis.trace.ConflictTimeline` from a recorded trace
    through the same hooks, so every reader answers identically for both.

    It keeps every attempt's :class:`AttemptRecord` (start order), every
    conflict record (:attr:`conflict_events`, which the open-loop Figure 8
    replay reads) with, beside it in :attr:`conflict_victims`, the index
    of the victim attempt it interrupted (``None`` if none was open),
    accesses by byte offset, and per static transaction its wasted
    cycles, aborts and commits.  ``line_size`` is the machine's
    (``config.line_size``, or a trace header's).
    """

    def __init__(self, line_size: int = 64) -> None:
        super().__init__()
        self.line_size = line_size
        self.attempts: list[AttemptRecord] = []
        self.conflict_events: list = []
        self.conflict_victims: list[int | None] = []
        self.access_offsets: Counter[int] = Counter()
        self.wasted_by_static: Counter[int] = Counter()
        self.aborts_by_static: Counter[int] = Counter()
        self.commits_by_static: Counter[int] = Counter()
        self._open: dict[int, int] = {}  # core → index of its open attempt

    # -- detail-recording hooks ---------------------------------------------
    #
    # Each hook bumps CounterSink's counters inline rather than through
    # super(): a live run calls on_access once per simulated access.

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self.txn_attempts += 1
        if attempt > 1:
            self.retries_by_static[static_id] += 1
        self._open[core] = len(self.attempts)
        self.attempts.append(AttemptRecord(core, static_id, attempt, time))

    def on_txn_commit(self, core: int, time: int) -> None:
        self.txn_commits += 1
        idx = self._open.pop(core, None)
        if idx is not None:
            rec = self.attempts[idx]
            rec.end = time
            rec.outcome = "commit"
            self.commits_by_static[rec.static_id] += 1

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        name = "aborts_" + cause
        setattr(self, name, getattr(self, name) + 1)
        self.wasted_cycles += wasted_cycles
        idx = self._open.pop(core, None)
        if idx is not None:
            rec = self.attempts[idx]
            rec.end = time
            rec.outcome = cause
            rec.wasted_cycles = wasted_cycles
            self.wasted_by_static[rec.static_id] += wasted_cycles
            self.aborts_by_static[rec.static_id] += 1

    def on_conflict(self, rec) -> None:
        self.conflicts.add(rec.ctype, rec.is_false)
        if rec.forced_waw:
            self.forced_waw_aborts += 1
        if getattr(rec, "at_commit", False):
            self.arbitration_aborts += 1
        self.conflict_events.append(rec)
        self.conflict_victims.append(self._open.get(rec.victim_core))

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        self.access_offsets[offset] += 1
        if hit_l1:
            self.l1_hits += 1
        else:
            self.l1_misses += 1

    # -- Figure 3: conflicts over time / transaction lifetime ----------------

    def cumulative_false_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative false conflicts) sampled at n_points (Fig. 3)."""
        times = [c.time for c in self.conflict_events if c.is_false]
        return cumulative_series(times, self.execution_cycles, n_points)

    def cumulative_starts_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative transaction starts) (Fig. 3)."""
        times = [a.start for a in self.attempts]
        return cumulative_series(times, self.execution_cycles, n_points)

    def conflict_lifetime_histogram(
        self, bins: int = 10, false_only: bool = True
    ) -> list[int]:
        """Conflicts binned over the *victim's* normalized transaction lifetime.

        Bin ``k`` counts conflicts striking in the ``[k/bins, (k+1)/bins)``
        fraction of the victim transaction's lifetime — "how far through its
        work was the victim when the conflict landed".  An aborted attempt's
        own interval ends *at* the abort, which would pin every conflict to
        the last bin; instead progress is measured against the same static
        transaction's mean committed duration (its full workload), falling
        back to the attempt's own span when that transaction never committed.
        Conflicts whose victim attempt never closed (torn trace) are excluded.
        """
        if bins <= 0:
            raise ConfigError(f"bins must be positive, got {bins}")
        full_span: dict[int, float] = {}
        totals: Counter[int] = Counter()
        for rec in self.attempts:
            if rec.outcome == "commit" and rec.end is not None:
                totals[rec.static_id] += rec.end - rec.start
        for static_id, total in totals.items():
            n = self.commits_by_static[static_id]
            if n:
                full_span[static_id] = total / n
        out = [0] * bins
        for conflict, idx in zip(self.conflict_events, self.conflict_victims):
            if false_only and not conflict.is_false:
                continue
            if idx is None:
                continue
            attempt = self.attempts[idx]
            if attempt.end is None:
                continue
            span = full_span.get(attempt.static_id, attempt.end - attempt.start)
            frac = (conflict.time - attempt.start) / span if span > 0 else 0.0
            out[min(max(int(frac * bins), 0), bins - 1)] += 1
        return out

    # -- Figure 4: conflicts by cache line -----------------------------------

    def line_histogram(self, false_only: bool = True) -> list[tuple[int, int]]:
        """(line index, conflicts) sorted by line index (Fig. 4)."""
        counts: Counter[int] = Counter()
        for conflict in self.conflict_events:
            if false_only and not conflict.is_false:
                continue
            counts[conflict.line_index] += 1
        return sorted(counts.items())

    def line_ranking(
        self, top: int | None = None, false_only: bool = True
    ) -> list[tuple[int, int, int]]:
        """(line index, line addr, conflicts) hottest-first (forensics)."""
        ranked = sorted(
            self.line_histogram(false_only=false_only),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if top is not None:
            ranked = ranked[:top]
        addr: dict[int, int] = {}
        for conflict in self.conflict_events:
            addr.setdefault(conflict.line_index, conflict.line_addr)
        return [(index, addr[index], count) for index, count in ranked]

    # -- Figure 5: where inside the line -------------------------------------

    def conflict_offset_histogram(
        self, false_only: bool = True
    ) -> list[tuple[int, int]]:
        """(byte offset, conflicting-access bytes) over requester masks.

        Where inside the cache line the conflicting accesses actually
        landed.
        """
        counts: Counter[int] = Counter()
        for conflict in self.conflict_events:
            if false_only and not conflict.is_false:
                continue
            mask = conflict.requester_mask
            offset = 0
            while mask:
                if mask & 1:
                    counts[offset] += 1
                mask >>= 1
                offset += 1
        return sorted(counts.items())

    def conflict_subblock_histogram(
        self, n_subblocks: int, false_only: bool = True
    ) -> list[tuple[int, int]]:
        """The conflict offset histogram folded into ``n_subblocks`` buckets."""
        if n_subblocks <= 0 or self.line_size % n_subblocks != 0:
            raise ConfigError(
                f"{self.line_size}B line cannot hold {n_subblocks} equal "
                "sub-blocks"
            )
        size = self.line_size // n_subblocks
        buckets = [0] * n_subblocks
        for offset, count in self.conflict_offset_histogram(false_only):
            buckets[min(offset // size, n_subblocks - 1)] += count
        return list(enumerate(buckets))

    def access_offset_histogram(self) -> list[tuple[int, int]]:
        """(byte offset, accesses) over all accesses (Fig. 5); empty for a
        trace recorded without ``trace_accesses``."""
        return sorted(self.access_offsets.items())

    # -- forensics -----------------------------------------------------------

    def abort_cascades(self, window: int = 5000) -> CascadeStats:
        """Chain conflicts through the retry path (see :class:`CascadeStats`)."""
        last_victim: dict[int, tuple[int, int]] = {}
        depths: Counter[int] = Counter()
        for conflict in self.conflict_events:
            prev = last_victim.get(conflict.requester_core)
            depth = 1
            if prev is not None and conflict.time - prev[0] <= window:
                depth = prev[1] + 1
            depths[depth] += 1
            last_victim[conflict.victim_core] = (conflict.time, depth)
        return CascadeStats(window=window, depths=dict(depths))

    def wasted_cycle_ranking(
        self, top: int | None = None
    ) -> list[tuple[int, int, int, int]]:
        """(static txn id, aborts, commits, wasted cycles) worst-first."""
        ranked = sorted(
            self.wasted_by_static.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if top is not None:
            ranked = ranked[:top]
        return [
            (
                static_id,
                self.aborts_by_static.get(static_id, 0),
                self.commits_by_static.get(static_id, 0),
                wasted,
            )
            for static_id, wasted in ranked
        ]


class JsonlTraceSink:
    """Streams events as JSON lines and forwards them to an inner sink.

    The first line is always a schema header::

        {"event": "trace_header", "schema": "repro-asf-trace",
         "major": 1, "minor": 1, "trace_accesses": false,
         "metadata": {...caller-supplied run context...}}

    then one line per event, ``{"event": <kind>, ...scalar fields}``,
    written in emission order — deterministic for a deterministic run.
    Per-access events dominate trace volume, so they are gated behind
    ``trace_accesses`` (off by default); everything else is always
    written.  ``on_run_complete`` writes the final marker and closes the
    file.  Attribute reads the trace sink does not define (``summary``,
    counters, …) proxy to the inner sink.

    ``metadata`` is free-form JSON-safe run context (scheme, seed,
    workload, …) carried verbatim in the header for post-mortem analysis;
    it never affects how events are written or read.
    """

    def __init__(
        self,
        path,
        inner=None,
        trace_accesses: bool = False,
        metadata: dict | None = None,
    ) -> None:
        self.path = path
        self.inner = inner if inner is not None else CounterSink()
        self.trace_accesses = trace_accesses
        self.metadata = dict(metadata) if metadata else {}
        self.events_written = 0
        self._fh = open(path, "w", encoding="utf-8")
        self._write = self._fh.write
        # The header is format framing, not an event: written directly so
        # events_written stays the count of simulation events.
        self._fh.write(
            json.dumps(
                {
                    "event": "trace_header",
                    "schema": TRACE_SCHEMA,
                    "major": TRACE_SCHEMA_MAJOR,
                    "minor": TRACE_SCHEMA_MINOR,
                    "trace_accesses": self.trace_accesses,
                    "metadata": self.metadata,
                },
                separators=(",", ":"),
            )
            + "\n"
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __getattr__(self, name: str):
        # Only reached for attributes not defined on the trace sink
        # itself: proxy counters/summary/etc. to the inner sink.
        return getattr(self.inner, name)

    # -- event hooks ---------------------------------------------------------
    #
    # Each hook writes one preformatted line, byte-identical to
    # ``json.dumps(<the event's dict>, separators=(",", ":"))``: ints go
    # through ``:d`` (a bool there would write ``1``, never ``True``),
    # bools index ``_BOOL``, strings go through the escaper json.dumps
    # itself uses.  The keys and their order are the trace format.

    def on_txn_start(self, core: int, time: int, attempt: int, static_id: int) -> None:
        self._write(
            f'{{"event":"txn_start","core":{core:d},"time":{time:d},'
            f'"attempt":{attempt:d},"static_id":{static_id:d}}}\n'
        )
        self.events_written += 1
        self.inner.on_txn_start(core, time, attempt, static_id)

    def on_txn_commit(self, core: int, time: int) -> None:
        self._write(f'{{"event":"txn_commit","core":{core:d},"time":{time:d}}}\n')
        self.events_written += 1
        self.inner.on_txn_commit(core, time)

    def on_txn_abort(self, core: int, time: int, cause: str, wasted_cycles: int) -> None:
        self._write(
            f'{{"event":"txn_abort","core":{core:d},"time":{time:d},'
            f'"cause":{_json_str(cause)},"wasted_cycles":{wasted_cycles:d}}}\n'
        )
        self.events_written += 1
        self.inner.on_txn_abort(core, time, cause, wasted_cycles)

    def on_conflict(self, rec) -> None:
        self._write(
            f'{{"event":"conflict","time":{rec.time:d},'
            f'"requester_core":{rec.requester_core:d},'
            f'"victim_core":{rec.victim_core:d},'
            f'"requester_txn":{rec.requester_txn:d},'
            f'"victim_txn":{rec.victim_txn:d},'
            f'"line_addr":{rec.line_addr:d},"line_index":{rec.line_index:d},'
            f'"ctype":{_json_str(rec.ctype.value)},'
            f'"is_false":{_BOOL[rec.is_false]},'
            f'"requester_is_write":{_BOOL[rec.requester_is_write]},'
            f'"requester_mask":{rec.requester_mask:d},'
            f'"victim_read_mask":{rec.victim_read_mask:d},'
            f'"victim_write_mask":{rec.victim_write_mask:d},'
            f'"forced_waw":{_BOOL[rec.forced_waw]},'
            f'"at_commit":{_BOOL[getattr(rec, "at_commit", False)]}}}\n'
        )
        self.events_written += 1
        self.inner.on_conflict(rec)

    def on_access(
        self, core: int, line_addr: int, offset: int, is_write: bool, hit_l1: bool
    ) -> None:
        if self.trace_accesses:
            self._write(
                f'{{"event":"access","core":{core:d},"line_addr":{line_addr:d},'
                f'"offset":{offset:d},"is_write":{_BOOL[is_write]},'
                f'"hit_l1":{_BOOL[hit_l1]}}}\n'
            )
            self.events_written += 1
        self.inner.on_access(core, line_addr, offset, is_write, hit_l1)

    def on_backoff(self, core: int, cycles: int) -> None:
        self._write(f'{{"event":"backoff","core":{core:d},"cycles":{cycles:d}}}\n')
        self.events_written += 1
        self.inner.on_backoff(core, cycles)

    def on_stall(self, core: int, time: int, cycles: int, aborted: bool) -> None:
        self._write(
            f'{{"event":"stall","core":{core:d},"time":{time:d},'
            f'"cycles":{cycles:d},"aborted":{_BOOL[aborted]}}}\n'
        )
        self.events_written += 1
        self.inner.on_stall(core, time, cycles, aborted)

    def on_dirty_reprobe(self, core: int, line_addr: int, time: int) -> None:
        self._write(
            f'{{"event":"dirty_reprobe","core":{core:d},'
            f'"line_addr":{line_addr:d},"time":{time:d}}}\n'
        )
        self.events_written += 1
        self.inner.on_dirty_reprobe(core, line_addr, time)

    def on_fill(self, core: int, line_addr: int, level: str) -> None:
        self._write(
            f'{{"event":"fill","core":{core:d},"line_addr":{line_addr:d},'
            f'"level":{_json_str(level)}}}\n'
        )
        self.events_written += 1
        self.inner.on_fill(core, line_addr, level)

    def on_run_complete(
        self, execution_cycles: int, per_core_cycles: Sequence[int]
    ) -> None:
        self._write(
            json.dumps(
                {
                    "event": "run_complete",
                    "execution_cycles": execution_cycles,
                    "per_core_cycles": list(per_core_cycles),
                },
                separators=(",", ":"),
            )
            + "\n"
        )
        self.events_written += 1
        self.inner.on_run_complete(execution_cycles, per_core_cycles)
        self.close()


def cumulative_series(
    times: list[int], horizon: int, n_points: int
) -> list[tuple[int, int]]:
    """Sample a cumulative count of sorted-ish event times at n_points.

    The Figure 3 primitive behind :class:`DetailSink`'s cumulative
    series.
    """
    if horizon <= 0:
        horizon = max(times, default=1)
    ordered = sorted(times)
    out: list[tuple[int, int]] = []
    idx = 0
    for k in range(1, n_points + 1):
        t = horizon * k // n_points
        while idx < len(ordered) and ordered[idx] <= t:
            idx += 1
        out.append((t, idx))
    return out


SUMMARY_KEYS = (
    "txn_attempts",
    "txn_commits",
    "aborts_total",
    "aborts_conflict_true",
    "aborts_conflict_false",
    "aborts_capacity",
    "aborts_user",
    "aborts_validation",
    "conflicts_total",
    "conflicts_false",
    "false_rate",
    "avg_retries",
    "execution_cycles",
    "wasted_cycles",
    "backoff_cycles",
    "l1_hits",
    "l1_misses",
    "dirty_reprobes",
    "forced_waw_aborts",
    "fills_l2",
    "fills_l3",
    "fills_memory",
    "fills_remote",
    "stalls",
    "stall_cycles",
    "stall_aborts",
    "arbitration_aborts",
)
"""Keys of :func:`summary_dict`, in emission order."""
