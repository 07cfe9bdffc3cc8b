"""Trace-driven conflict forensics: read a recorded JSONL event trace
back into typed events and reconstruct the paper's characterization
figures from it.

:class:`repro.telemetry.sinks.JsonlTraceSink` streams every typed event
of a run to disk; this module closes the loop — the top open item of the
ROADMAP — with three layers:

* :class:`TraceReader` — a streaming iterator over a trace file.  It
  validates the versioned schema header up front (unknown major versions
  are a :class:`~repro.errors.ConfigError`, not a ``KeyError`` mid-file),
  tolerates a torn final line exactly like
  :class:`~repro.store.ResultsStore` (a crash loses at most the event
  being written), and yields the frozen dataclasses of
  :mod:`repro.telemetry.events` — the same types the simulator emitted.
* :class:`ConflictTimeline` — a reconstruction of the run: per-core
  transaction attempt intervals, every conflict tied to the victim
  attempt it killed, and a :class:`~repro.telemetry.sinks.CounterSink`
  *replayed from the events*, so trace-derived WAR/RAW/WAW totals are
  bit-for-bit comparable with the live run's counters (the parity tests
  assert equality across schemes × workloads).
* Figure computations + renderers — the paper's time-distribution
  (Fig. 3), conflicting-line distribution (Fig. 4) and intra-line
  conflict-location (Fig. 5) characterizations, plus a forensics report
  (top conflicting lines, abort cascades, wasted-cycle attribution per
  static transaction).  :func:`analyze_trace` is the one-call wrapper the
  ``repro-asf analyze`` subcommand prints.

Fig. 3's cumulative curves use the same
:func:`~repro.telemetry.sinks.cumulative_series` primitive as the live
:class:`~repro.telemetry.sinks.DetailSink`, so a trace-derived Figure 3
bins identically to a live one.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from itertools import compress
from operator import itemgetter

from repro.errors import ConfigError
from repro.htm.conflict import ConflictType
from repro.htm.txn import AbortCause
from repro.telemetry.events import (
    AccessEvent,
    BackoffEvent,
    ConflictEvent,
    DirtyReprobeEvent,
    FillEvent,
    RunCompleteEvent,
    StallEvent,
    TxnAbortEvent,
    TxnCommitEvent,
    TxnStartEvent,
)
from repro.telemetry.sinks import (
    TRACE_SCHEMA,
    TRACE_SCHEMA_MAJOR,
    CounterSink,
    cumulative_series,
)
from repro.util.tables import format_table, percent

__all__ = [
    "AttemptRecord",
    "CascadeStats",
    "ConflictTimeline",
    "TraceHeader",
    "TraceReader",
    "analyze_trace",
    "read_events",
    "render_trace_counters",
    "render_trace_fig3",
    "render_trace_fig4",
    "render_trace_fig5",
    "render_trace_forensics",
]

#: Keys of ``summary()`` that can only be recomputed from per-access
#: events — absent from a default (``trace_accesses=False``) trace.
ACCESS_DERIVED_KEYS = ("l1_hits", "l1_misses")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceHeader:
    """The validated schema header of one trace file."""

    schema: str
    major: int
    minor: int
    trace_accesses: bool
    metadata: dict

    @property
    def line_size(self) -> int:
        """Cache-line size recorded at capture time (64 if absent)."""
        return int(self.metadata.get("line_size", 64))


#: Bound on every decoded integer: simulator quantities are 64-bit, and
#: larger values would overflow the float arithmetic of the figures.
_INT_BITS = 64

#: JSON type of a field, by its annotation.
_JSON_TYPES = {"int": int, "bool": bool, "str": str}


def _mask(value: int) -> int:
    if value < 0:
        raise ValueError("negative byte mask")  # would never shift to 0
    return value


def _int_tuple(values: list) -> tuple[int, ...]:
    """A JSON list of 64-bit ints as a tuple (``TypeError`` otherwise)."""
    if any(type(v) is not int or v.bit_length() > _INT_BITS for v in values):
        raise TypeError(f"not a list of ints: {values!r:.40}")
    return tuple(values)


#: Fields converted after the JSON type check: name → (JSON type,
#: conversion).  Enum strings map through dicts built from the enums.
_CONVERTED = {
    "ctype": (str, {t.value: t for t in ConflictType}.__getitem__),
    "cause": (str, {c.value: c.value for c in AbortCause}.__getitem__),
    "requester_mask": (int, _mask),
    "victim_read_mask": (int, _mask),
    "victim_write_mask": (int, _mask),
    "per_core_cycles": (list, _int_tuple),
}


def _decoder(cls):
    """The decoder of one event kind, derived from its dataclass's fields.

    Every field without a default is required.  Every value must have
    its field's exact JSON type (``bool`` is not an ``int``) and every
    int must fit in 64 bits; both are checked before anything is built.
    The :data:`_CONVERTED` fields are then converted, and the frozen
    event is built positionally.
    """
    fs = fields(cls)
    names = tuple(f.name for f in fs)
    # A list, compared with list(map(type, values)): tuple(map(...)) would
    # park a resized tuple on the interpreter's free lists per event,
    # about 1 MB of peak RSS on a forensics run.
    types = [
        _CONVERTED[f.name][0] if f.name in _CONVERTED else _JSON_TYPES[f.type]
        for f in fs
    ]
    is_int = tuple(kind is int for kind in types)
    # Every kind has at least two required fields, so ``get`` returns a
    # tuple, and at least one int field, so the bound check has a max.
    get = itemgetter(*(f.name for f in fs if f.default is MISSING))
    optional = tuple((f.name, f.default) for f in fs if f.default is not MISSING)
    converts = tuple(
        (i, _CONVERTED[name][1]) for i, name in enumerate(names) if name in _CONVERTED
    )

    def decode(payload: dict):
        values = get(payload)  # KeyError names a missing field
        if optional:
            values += tuple(payload.get(name, default) for name, default in optional)
        if (
            list(map(type, values)) != types
            or max(map(int.bit_length, compress(values, is_int))) > _INT_BITS
        ):
            raise _field_error(names, types, values)
        if converts:
            values = list(values)
            for i, convert in converts:
                values[i] = convert(values[i])
        return cls(*values)

    return decode


def _field_error(names, types, values) -> TypeError:
    """The error naming the first field of the wrong JSON type or width."""
    name, kind, value = next(
        (name, kind, value)
        for name, kind, value in zip(names, types, values)
        if type(value) is not kind or kind is int and value.bit_length() > _INT_BITS
    )
    width = "64-bit " if kind is int else ""
    return TypeError(f"field {name!r} must be a {width}{kind.__name__}, got {value!r:.40}")


#: Event kind (the JSON ``event`` field) → its decoder.
_EVENT_DECODERS = {
    kind: _decoder(cls)
    for kind, cls in (
        ("txn_start", TxnStartEvent),
        ("txn_commit", TxnCommitEvent),
        ("txn_abort", TxnAbortEvent),
        ("conflict", ConflictEvent),
        ("access", AccessEvent),
        ("backoff", BackoffEvent),
        ("stall", StallEvent),
        ("dirty_reprobe", DirtyReprobeEvent),
        ("fill", FillEvent),
        ("run_complete", RunCompleteEvent),
    )
}


_scan = json.JSONDecoder().scan_once


def _parse_line(raw: bytes):
    """``json.loads(raw)`` for one newline-terminated line, made cheap.

    A strict UTF-8 decode plus one scan settles a line that holds one
    JSON value and then its newline.  Every other line (a BOM, padding,
    bytes that are not UTF-8, trailing data) goes to ``json.loads``
    itself, so each line gets exactly ``json.loads``'s verdict.
    """
    try:
        text = raw.decode()
        value, end = _scan(text, 0)
        if end == len(text) - 1:
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(raw)


class TraceReader:
    """Streaming reader over one JSONL trace file.

    Opening validates the header line eagerly: a missing or foreign
    header, or an unknown schema *major* version, raises
    :class:`~repro.errors.ConfigError` before any event is consumed
    (newer *minor* revisions are accepted — additive changes only).
    Iteration then yields one typed event per line.  A torn final line —
    a crash mid-write — ends the stream cleanly and sets
    :attr:`truncated`; event kinds this reader does not know (future
    minor revisions) are skipped and counted in :attr:`unknown_events`.
    A line that is not an event object, or a known event with a missing
    or mistyped field, raises ``ConfigError`` naming the file and line.

    Usable as a context manager.  The file closes when iteration ends,
    whether at the end of the file or with an error, and a closed reader
    yields nothing more.
    """

    def __init__(self, path) -> None:
        self.path = str(path)
        self.truncated = False
        self.events_read = 0
        self.unknown_events = 0
        self._line_no = 1
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise ConfigError(f"cannot read trace {self.path}: {exc.strerror}") from None
        self._readline = self._fh.readline
        try:
            self.header = self._read_header()
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self) -> TraceHeader:
        raw = self._fh.readline()
        try:
            payload = json.loads(raw) if raw.endswith(b"\n") else None
        except (ValueError, RecursionError):  # not JSON, or not UTF-8
            payload = None
        if not isinstance(payload, dict) or payload.get("event") != "trace_header":
            raise ConfigError(
                f"{self.path} has no trace schema header — not a "
                f"{TRACE_SCHEMA} file (or recorded before headers existed); "
                "re-record it with `repro-asf trace`"
            )
        if payload.get("schema") != TRACE_SCHEMA:
            raise ConfigError(
                f"{self.path} carries schema {payload.get('schema')!r}, "
                f"expected {TRACE_SCHEMA!r}"
            )
        major = payload.get("major")
        if major != TRACE_SCHEMA_MAJOR:
            raise ConfigError(
                f"{self.path} uses trace schema major version {major}; "
                f"this reader supports major {TRACE_SCHEMA_MAJOR} only"
            )
        minor = payload.get("minor", 0)
        metadata = payload.get("metadata", {})
        line_size = metadata.get("line_size", 64) if isinstance(metadata, dict) else 0
        # Byte masks are 64-bit, so no wider line can be described.
        if not (
            type(minor) is int
            and type(line_size) is int
            and 0 < line_size <= _INT_BITS
            and (line_size & (line_size - 1)) == 0
        ):
            raise ConfigError(
                f"{self.path}:1: malformed trace header: 'minor' must be an "
                "int, 'metadata' an object and its 'line_size' a power of "
                f"two of at most {_INT_BITS} bytes"
            )
        return TraceHeader(
            schema=payload["schema"],
            major=major,
            minor=minor,
            trace_accesses=bool(payload.get("trace_accesses", False)),
            metadata=dict(metadata),
        )

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> "TraceReader":
        return self

    def __next__(self):
        while True:
            raw = self._readline()
            if not raw:
                self.close()
                raise StopIteration
            self._line_no += 1
            if not raw.endswith(b"\n"):
                # Torn tail: a crash mid-write.  Everything before it is
                # intact, so end the stream rather than erroring.
                self.truncated = True
                self.close()
                raise StopIteration
            try:
                payload = _parse_line(raw)
            except (ValueError, RecursionError):  # not JSON, or not UTF-8
                self.truncated = True
                self.close()
                raise StopIteration from None
            kind = payload.get("event") if type(payload) is dict else None
            if type(kind) is not str:
                self.close()
                raise ConfigError(
                    f"{self.path}:{self._line_no}: not an event (a JSON "
                    "object with a string 'event' field)"
                )
            decode = _EVENT_DECODERS.get(kind)
            if decode is None:
                self.unknown_events += 1
                continue
            try:
                event = decode(payload)
            except (KeyError, TypeError, ValueError) as exc:
                self.close()
                raise ConfigError(
                    f"{self.path}:{self._line_no}: malformed "
                    f"{kind!r} event ({exc!r})"
                ) from exc
            self.events_read += 1
            return event

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._fh.close()
        # A closed reader stays at end of file: next() raises StopIteration.
        self._readline = lambda: b""

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(path) -> tuple[TraceHeader, list]:
    """Read a whole trace eagerly: ``(header, [typed events])``."""
    with TraceReader(path) as reader:
        return reader.header, list(reader)


# ---------------------------------------------------------------------------
# Timeline reconstruction
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AttemptRecord:
    """One transaction attempt's interval, as reconstructed from a trace.

    ``outcome`` is ``"commit"``, an abort-cause string, or ``None`` for
    an attempt still open when the trace ended (torn trace).
    """

    core: int
    static_id: int
    attempt: int
    start: int
    end: int | None = None
    outcome: str | None = None
    wasted_cycles: int = 0

    @property
    def duration(self) -> int:
        return (self.end - self.start) if self.end is not None else 0


@dataclass(frozen=True, slots=True)
class CascadeStats:
    """Abort-cascade measurement over a timeline's conflict stream.

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


class ConflictTimeline:
    """A run reconstructed from its event trace.

    Build with :meth:`from_trace` (a path or an open
    :class:`TraceReader`) or :meth:`from_events`.  The timeline holds:

    * :attr:`attempts` — every transaction attempt's
      :class:`AttemptRecord` interval, in start order;
    * :attr:`conflicts` — every :class:`ConflictEvent`, each paired with
      the index of the victim attempt it interrupted;
    * :attr:`counters` — a :class:`CounterSink` replayed from the events:
      every counter a live run accumulates that is derivable from the
      traced event kinds is recomputed here, bit-for-bit.
    """

    def __init__(self, header: TraceHeader | None = None) -> None:
        self.header = header
        self.counters = CounterSink()
        self.attempts: list[AttemptRecord] = []
        #: (conflict, victim attempt index or None) in stream order.
        self.conflicts: list[tuple[ConflictEvent, int | None]] = []
        self.access_offsets: Counter[int] = Counter()
        self.wasted_by_static: Counter[int] = Counter()
        self.aborts_by_static: Counter[int] = Counter()
        self.commits_by_static: Counter[int] = Counter()
        self._open: dict[int, int] = {}
        self._line_addr: dict[int, int] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_trace(cls, source) -> "ConflictTimeline":
        """Reconstruct from a trace file path or an open reader."""
        reader = source if isinstance(source, TraceReader) else TraceReader(source)
        with reader:
            timeline = cls(header=reader.header)
            for event in reader:
                timeline.feed(event)
        return timeline

    @classmethod
    def from_events(cls, events, header: TraceHeader | None = None) -> "ConflictTimeline":
        """Reconstruct from an in-memory event sequence (tests, filters)."""
        timeline = cls(header=header)
        for event in events:
            timeline.feed(event)
        return timeline

    def feed(self, event) -> None:
        """Fold one typed event into the reconstruction."""
        c = self.counters
        if isinstance(event, TxnStartEvent):
            c.on_txn_start(event.core, event.time, event.attempt, event.static_id)
            self._open[event.core] = len(self.attempts)
            self.attempts.append(
                AttemptRecord(
                    core=event.core,
                    static_id=event.static_id,
                    attempt=event.attempt,
                    start=event.time,
                )
            )
        elif isinstance(event, TxnCommitEvent):
            c.on_txn_commit(event.core, event.time)
            idx = self._open.pop(event.core, None)
            if idx is not None:
                rec = self.attempts[idx]
                rec.end = event.time
                rec.outcome = "commit"
                self.commits_by_static[rec.static_id] += 1
        elif isinstance(event, TxnAbortEvent):
            c.on_txn_abort(event.core, event.time, event.cause, event.wasted_cycles)
            idx = self._open.pop(event.core, None)
            if idx is not None:
                rec = self.attempts[idx]
                rec.end = event.time
                rec.outcome = event.cause
                rec.wasted_cycles = event.wasted_cycles
                self.wasted_by_static[rec.static_id] += event.wasted_cycles
                self.aborts_by_static[rec.static_id] += 1
        elif isinstance(event, ConflictEvent):
            c.on_conflict(event)
            self._line_addr.setdefault(event.line_index, event.line_addr)
            self.conflicts.append((event, self._open.get(event.victim_core)))
        elif isinstance(event, AccessEvent):
            c.on_access(
                event.core, event.line_addr, event.offset, event.is_write,
                event.hit_l1,
            )
            self.access_offsets[event.offset] += 1
        elif isinstance(event, BackoffEvent):
            c.on_backoff(event.core, event.cycles)
        elif isinstance(event, StallEvent):
            c.on_stall(event.core, event.time, event.cycles, event.aborted)
        elif isinstance(event, DirtyReprobeEvent):
            c.on_dirty_reprobe(event.core, event.line_addr, event.time)
        elif isinstance(event, FillEvent):
            c.on_fill(event.core, event.line_addr, event.level)
        elif isinstance(event, RunCompleteEvent):
            c.on_run_complete(event.execution_cycles, event.per_core_cycles)

    # -- basic properties ----------------------------------------------------

    @property
    def line_size(self) -> int:
        return self.header.line_size if self.header is not None else 64

    @property
    def execution_cycles(self) -> int:
        return self.counters.execution_cycles

    def summary(self) -> dict[str, object]:
        """The replayed counters' summary (same keys as a live run)."""
        return self.counters.summary()

    def parity_summary(self) -> dict[str, object]:
        """The summary restricted to keys a trace of this shape carries.

        Per-access counters (:data:`ACCESS_DERIVED_KEYS`) only round-trip
        when the trace was recorded with ``trace_accesses=True``; against
        a default trace they are dropped so the remaining dict compares
        bit-for-bit with the live run's.
        """
        out = self.summary()
        if self.header is None or not self.header.trace_accesses:
            for key in ACCESS_DERIVED_KEYS:
                out.pop(key, None)
        return out

    # -- Figure 3: conflicts over time / transaction lifetime ----------------

    def cumulative_false_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative false conflicts) — live Fig. 3, from a trace."""
        times = [c.time for c, _ in self.conflicts if c.is_false]
        return cumulative_series(times, self.execution_cycles, n_points)

    def cumulative_starts_series(self, n_points: int = 100) -> list[tuple[int, int]]:
        """(time, cumulative transaction starts) — the Fig. 3 companion."""
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
        for conflict, idx in self.conflicts:
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
        """(line index, conflicts) sorted by line index — live Fig. 4."""
        counts: Counter[int] = Counter()
        for conflict, _ in self.conflicts:
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
        return [
            (index, self._line_addr.get(index, index * self.line_size), count)
            for index, count in ranked
        ]

    # -- Figure 5: conflict location inside the line -------------------------

    def conflict_offset_histogram(
        self, false_only: bool = True
    ) -> list[tuple[int, int]]:
        """(byte offset, conflicting-access bytes) over requester masks.

        Where inside the cache line the conflicting accesses actually
        landed — the trace-side edition of the paper's intra-line
        access-location characterization.
        """
        counts: Counter[int] = Counter()
        for conflict, _ in self.conflicts:
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
        """The offset histogram folded into ``n_subblocks`` buckets."""
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
        """(byte offset, accesses) — live Fig. 5; empty unless the trace
        was recorded with ``trace_accesses=True``."""
        return sorted(self.access_offsets.items())

    # -- forensics -----------------------------------------------------------

    def abort_cascades(self, window: int = 5000) -> CascadeStats:
        """Chain conflicts through the retry path (see :class:`CascadeStats`)."""
        last_victim: dict[int, tuple[int, int]] = {}
        depths: Counter[int] = Counter()
        for conflict, _ in self.conflicts:
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


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_trace_counters(timeline: ConflictTimeline) -> str:
    """The replayed aggregate counters, as a two-column table."""
    rows = [(key, value if not isinstance(value, float) else f"{value:.4f}")
            for key, value in timeline.parity_summary().items()]
    meta = timeline.header.metadata if timeline.header is not None else {}
    context = ", ".join(
        f"{key}={meta[key]}" for key in ("scheme", "seed", "workload")
        if key in meta
    )
    return format_table(
        ("counter", "value"),
        rows,
        title="Trace-derived run counters" + (f" ({context})" if context else ""),
    )


def render_trace_fig3(timeline: ConflictTimeline, bins: int = 10,
                      n_points: int = 50) -> str:
    """Fig. 3 from a trace: cumulative curves + lifetime distribution."""
    from repro.util.tables import format_series

    cumulative = format_series(
        {
            "false conflicts": [c for _, c in
                                timeline.cumulative_false_series(n_points)],
            "txn starts": [c for _, c in
                           timeline.cumulative_starts_series(n_points)],
        },
        title="cumulative over execution time",
    )
    hist = timeline.conflict_lifetime_histogram(bins=bins)
    total = sum(hist)
    rows = [
        (f"[{k / bins:.0%}, {(k + 1) / bins:.0%})", count,
         percent(count / total) if total else percent(0.0))
        for k, count in enumerate(hist)
    ]
    lifetime = format_table(
        ("attempt lifetime", "false conflicts", "share"),
        rows,
        title="false conflicts over normalized victim-attempt lifetime",
    )
    return (
        "Figure 3 (from trace): False conflicts over execution\n"
        + cumulative + "\n" + lifetime
    )


def render_trace_fig4(timeline: ConflictTimeline, top: int = 8) -> str:
    """Fig. 4 from a trace: false-conflict frequency ranking per line."""
    hist = timeline.line_histogram()
    total = sum(count for _, count in hist)
    ranked = timeline.line_ranking(top=top)
    covered = sum(count for _, _, count in ranked)
    rows = [
        (index, f"{addr:#x}", count, percent(count / total) if total else "0.0%")
        for index, addr, count in ranked
    ]
    table = format_table(
        ("line index", "line addr", "false conflicts", "share"),
        rows,
        title=(
            f"Figure 4 (from trace): {len(hist)} lines with false conflicts; "
            f"top {len(ranked)} carry "
            f"{percent(covered / total) if total else '0.0%'}"
        ),
    )
    return table


def render_trace_fig5(timeline: ConflictTimeline, n_subblocks: int = 4) -> str:
    """Fig. 5 from a trace: conflict location inside the cache line."""
    from repro.util.tables import format_series

    counts = dict(timeline.conflict_offset_histogram())
    series = [counts.get(offset, 0) for offset in range(timeline.line_size)]
    byte_plot = format_series(
        {"false-conflict bytes": series},
        title="per byte offset",
    )
    sub = timeline.conflict_subblock_histogram(n_subblocks)
    total = sum(count for _, count in sub)
    sub_rows = [
        (f"sub-block {index}", count,
         percent(count / total) if total else "0.0%")
        for index, count in sub
    ]
    sub_table = format_table(
        ("location", "false-conflict bytes", "share"),
        sub_rows,
        title=f"folded into {n_subblocks} sub-blocks",
    )
    parts = [
        "Figure 5 (from trace): Conflict location inside cache lines",
        byte_plot,
        sub_table,
    ]
    access = timeline.access_offset_histogram()
    if access:
        counts = dict(access)
        series = [counts.get(offset, 0) for offset in range(timeline.line_size)]
        parts.append(
            format_series({"all accesses": series}, title="per byte offset")
        )
    return "\n".join(parts)


def render_trace_forensics(
    timeline: ConflictTimeline, top: int = 8, cascade_window: int = 5000
) -> str:
    """Top conflicting lines, abort cascades, wasted-cycle attribution."""
    parts = ["Forensics report"]

    line_rows = [
        (index, f"{addr:#x}", count)
        for index, addr, count in timeline.line_ranking(top=top)
    ]
    parts.append(
        format_table(
            ("line index", "line addr", "false conflicts"),
            line_rows,
            title=f"Top {len(line_rows)} conflicting lines",
        )
    )

    cascades = timeline.abort_cascades(window=cascade_window)
    total = sum(cascades.depths.values())
    # Deep chains get a single collapsed tail row so hot runs stay readable.
    cascade_rows: list[tuple[object, int, str]] = []
    tail = 0
    for depth, count in sorted(cascades.depths.items()):
        if depth <= 8:
            cascade_rows.append(
                (depth, count, percent(count / total) if total else "0.0%")
            )
        else:
            tail += count
    if tail:
        cascade_rows.append(
            (f"9..{cascades.max_depth}", tail,
             percent(tail / total) if total else "0.0%")
        )
    parts.append(
        format_table(
            ("cascade depth", "conflicts", "share"),
            cascade_rows,
            title=(
                f"Abort cascades (window {cascades.window} cycles): "
                f"{cascades.cascaded} of {total} conflicts were caused by a "
                f"freshly-aborted core; max depth {cascades.max_depth}"
            ),
        )
    )

    total_wasted = timeline.counters.wasted_cycles
    wasted_rows = [
        (static_id, aborts, commits, wasted,
         percent(wasted / total_wasted) if total_wasted else "0.0%")
        for static_id, aborts, commits, wasted
        in timeline.wasted_cycle_ranking(top=top)
    ]
    parts.append(
        format_table(
            ("static txn", "aborts", "commits", "wasted cycles", "share"),
            wasted_rows,
            title=(
                f"Wasted-cycle attribution: {total_wasted} cycles across "
                f"{len(timeline.wasted_by_static)} static transactions"
            ),
        )
    )
    return "\n\n".join(parts)


#: Figure selectors accepted by :func:`analyze_trace` and the CLI.
TRACE_FIGURES = ("3", "4", "5")


def analyze_trace(
    path,
    figs: tuple[str, ...] = TRACE_FIGURES,
    bins: int = 10,
    n_points: int = 50,
    top: int = 8,
    n_subblocks: int = 4,
    cascade_window: int = 5000,
) -> str:
    """Full post-mortem report over one recorded trace, as printable text.

    ``figs`` selects which of the Fig. 3/4/5 reconstructions to include;
    the counter table and forensics report are always rendered.  This is
    exactly what ``repro-asf analyze`` prints.
    """
    unknown = set(figs) - set(TRACE_FIGURES)
    if unknown:
        raise ConfigError(
            f"unknown figure selector(s) {sorted(unknown)}; "
            f"valid: {TRACE_FIGURES}"
        )
    timeline = ConflictTimeline.from_trace(path)
    parts = [render_trace_counters(timeline)]
    if "3" in figs:
        parts.append(render_trace_fig3(timeline, bins=bins, n_points=n_points))
    if "4" in figs:
        parts.append(render_trace_fig4(timeline, top=top))
    if "5" in figs:
        parts.append(render_trace_fig5(timeline, n_subblocks=n_subblocks))
    parts.append(
        render_trace_forensics(timeline, top=top, cascade_window=cascade_window)
    )
    return ("\n\n" + "=" * 72 + "\n\n").join(parts)
