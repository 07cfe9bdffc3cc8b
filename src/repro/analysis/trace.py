"""Trace-driven conflict forensics: read a recorded JSONL event trace
back into typed events and reconstruct the paper's characterization
figures from it.

:class:`repro.telemetry.sinks.JsonlTraceSink` streams every typed event
of a run to disk; this module closes the loop with three layers:

* :class:`TraceReader` — a streaming iterator over a trace file.  It
  validates the versioned schema header up front (unknown major versions
  are a :class:`~repro.errors.ConfigError`, not a ``KeyError`` mid-file),
  tolerates a torn final line exactly like
  :class:`~repro.store.ResultsStore` (a crash loses at most the event
  being written), and yields the frozen dataclasses of
  :mod:`repro.telemetry.events` — the same types the simulator emitted.
* :class:`ConflictTimeline` — the run's
  :class:`~repro.telemetry.sinks.DetailSink`, rebuilt by feeding each
  decoded event to the hook the live run called, so it equals the live
  sink bit for bit (the parity tests assert it).
* Renderers — the paper's Fig. 3/4/5 characterizations of one run plus a
  forensics report (top conflicting lines, abort cascades, wasted-cycle
  attribution per static transaction), over any ``DetailSink``, live or
  replayed.  :func:`analyze_trace` is what ``repro-asf analyze`` prints.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from itertools import compress
from operator import attrgetter, itemgetter

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
    AttemptRecord,
    CascadeStats,
    DetailSink,
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
    "render_trace_report",
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


#: Event kind (the JSON ``event`` field) and the event class it decodes to.
_EVENT_KINDS = (
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

#: Event kind → its decoder.
_EVENT_DECODERS = {kind: _decoder(cls) for kind, cls in _EVENT_KINDS}

#: Event class → (the sink hook the live run called, the hook's arguments
#: taken from the event).  Each event class lists its hook's parameters
#: as its fields, in order; a conflict is passed whole, as the machine
#: passes its record.
_HOOKS = {
    cls: (
        "on_" + kind,
        (lambda event: (event,))
        if cls is ConflictEvent
        else attrgetter(*(f.name for f in fields(cls))),
    )
    for kind, cls in _EVENT_KINDS
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
        trace_accesses = payload.get("trace_accesses", False)
        metadata = payload.get("metadata", {})
        line_size = metadata.get("line_size", 64) if isinstance(metadata, dict) else 0
        # Byte masks are 64-bit, so no wider line can be described.
        if not (
            type(minor) is int
            and type(trace_accesses) is bool
            and type(line_size) is int
            and 0 < line_size <= _INT_BITS
            and (line_size & (line_size - 1)) == 0
        ):
            raise ConfigError(
                f"{self.path}:1: malformed trace header: 'minor' must be an "
                "int, 'trace_accesses' a bool, 'metadata' an object and its "
                f"'line_size' a power of two of at most {_INT_BITS} bytes"
            )
        return TraceHeader(
            schema=payload["schema"],
            major=major,
            minor=minor,
            trace_accesses=trace_accesses,
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


class ConflictTimeline(DetailSink):
    """A run's :class:`~repro.telemetry.sinks.DetailSink`, reconstructed
    from its event trace by feeding each event to the hook the live run
    called.  Build with :meth:`from_trace` (a path or an open
    :class:`TraceReader`) or :meth:`from_events`; it adds the trace's
    :attr:`header` (whose ``line_size`` it bins by) and
    :meth:`parity_summary`.
    """

    def __init__(self, header: TraceHeader | None = None) -> None:
        super().__init__(header.line_size if header is not None else 64)
        self.header = header

    # -- construction --------------------------------------------------------

    @classmethod
    def from_trace(cls, source) -> "ConflictTimeline":
        """Reconstruct from a trace file path or an open reader."""
        reader = source if isinstance(source, TraceReader) else TraceReader(source)
        with reader:
            return cls.from_events(reader, header=reader.header)

    @classmethod
    def from_events(cls, events, header: TraceHeader | None = None) -> "ConflictTimeline":
        """Reconstruct from a sequence of typed events (tests, filters)."""
        timeline = cls(header=header)
        hooks = {
            event_cls: (getattr(timeline, name), args)
            for event_cls, (name, args) in _HOOKS.items()
        }
        for event in events:
            hook, args = hooks[type(event)]
            hook(*args(event))
        return timeline

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


def render_trace_fig3(timeline: DetailSink, bins: int = 10,
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


def render_trace_fig4(timeline: DetailSink, top: int = 8) -> str:
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


def render_trace_fig5(timeline: DetailSink, n_subblocks: int = 4) -> str:
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
    timeline: DetailSink, top: int = 8, cascade_window: int = 5000
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

    total_wasted = timeline.wasted_cycles
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


def _check_figures(figs: tuple[str, ...]) -> None:
    unknown = set(figs) - set(TRACE_FIGURES)
    if unknown:
        raise ConfigError(
            f"unknown figure selector(s) {sorted(unknown)}; "
            f"valid: {TRACE_FIGURES}"
        )


def render_trace_report(
    timeline: ConflictTimeline,
    figs: tuple[str, ...] = TRACE_FIGURES,
    bins: int = 10,
    n_points: int = 50,
    top: int = 8,
    n_subblocks: int = 4,
    cascade_window: int = 5000,
) -> str:
    """Full post-mortem report over one reconstructed run, as printable text.

    ``figs`` selects which of the Fig. 3/4/5 reconstructions to include;
    the counter table and forensics report are always rendered.
    """
    _check_figures(figs)
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


def analyze_trace(
    path,
    figs: tuple[str, ...] = TRACE_FIGURES,
    bins: int = 10,
    n_points: int = 50,
    top: int = 8,
    n_subblocks: int = 4,
    cascade_window: int = 5000,
) -> str:
    """:func:`render_trace_report` over the trace at ``path``.

    This is exactly what ``repro-asf analyze`` prints.  An unknown figure
    selector fails before the file is opened.
    """
    _check_figures(figs)
    return render_trace_report(
        ConflictTimeline.from_trace(path), figs, bins, n_points, top,
        n_subblocks, cascade_window,
    )
