"""Trace forensics: reader round-trip, header validation, torn-line
tolerance, mutated-trace fuzzing, live-vs-replayed counter parity across
schemes × workloads, and live-vs-replayed parity of every detail reader
across schemes and policy points."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.granularity import reduction_by_granularity
from repro.analysis.trace import (
    TRACE_FIGURES,
    ConflictTimeline,
    TraceReader,
    _parse_line,
    analyze_trace,
    read_events,
    render_trace_fig3,
    render_trace_fig4,
    render_trace_fig5,
    render_trace_forensics,
    render_trace_report,
)
from repro.config import (
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    HtmPolicy,
)
from repro.errors import ConfigError
from repro.htm.conflict import ConflictRecord, ConflictType
from repro.htm.txn import AbortCause
from repro.sim.runner import default_system, run_workload
from repro.telemetry.events import (
    AccessEvent,
    BackoffEvent,
    DirtyReprobeEvent,
    FillEvent,
    RunCompleteEvent,
    StallEvent,
    TxnAbortEvent,
    TxnCommitEvent,
    TxnStartEvent,
)
from repro.telemetry.sinks import DetailSink, JsonlTraceSink
from repro.workloads.registry import get_workload

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)
WORKLOADS = ("kmeans", "vacation", "intruder")


def record_trace(tmp_path, workload="kmeans", scheme=DetectionScheme.ASF_BASELINE,
                 seed=3, txns=60, accesses=True, name="t.jsonl"):
    """Run a small workload with a trace export; returns (path, result)."""
    path = str(tmp_path / name)
    cfg = default_system(scheme, 4).with_telemetry(
        sink="trace", trace_path=path, trace_accesses=accesses,
    )
    res = run_workload(
        get_workload(workload, txns), cfg, seed=seed, check_atomicity=False
    )
    return path, res


def drive(sink) -> None:
    """Fixed mini-run touching start/abort/conflict/commit/complete."""
    sink.on_txn_start(0, 10, 1, 42)
    sink.on_txn_start(1, 12, 1, 1_000_007)
    sink.on_conflict(
        ConflictRecord(
            time=20, requester_core=1, victim_core=0, requester_txn=11,
            victim_txn=10, line_addr=192, line_index=3,
            ctype=ConflictType.WAR, is_false=True, requester_is_write=True,
            requester_mask=0b0011, victim_read_mask=0b1100,
            victim_write_mask=0, forced_waw=False,
        )
    )
    sink.on_txn_abort(0, 25, "conflict_false", 15)
    sink.on_backoff(0, 30)
    sink.on_txn_commit(1, 40)
    sink.on_txn_start(0, 60, 2, 42)
    sink.on_txn_commit(0, 90)
    sink.on_run_complete(90, [90, 40])


def header_line(**metadata) -> str:
    return json.dumps({
        "event": "trace_header", "schema": "repro-asf-trace",
        "major": 1, "minor": 0, "trace_accesses": False, "metadata": metadata,
    }) + "\n"


HEADER = header_line()


class TestTraceReader:
    def test_round_trip_is_typed_and_faithful(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlTraceSink(path, metadata={"seed": 9})
        drive(sink)
        header, events = read_events(path)
        assert header.major == 1 and header.metadata["seed"] == 9
        kinds = [type(e).__name__ for e in events]
        assert kinds[0] == "TxnStartEvent"
        assert kinds[-1] == "RunCompleteEvent"
        starts = [e for e in events if isinstance(e, TxnStartEvent)]
        assert [s.static_id for s in starts] == [42, 1_000_007, 42]
        (conflict,) = [e for e in events if isinstance(e, ConflictRecord)]
        assert conflict.is_false and conflict.requester_mask == 0b0011
        assert conflict.ctype is ConflictType.WAR
        (abort,) = [e for e in events if isinstance(e, TxnAbortEvent)]
        assert abort.cause == "conflict_false" and abort.wasted_cycles == 15
        assert sum(isinstance(e, TxnCommitEvent) for e in events) == 2
        (done,) = [e for e in events if isinstance(e, RunCompleteEvent)]
        assert done.per_core_cycles == (90, 40)

    def test_full_run_round_trips_every_event(self, tmp_path):
        path, res = record_trace(tmp_path)
        with TraceReader(path) as reader:
            n = sum(1 for _ in reader)
            assert not reader.truncated
            assert reader.unknown_events == 0
        assert n == reader.events_read > 0

    def test_torn_final_line_tolerated(self, tmp_path):
        path, _ = record_trace(tmp_path)
        with open(path, "rb") as fh:
            data = fh.read()
        lines = data.splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        torn_path = str(tmp_path / "torn.jsonl")
        with open(torn_path, "wb") as fh:
            fh.write(torn)
        with TraceReader(torn_path) as reader:
            events = list(reader)
            assert reader.truncated
        assert len(events) == len(lines) - 2  # header + torn line dropped

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"event":"txn_start","core":0,"time":1,'
                        '"attempt":1,"static_id":0}\n')
        with pytest.raises(ConfigError, match="no trace schema header"):
            TraceReader(str(path))

    def test_unknown_major_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({
            "event": "trace_header", "schema": "repro-asf-trace",
            "major": 2, "minor": 0, "trace_accesses": False, "metadata": {},
        }) + "\n")
        with pytest.raises(ConfigError, match="major version 2"):
            TraceReader(str(path))

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({
            "event": "trace_header", "schema": "someone-elses",
            "major": 1, "minor": 0,
        }) + "\n")
        with pytest.raises(ConfigError, match="someone-elses"):
            TraceReader(str(path))

    def test_newer_minor_and_unknown_kinds_skipped(self, tmp_path):
        path = tmp_path / "minor.jsonl"
        path.write_text(
            json.dumps({
                "event": "trace_header", "schema": "repro-asf-trace",
                "major": 1, "minor": 99, "trace_accesses": False,
                "metadata": {},
            }) + "\n"
            + '{"event":"hologram","core":0}\n'
            + '{"event":"txn_start","core":0,"time":1,"attempt":1,'
              '"static_id":7}\n'
        )
        with TraceReader(str(path)) as reader:
            events = list(reader)
            assert reader.unknown_events == 1
        assert len(events) == 1 and events[0].static_id == 7

    def test_malformed_known_event_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = json.dumps({
            "event": "trace_header", "schema": "repro-asf-trace",
            "major": 1, "minor": 0, "trace_accesses": False, "metadata": {},
        }) + "\n"
        conflict = dict.fromkeys(
            ("time", "requester_core", "victim_core", "requester_txn",
             "victim_txn", "line_addr", "line_index", "victim_read_mask",
             "victim_write_mask"), 0,
        )
        conflict.update(event="conflict", ctype="WAR", is_false=True,
                        requester_is_write=True, forced_waw=False)
        forced_waw_missing = {k: v for k, v in conflict.items() if k != "forced_waw"}
        # missing field, beyond 64 bits, negative mask, a conflict without
        # forced_waw (it has no default), not a list
        bad_lines = [
            ("txn_start", '{"event":"txn_start","core":0}'),
            ("txn_commit", '{"event":"txn_commit","core":0,"time":%s}' % ("9" * 400)),
            ("conflict", json.dumps({**conflict, "requester_mask": -3})),
            ("conflict", json.dumps({**forced_waw_missing, "requester_mask": 3})),
            ("run_complete", '{"event":"run_complete","execution_cycles":1,'
                             '"per_core_cycles":"12"}'),
        ]
        for kind, line in bad_lines:
            path.write_text(header + line + "\n")
            with pytest.raises(ConfigError, match=f"bad.jsonl:2: malformed '{kind}'"):
                list(TraceReader(str(path)))

    @pytest.mark.parametrize("line, error", [
        ('{"event":"txn_commit","core":0}', "bad.jsonl:2: malformed 'txn_commit'"),
        ("[1]", "bad.jsonl:2: not an event"),
    ], ids=["malformed", "not-an-event"])
    def test_reader_closes_before_raising(self, tmp_path, line, error):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + line + "\n")
        reader = TraceReader(str(path))
        with pytest.raises(ConfigError, match=error):
            list(reader)
        assert reader._fh.closed
        assert list(reader) == []

    def test_finished_reader_stays_finished(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        drive(JsonlTraceSink(path))
        reader = TraceReader(path)
        assert len(list(reader)) == 9
        assert list(reader) == []
        with pytest.raises(StopIteration):
            next(reader)
        reader.close()  # closing twice is harmless
        assert list(reader) == []

    @pytest.mark.parametrize("line_size", [3, 128, 2**40, 0, -64, True])
    def test_line_size_beyond_the_byte_masks_rejected(self, tmp_path, line_size):
        path = tmp_path / "wide.jsonl"
        path.write_text(header_line(line_size=line_size))
        with pytest.raises(ConfigError, match="wide.jsonl:1: malformed trace header"):
            TraceReader(str(path))

    @pytest.mark.parametrize(
        "value", ["false", "true", 0, 1, None, [], {}],
        ids=["string-false", "string-true", "zero", "one", "null", "list", "object"],
    )
    def test_non_bool_trace_accesses_rejected(self, tmp_path, value):
        header = json.loads(HEADER)
        header["trace_accesses"] = value
        path = tmp_path / "accesses.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(
            ConfigError, match="accesses.jsonl:1: malformed trace header"
        ):
            TraceReader(str(path))

    @pytest.mark.parametrize(
        "value", [True, 1.0, "1"], ids=["bool", "float", "string"]
    )
    def test_non_int_major_rejected(self, tmp_path, value):
        """``true`` and ``1.0`` equal 1 in Python; neither is major 1."""
        header = json.loads(HEADER)
        header["major"] = value
        path = tmp_path / "major.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(
            ConfigError,
            match="major.jsonl:1: malformed trace header: 'major' must be an int",
        ):
            TraceReader(str(path))

    @pytest.mark.parametrize("value", [True, False, None], ids=["true", "false", "absent"])
    def test_bool_or_absent_trace_accesses_accepted(self, tmp_path, value):
        header = json.loads(HEADER)
        if value is None:
            del header["trace_accesses"]
        else:
            header["trace_accesses"] = value
        path = tmp_path / "accesses.jsonl"
        path.write_text(json.dumps(header) + "\n")
        with TraceReader(str(path)) as reader:
            assert reader.header.trace_accesses is bool(value)

    @pytest.mark.parametrize("line_size", [1, 32, 64])
    def test_power_of_two_line_size_accepted(self, tmp_path, line_size):
        path = tmp_path / "narrow.jsonl"
        path.write_text(header_line(line_size=line_size))
        with TraceReader(str(path)) as reader:
            assert reader.header.line_size == line_size
            assert list(reader) == []


#: Values a retyped field takes: any JSON type, whatever the field's own.
RETYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.sampled_from(["line_size", "seed"]), st.integers(-9, 9), max_size=2),
)

#: Whole lines a corrupted trace may gain.
INSERTED = [b"[1]\n", b"null\n", b"{}\n", b'{"event":["txn_start"]}\n', b"\xff\xfe\n"]


@pytest.fixture(scope="module")
def recorded_lines(tmp_path_factory):
    path, _ = record_trace(tmp_path_factory.mktemp("fuzz"), txns=6)
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


def mutate(lines, data) -> list[bytes]:
    """Apply one to three byte flips, dropped or inserted lines, retyped
    or removed fields to a recorded trace's lines."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["flip", "drop", "insert", "retype", "remove"]))
        i = data.draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert":
            lines.insert(i, data.draw(st.sampled_from(INSERTED + lines[:1] + lines[i:i + 1])))
        elif not lines:
            continue
        elif op == "flip":
            line = bytearray(lines[i])
            line[data.draw(st.integers(0, len(line) - 1))] = data.draw(st.integers(0, 255))
            lines[i] = bytes(line)
        elif op == "drop":
            del lines[i]
        else:
            try:
                obj = json.loads(lines[i])
            except ValueError:
                continue
            if not isinstance(obj, dict) or not obj:
                continue
            key = data.draw(st.sampled_from(sorted(obj)))
            if op == "remove":
                del obj[key]
            else:
                obj[key] = data.draw(RETYPED.filter(lambda v: type(v) is not type(obj[key])))
            lines[i] = json.dumps(obj).encode() + b"\n"
    return lines


# -- the reference decoder --------------------------------------------------
# json.loads on every line, one keyword-constructor lambda per kind, then
# a getattr loop over the built event checking each field's JSON type:
# the plain decoder the reader's schema tables and line scan must agree
# with, event for event and error line for error line.

REF_INT_LIMIT = 1 << 64


def ref_decode_conflict(p: dict) -> ConflictRecord:
    if min(p["requester_mask"], p["victim_read_mask"], p["victim_write_mask"]) < 0:
        raise ValueError("negative byte mask")
    return ConflictRecord(
        time=p["time"], requester_core=p["requester_core"],
        victim_core=p["victim_core"], requester_txn=p["requester_txn"],
        victim_txn=p["victim_txn"], line_addr=p["line_addr"],
        line_index=p["line_index"], ctype=ConflictType(p["ctype"]),
        is_false=p["is_false"], requester_is_write=p["requester_is_write"],
        requester_mask=p["requester_mask"],
        victim_read_mask=p["victim_read_mask"],
        victim_write_mask=p["victim_write_mask"], forced_waw=p["forced_waw"],
        at_commit=p.get("at_commit", False),
    )


def ref_int_tuple(values) -> tuple[int, ...]:
    if type(values) is not list or any(
        type(v) is not int or abs(v) >= REF_INT_LIMIT for v in values
    ):
        raise TypeError(f"not a list of ints: {values!r:.40}")
    return tuple(values)


REF_DECODERS = {
    "txn_start": lambda p: TxnStartEvent(
        core=p["core"], time=p["time"], attempt=p["attempt"],
        static_id=p["static_id"],
    ),
    "txn_commit": lambda p: TxnCommitEvent(core=p["core"], time=p["time"]),
    "txn_abort": lambda p: TxnAbortEvent(
        core=p["core"], time=p["time"], cause=AbortCause(p["cause"]).value,
        wasted_cycles=p["wasted_cycles"],
    ),
    "conflict": ref_decode_conflict,
    "access": lambda p: AccessEvent(
        core=p["core"], line_addr=p["line_addr"], offset=p["offset"],
        is_write=p["is_write"], hit_l1=p["hit_l1"],
    ),
    "backoff": lambda p: BackoffEvent(core=p["core"], cycles=p["cycles"]),
    "stall": lambda p: StallEvent(
        core=p["core"], time=p["time"], cycles=p["cycles"], aborted=p["aborted"],
    ),
    "dirty_reprobe": lambda p: DirtyReprobeEvent(
        core=p["core"], line_addr=p["line_addr"], time=p["time"],
    ),
    "fill": lambda p: FillEvent(
        core=p["core"], line_addr=p["line_addr"], level=p["level"],
    ),
    "run_complete": lambda p: RunCompleteEvent(
        execution_cycles=p["execution_cycles"],
        per_core_cycles=ref_int_tuple(p["per_core_cycles"]),
    ),
}

REF_JSON_TYPES = {"int": int, "bool": bool, "str": str}

REF_FIELD_TYPES = {
    cls: tuple(
        (f.name, REF_JSON_TYPES[f.type]) for f in fields(cls)
        if f.type in REF_JSON_TYPES
    )
    for cls in (
        TxnStartEvent, TxnCommitEvent, TxnAbortEvent, ConflictRecord,
        AccessEvent, BackoffEvent, StallEvent, DirtyReprobeEvent, FillEvent,
        RunCompleteEvent,
    )
}


def ref_check_fields(event) -> None:
    for name, kind in REF_FIELD_TYPES[type(event)]:
        value = getattr(event, name)
        if type(value) is not kind or kind is int and abs(value) >= REF_INT_LIMIT:
            raise TypeError(f"field {name!r} must be a {kind.__name__}")


def read_reference(path):
    """(events, truncated, unknown kinds) as the reference decodes them."""
    TraceReader(path).close()  # the header rules are shared, not under test
    events, unknown = [], 0
    with open(path, "rb") as fh:
        fh.readline()
        for line_no, raw in enumerate(iter(fh.readline, b""), start=2):
            if not raw.endswith(b"\n"):
                return events, True, unknown
            try:
                payload = json.loads(raw)
            except (ValueError, RecursionError):
                return events, True, unknown
            kind = payload.get("event") if isinstance(payload, dict) else None
            if not isinstance(kind, str):
                raise ConfigError(f"{path}:{line_no}: not an event")
            decoder = REF_DECODERS.get(kind)
            if decoder is None:
                unknown += 1
                continue
            try:
                event = decoder(payload)
                ref_check_fields(event)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{path}:{line_no}: malformed {kind!r}") from exc
            events.append(event)
    return events, False, unknown


def read_fast(path):
    with TraceReader(path) as reader:
        return list(reader), reader.truncated, reader.unknown_events


def outcome(read, path):
    """What a read ends in: the events (repr keeps ``True`` apart from
    ``1``), or where and why it raised ``ConfigError``."""
    try:
        events, truncated, unknown = read(path)
    except ConfigError as exc:
        where, _, why = str(exc).partition(": ")
        return "error", where, why.split(" ")[0]
    return "events", repr(events), truncated, unknown


def verdict(parse, raw):
    try:
        return "value", repr(parse(raw))
    except (ValueError, RecursionError) as exc:
        return "error", type(exc).__name__


#: Ways a line can be framed that the parser's fast path must not accept
#: differently from json.loads: BOM, padding, CRLF, trailing data, UTF-16.
REFRAMINGS = [
    lambda line: b"\xef\xbb\xbf" + line,
    lambda line: b" " + line,
    lambda line: line[:-1] + b" \t\n",
    lambda line: line[:-1] + b"\r\n",
    lambda line: line[:-1] + b" 1\n",
    lambda line: line[:-1] + b"{}\n",
    lambda line: line[:-1].decode("utf-8", "replace").encode("utf-16-le") + b"\n",
]

FRAMES = [b"", b" ", b"\t", b"\r", b"\xef\xbb\xbf", b"\x00", b"x", b"\xed\xa0\x80"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


class TestMutatedTraces:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_analyze_reports_or_raises_config_error(
        self, recorded_lines, tmp_path_factory, data
    ):
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        path.write_bytes(b"".join(mutate(recorded_lines, data)))
        try:
            report = analyze_trace(str(path))
        except ConfigError:
            return
        assert "Trace-derived run counters" in report

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reader_agrees_with_the_reference_decoder(
        self, recorded_lines, tmp_path_factory, data
    ):
        lines = mutate(recorded_lines, data)
        if lines and data.draw(st.booleans()):
            i = data.draw(st.integers(0, len(lines) - 1))
            lines[i] = data.draw(st.sampled_from(REFRAMINGS))(lines[i])
        path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
        path.write_bytes(b"".join(lines))
        assert outcome(read_fast, str(path)) == outcome(read_reference, str(path))

    @settings(max_examples=300, deadline=None)
    @given(raw=st.one_of(
        st.binary(max_size=48),
        st.builds(
            lambda pre, value, post: pre + json.dumps(value).encode() + post,
            st.sampled_from(FRAMES), JSON_VALUES, st.sampled_from(FRAMES),
        ),
    ))
    def test_line_parser_is_json_loads(self, raw):
        raw += b"\n"
        assert verdict(_parse_line, raw) == verdict(json.loads, raw)


class TestCounterParity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_replayed_counters_match_live_run(self, tmp_path, workload, scheme):
        """Trace-replayed counters equal the live run's, bit for bit."""
        path, res = record_trace(
            tmp_path, workload=workload, scheme=scheme, txns=40,
            accesses=True,
        )
        timeline = ConflictTimeline.from_trace(path)
        live = res.stats.summary()
        replayed = timeline.parity_summary()
        shared = set(live) & set(replayed)
        assert {"conflicts_total", "aborts_total", "txn_commits",
                "execution_cycles", "l1_hits"} <= shared
        assert {k: live[k] for k in shared} == {
            k: replayed[k] for k in shared
        }

    def test_accessless_trace_drops_access_counters(self, tmp_path):
        path, res = record_trace(tmp_path, accesses=False)
        timeline = ConflictTimeline.from_trace(path)
        replayed = timeline.parity_summary()
        assert "l1_hits" not in replayed and "l1_misses" not in replayed
        live = res.stats.summary()
        shared = set(live) & set(replayed)
        assert {k: live[k] for k in shared} == {
            k: replayed[k] for k in shared
        }


def conflict_fields(events) -> list[tuple]:
    """Each conflict as the tuple of its trace fields."""
    names = [f.name for f in fields(ConflictRecord)]
    return [tuple(getattr(c, name) for name in names) for c in events]


def readers(sink) -> dict:
    """Every reader of a detail sink, and the single-run renderings."""
    return {
        "summary": sink.summary(),
        "per_core_cycles": list(sink.per_core_cycles),
        "retries_by_static": dict(sink.retries_by_static),
        "attempts": sink.attempts,
        "conflicts": conflict_fields(sink.conflict_events),
        "conflict_victims": sink.conflict_victims,
        "wasted_by_static": dict(sink.wasted_by_static),
        "aborts_by_static": dict(sink.aborts_by_static),
        "commits_by_static": dict(sink.commits_by_static),
        "fig3_false": sink.cumulative_false_series(),
        "fig3_starts": sink.cumulative_starts_series(),
        "fig3_lifetime": sink.conflict_lifetime_histogram(),
        "fig3_lifetime_all": sink.conflict_lifetime_histogram(false_only=False),
        "fig4_lines": sink.line_histogram(),
        "fig4_lines_all": sink.line_histogram(false_only=False),
        "fig4_ranking": sink.line_ranking(),
        "fig4_ranking_all": sink.line_ranking(false_only=False),
        "fig5_conflicts": sink.conflict_offset_histogram(),
        "fig5_conflicts_all": sink.conflict_offset_histogram(false_only=False),
        "fig5_subblocks": sink.conflict_subblock_histogram(4),
        "fig5_subblocks_8": sink.conflict_subblock_histogram(8, false_only=False),
        "fig5_accesses": sink.access_offset_histogram(),
        "fig8": reduction_by_granularity(sink.conflict_events, (2, 4, 8, 16)),
        "cascades": sink.abort_cascades(),
        "cascades_tight": sink.abort_cascades(window=100),
        "wasted_ranking": sink.wasted_cycle_ranking(),
        "render_fig3": render_trace_fig3(sink),
        "render_fig4": render_trace_fig4(sink),
        "render_fig5": render_trace_fig5(sink),
        "render_forensics": render_trace_forensics(sink),
    }


#: Runs whose live detail sink and replayed trace must agree: two
#: workloads × two detectors at the paper's ASF point, and genome at the
#: policy points that add commit-time conflicts, undo logs and stalls.
PARITY_RUNS = {
    **{
        f"{workload}-{scheme.value}": (workload, scheme, None)
        for workload in ("kmeans", "vacation")
        for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK)
    },
    "genome-lazy": ("genome", DetectionScheme.ASF_BASELINE, POLICY_PRESETS["lazy"]),
    "genome-eager": ("genome", DetectionScheme.ASF_BASELINE, POLICY_PRESETS["eager"]),
    "genome-stall": (
        "genome", DetectionScheme.ASF_BASELINE,
        HtmPolicy(resolution=ConflictResolution.STALL_BACKOFF),
    ),
}


class TestLiveReplayParity:
    @pytest.mark.parametrize("run", list(PARITY_RUNS))
    def test_every_reader_matches_the_live_sink(self, tmp_path, run):
        """A trace wrapped around a live DetailSink replays into a timeline
        that answers every reader, and renders every figure, identically."""
        workload, scheme, policy = PARITY_RUNS[run]
        path = str(tmp_path / "t.jsonl")
        cfg = default_system(scheme, 4)
        if policy is not None:
            cfg = cfg.with_policy(policy)
        cfg = cfg.with_telemetry(sink="trace", trace_path=path, trace_accesses=True)
        live = run_workload(
            get_workload(workload, 30), cfg, seed=3, check_atomicity=False
        ).stats
        assert type(live) is DetailSink
        replayed = ConflictTimeline.from_trace(path)
        assert replayed.summary() == live.summary()  # not parity_summary()
        assert readers(replayed) == readers(live)
        # The run exercised what it is here for.
        assert any(c.is_false for c in live.conflict_events)
        assert live.access_offsets
        if run == "genome-lazy":
            assert any(c.at_commit for c in live.conflict_events)
        if run == "genome-stall":
            assert live.stalls and live.stall_aborts


class TestConflictTimeline:
    def test_attempts_and_victim_attribution(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        drive(JsonlTraceSink(path))
        timeline = ConflictTimeline.from_trace(path)
        assert len(timeline.attempts) == 3
        aborted = timeline.attempts[0]
        assert aborted.outcome == "conflict_false"
        assert (aborted.start, aborted.end) == (10, 25)
        (conflict,) = timeline.conflict_events
        assert timeline.conflict_victims == [0]  # tied to the attempt it killed
        assert timeline.wasted_by_static[42] == 15
        assert timeline.commits_by_static[42] == 1

    def test_lifetime_histogram_totals_and_validation(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        hist = timeline.conflict_lifetime_histogram(bins=10)
        closed_false = sum(
            1 for c, i in zip(timeline.conflict_events, timeline.conflict_victims)
            if c.is_false and i is not None
            and timeline.attempts[i].end is not None
        )
        assert sum(hist) == closed_false
        with pytest.raises(ConfigError):
            timeline.conflict_lifetime_histogram(bins=0)

    def test_line_ranking_is_hottest_first(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        ranked = timeline.line_ranking()
        counts = [n for _, _, n in ranked]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == sum(n for _, n in timeline.line_histogram())

    def test_subblock_histogram_folds_offsets(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        by_byte = timeline.conflict_offset_histogram()
        by_sub = timeline.conflict_subblock_histogram(4)
        assert len(by_sub) == 4
        assert sum(n for _, n in by_sub) == sum(n for _, n in by_byte)
        with pytest.raises(ConfigError):
            timeline.conflict_subblock_histogram(7)  # 64 % 7 != 0

    def test_cascades_cover_every_conflict(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        cascades = timeline.abort_cascades(window=5000)
        assert sum(cascades.depths.values()) == len(timeline.conflict_events)
        # A zero window cannot link anything: all conflicts are roots.
        roots_only = timeline.abort_cascades(window=0)
        assert roots_only.max_depth <= 1

    def test_wasted_ranking_accounts_all_cycles(self, tmp_path):
        path, _ = record_trace(tmp_path)
        timeline = ConflictTimeline.from_trace(path)
        ranked = timeline.wasted_cycle_ranking()
        assert sum(w for *_, w in ranked) == timeline.wasted_cycles


class TestAnalyzeTrace:
    def test_report_contains_every_section(self, tmp_path):
        path, _ = record_trace(tmp_path)
        report = analyze_trace(path)
        for marker in ("Trace-derived run counters", "Figure 3", "Figure 4",
                       "Figure 5", "Forensics report"):
            assert marker in report

    def test_figure_selection(self, tmp_path):
        path, _ = record_trace(tmp_path)
        report = analyze_trace(path, figs=("4",))
        assert "Figure 4" in report
        assert "Figure 3" not in report and "Figure 5" not in report

    def test_unknown_figure_rejected(self, tmp_path):
        path, _ = record_trace(tmp_path)
        with pytest.raises(ConfigError, match="figure"):
            analyze_trace(path, figs=("9",))
        assert set(TRACE_FIGURES) == {"3", "4", "5"}

    @pytest.mark.parametrize("kwargs", [
        {"figs": ("4",), "bins": 0},
        {"figs": ("4",), "n_subblocks": 3},
        {"top": -1},
        {"cascade_window": -1},
    ], ids=["bins", "n_subblocks", "top", "cascade_window"])
    def test_out_of_range_argument_rejected(self, tmp_path, kwargs):
        """A bad count fails naming itself, even when no drawn figure
        reads it (``top=-1`` would otherwise drop each ranking's last row)."""
        path, _ = record_trace(tmp_path, txns=4)
        name = next(key for key in kwargs if key != "figs")
        with pytest.raises(ConfigError, match=f"^{name} must"):
            analyze_trace(path, **kwargs)
        with pytest.raises(ConfigError, match=f"^{name} must"):
            render_trace_report(ConflictTimeline.from_trace(path), **kwargs)

    def test_counts_checked_before_open_and_subblocks_before_decode(
        self, tmp_path, monkeypatch
    ):
        missing = str(tmp_path / "missing.jsonl")
        for kwargs in ({"bins": 0}, {"top": -1}, {"cascade_window": -1}):
            with pytest.raises(ConfigError, match="must be at least"):
                analyze_trace(missing, **kwargs)
        path, _ = record_trace(tmp_path, txns=4)
        decoded = []
        next_event = TraceReader.__next__

        def counting_next(reader):
            decoded.append(reader)
            return next_event(reader)

        monkeypatch.setattr(TraceReader, "__next__", counting_next)
        with pytest.raises(ConfigError, match="^n_subblocks must divide"):
            analyze_trace(path, n_subblocks=3)
        assert decoded == []

    def test_from_events_matches_from_trace(self, tmp_path):
        path, _ = record_trace(tmp_path)
        header, events = read_events(path)
        a = ConflictTimeline.from_trace(path)
        b = ConflictTimeline.from_events(events, header=header)
        assert a.summary() == b.summary()
        assert a.conflict_lifetime_histogram() == b.conflict_lifetime_histogram()
