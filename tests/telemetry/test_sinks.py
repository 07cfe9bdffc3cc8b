"""Sink behaviour: counter/detail equivalence, how the engine picks its
sink, the EventSink protocol surface and the JSONL trace export."""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import ConflictTimeline
from repro.config import (
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    default_system,
)
from repro.errors import ConfigError
from repro.htm.conflict import ConflictRecord, ConflictType
from repro.htm.txn import AbortCause
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import compiled_scripts
from repro.sim.runner import run_workload
from repro.telemetry.events import ConflictEvent, EventSink, NullSink
from repro.telemetry.sinks import (
    SUMMARY_KEYS,
    CounterSink,
    DetailSink,
    JsonlTraceSink,
)
from repro.workloads.registry import get_workload


def rec(time=5, is_false=True, ctype=ConflictType.WAR, forced_waw=False,
        line_index=3):
    return ConflictRecord(
        time=time, requester_core=1, victim_core=0, requester_txn=11,
        victim_txn=10, line_addr=line_index * 64, line_index=line_index,
        ctype=ctype, is_false=is_false, requester_is_write=True,
        requester_mask=0b0011, victim_read_mask=0b1100,
        victim_write_mask=0, forced_waw=forced_waw,
    )


def drive(sink) -> None:
    """A small fixed event script exercising every hook."""
    sink.on_txn_start(0, 10, 1, 42)
    sink.on_access(0, 64, 0, False, False)
    sink.on_fill(0, 64, "memory")
    sink.on_conflict(rec())
    sink.on_txn_abort(0, 20, "conflict_false", 15)
    sink.on_backoff(0, 30)
    sink.on_txn_start(0, 55, 2, 42)
    sink.on_access(0, 64, 8, True, True)
    sink.on_dirty_reprobe(1, 64, 60)
    sink.on_txn_commit(0, 70)
    sink.on_run_complete(70, [70, 0])


class TestProtocol:
    @pytest.mark.parametrize(
        "sink",
        [NullSink(), CounterSink(), DetailSink(), ConflictTimeline()],
    )
    def test_implementations_satisfy_eventsink(self, sink):
        assert isinstance(sink, EventSink)

    def test_null_sink_absorbs_everything(self):
        drive(NullSink())  # must not raise


class TestCounterSink:
    def test_counts_the_script(self):
        s = CounterSink()
        drive(s)
        assert s.txn_attempts == 2
        assert s.txn_commits == 1
        assert s.aborts_conflict_false == 1
        assert s.wasted_cycles == 15
        assert s.backoff_cycles == 30
        assert s.l1_hits == 1 and s.l1_misses == 1
        assert s.fills_memory == 1
        assert s.dirty_reprobes == 1
        assert s.conflicts.false_war == 1
        assert s.retries_by_static == {42: 1}
        assert s.execution_cycles == 70
        assert s.per_core_cycles == [70, 0]

    def test_summary_keys_are_stable(self):
        s = CounterSink()
        drive(s)
        assert tuple(s.summary()) == SUMMARY_KEYS


class TestDetailSink:
    def test_detail_off_matches_counters_exactly(self):
        lean, full = CounterSink(), DetailSink()
        drive(lean)
        drive(full)
        assert lean.summary() == full.summary()
        assert not hasattr(lean, "attempts")
        assert [a.start for a in full.attempts] == [10, 55]

    def test_events_imply_detail(self):
        """Every detail sink keeps its conflict records, each tied to the
        attempt it interrupted, and every attempt's interval."""
        s = DetailSink()
        drive(s)
        assert len(s.conflict_events) == 1
        assert s.conflict_victims == [0]
        assert [(a.start, a.end, a.outcome) for a in s.attempts] == [
            (10, 20, "conflict_false"), (55, 70, "commit"),
        ]

    def test_histograms(self):
        s = DetailSink()
        drive(s)
        assert s.line_histogram() == [(3, 1)]
        assert s.access_offset_histogram() == [(0, 1), (8, 1)]
        assert s.line_ranking() == [(3, 192, 1)]


class TestJsonlTraceSink:
    def test_trace_round_trips_and_forwards(self, tmp_path):
        path = tmp_path / "events.jsonl"
        inner = CounterSink()
        sink = JsonlTraceSink(str(path), inner=inner)
        drive(sink)
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        kinds = [ln["event"] for ln in lines]
        # The first line is the versioned schema header, then the events;
        # accesses are gated off by default, everything else streams.
        assert "access" not in kinds
        assert kinds[0] == "trace_header"
        assert lines[0]["schema"] == "repro-asf-trace"
        assert lines[0]["major"] == 1
        assert kinds[1] == "txn_start" and kinds[-1] == "run_complete"
        # events_written counts events only, not the header line.
        assert sink.events_written == len(lines) - 1
        # Inner sink accumulated normally and proxies through the wrapper.
        assert inner.txn_commits == 1
        assert sink.txn_commits == 1
        assert sink.summary() == inner.summary()
        assert sink._fh.closed  # run_complete closes the file

    def test_trace_accesses_opt_in(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(str(path), trace_accesses=True)
        drive(sink)
        kinds = [json.loads(ln)["event"] for ln in path.read_text().splitlines()]
        assert kinds.count("access") == 2

    def test_header_carries_metadata(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(str(path), metadata={"scheme": "asf", "seed": 7})
        sink.close()
        (header,) = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert header["event"] == "trace_header"
        assert header["metadata"] == {"scheme": "asf", "seed": 7}
        assert header["trace_accesses"] is False

    def test_conflict_line_is_faithful(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.on_conflict(rec(forced_waw=True))
        sink.close()
        _, line = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert line["ctype"] == "WAR"
        assert line["is_false"] is True
        assert line["forced_waw"] is True
        assert line["line_index"] == 3


#: sha256 of small access-level traces (4 cores, 6 txns/core, seed 3),
#: recorded before the writer went from json.dumps to preformatted
#: lines.  The trace format is frozen: these bytes must never change.
PINNED_TRACES = {
    "kmeans-asf": "b71079c357e7a05884b88c510e771cc9e33aa3e77f561db1c580b24c87cc6b59",
    "kmeans-subblock": "245177e5506bf39b6a5f23ee28dbeb46abb8694863891c36f2ea624f1182e4fa",
    "vacation-asf": "35c3b6bfbc6fea0e50eff9799f4b3e0462fe9b89093cb672adcd20eb8bd02cc7",
    "vacation-subblock": "20b75aa90c65c265b7ae601c66b781f927cc3973fcd859cf0790ffaba7879720",
    "kmeans-asf-object": "b71079c357e7a05884b88c510e771cc9e33aa3e77f561db1c580b24c87cc6b59",
    # stall events and stall aborts; commit-time (at_commit) conflicts
    "ssca2-stall": "d6bf32e00c6973e734ab6c382c858679e2b0d7817c92d209c86a0c9052f85d08",
    "ssca2-lazy": "44c36b9c053fb989e1ba13a762c468ee5f03ddd1f2e073dabccd414270745b8f",
}


def pinned_config(case: str):
    """(workload, config) of a ``workload-system[-kernel]`` case."""
    workload, system, *kernel = case.split("-")
    scheme = DetectionScheme.SUBBLOCK if system == "subblock" else DetectionScheme.ASF_BASELINE
    cfg = default_system(scheme, 4).with_kernel(kernel[0] if kernel else "flat")
    if system == "stall":
        cfg = cfg.with_policy(resolution=ConflictResolution.STALL_BACKOFF)
    elif system == "lazy":
        cfg = cfg.with_policy(POLICY_PRESETS["lazy"])
    return workload, cfg


@pytest.mark.parametrize("case", sorted(PINNED_TRACES))
def test_trace_bytes_are_pinned(tmp_path, case):
    workload, cfg = pinned_config(case)
    path = tmp_path / "t.jsonl"
    cfg = cfg.with_telemetry(sink="trace", trace_path=str(path), trace_accesses=True)
    run_workload(get_workload(workload, 6), cfg, seed=3, check_atomicity=False)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACES[case]


#: Every int the writer may meet, 64-bit overflow included.
INTS = st.one_of(st.integers(), st.integers(2**63, 2**80), st.integers(-(2**80), -1))
CAUSES = st.one_of(st.sampled_from([c.value for c in AbortCause]), st.text(max_size=6))
LEVELS = st.one_of(st.sampled_from(["L2", "L3", "remote", "memory"]), st.text(max_size=6))
RECORDS = st.builds(
    ConflictEvent, INTS, INTS, INTS, INTS, INTS, INTS, INTS,
    st.sampled_from(ConflictType), st.booleans(), st.booleans(), INTS, INTS, INTS,
    st.booleans(), st.booleans(),
)


def conflict_dict(rec) -> dict:
    return {
        "event": "conflict", "time": rec.time,
        "requester_core": rec.requester_core, "victim_core": rec.victim_core,
        "requester_txn": rec.requester_txn, "victim_txn": rec.victim_txn,
        "line_addr": rec.line_addr, "line_index": rec.line_index,
        "ctype": rec.ctype.value, "is_false": rec.is_false,
        "requester_is_write": rec.requester_is_write,
        "requester_mask": rec.requester_mask,
        "victim_read_mask": rec.victim_read_mask,
        "victim_write_mask": rec.victim_write_mask,
        "forced_waw": rec.forced_waw,
        "at_commit": getattr(rec, "at_commit", False),
    }


def without_at_commit(rec):
    """A duck-typed conflict record that predates the at_commit field."""
    return SimpleNamespace(
        **{f.name: getattr(rec, f.name) for f in fields(rec) if f.name != "at_commit"}
    )


#: Per hook: argument strategies, and the dict each line used to be
#: written from with json.dumps (the oracle the preformatted lines match).
HOOK_LINES = {
    "on_txn_start": ((INTS,) * 4, lambda core, time, attempt, static_id: {
        "event": "txn_start", "core": core, "time": time, "attempt": attempt,
        "static_id": static_id}),
    "on_txn_commit": ((INTS,) * 2, lambda core, time: {
        "event": "txn_commit", "core": core, "time": time}),
    "on_txn_abort": ((INTS, INTS, CAUSES, INTS), lambda core, time, cause, wasted: {
        "event": "txn_abort", "core": core, "time": time, "cause": cause,
        "wasted_cycles": wasted}),
    "on_conflict": ((st.one_of(RECORDS, RECORDS.map(without_at_commit)),), conflict_dict),
    "on_access": ((INTS, INTS, INTS, st.booleans(), st.booleans()),
                  lambda core, line_addr, offset, is_write, hit_l1: {
        "event": "access", "core": core, "line_addr": line_addr,
        "offset": offset, "is_write": is_write, "hit_l1": hit_l1}),
    "on_backoff": ((INTS,) * 2, lambda core, cycles: {
        "event": "backoff", "core": core, "cycles": cycles}),
    "on_stall": ((INTS, INTS, INTS, st.booleans()), lambda core, time, cycles, aborted: {
        "event": "stall", "core": core, "time": time, "cycles": cycles,
        "aborted": aborted}),
    "on_dirty_reprobe": ((INTS,) * 3, lambda core, line_addr, time: {
        "event": "dirty_reprobe", "core": core, "line_addr": line_addr,
        "time": time}),
    "on_fill": ((INTS, INTS, LEVELS), lambda core, line_addr, level: {
        "event": "fill", "core": core, "line_addr": line_addr, "level": level}),
    "on_run_complete": ((INTS, st.lists(INTS, max_size=8)), lambda cycles, per_core: {
        "event": "run_complete", "execution_cycles": cycles,
        "per_core_cycles": list(per_core)}),
}


@pytest.mark.parametrize("hook", sorted(HOOK_LINES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_line_is_what_json_dumps_writes(tmp_path_factory, hook, data):
    strategies, as_dict = HOOK_LINES[hook]
    args = [data.draw(strategy) for strategy in strategies]
    path = tmp_path_factory.getbasetemp() / "codec.jsonl"
    sink = JsonlTraceSink(str(path), inner=NullSink(), trace_accesses=True)
    getattr(sink, hook)(*args)
    sink.close()
    _, line = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert line == json.dumps(as_dict(*args), separators=(",", ":")) + "\n"
    assert sink.events_written == 1


def engine(cfg=None, **kw) -> SimulationEngine:
    cfg = cfg if cfg is not None else default_system()
    scripts = compiled_scripts("kmeans", cfg.n_cores, 1, txns_per_core=2)
    return SimulationEngine(cfg, scripts, check_atomicity=False, **kw)


class TestBuildSink:
    """The engine keeps detail only when asked, whatever the telemetry."""

    def test_auto_respects_caller_flags(self):
        lean = engine(record_detail=False)
        assert type(lean.stats) is CounterSink
        assert lean.sink is lean.stats
        detail = engine().stats  # interactive default
        assert type(detail) is DetailSink
        assert detail.line_size == default_system().line_size

    def test_trace_config_wraps(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        cfg = default_system().with_telemetry(sink="trace", trace_path=path)
        eng = engine(cfg, record_detail=False)
        assert isinstance(eng.sink, JsonlTraceSink)
        assert eng.sink.inner is eng.stats
        # A trace does not switch detail on.
        assert type(eng.stats) is CounterSink
        eng.sink.close()
        # One rule for a caller-supplied sink too: it is wrapped as well.
        own = DetailSink()
        eng = engine(cfg, stats=own)
        assert eng.stats is own and eng.sink.inner is own
        eng.sink.close()

    def test_invalid_telemetry_config_rejected(self):
        for sink in ("bogus", "counters", "detail"):
            with pytest.raises(ConfigError):
                default_system().with_telemetry(sink=sink)
        with pytest.raises(ConfigError):
            default_system().with_telemetry(sink="trace")  # no trace_path
