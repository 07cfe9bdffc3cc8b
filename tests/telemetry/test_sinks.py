"""Sink behaviour: counter/detail equivalence, how the engine picks its
sink, the EventSink protocol surface and the JSONL trace export."""

from __future__ import annotations

import json

import pytest

from repro.config import default_system
from repro.errors import ConfigError
from repro.htm.conflict import ConflictRecord, ConflictType
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import compiled_scripts
from repro.telemetry.events import EventSink, NullSink
from repro.telemetry.sinks import (
    SUMMARY_KEYS,
    CounterSink,
    DetailSink,
    JsonlTraceSink,
)


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
        [NullSink(), CounterSink(), DetailSink(), DetailSink(record_events=True)],
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
        assert not hasattr(lean, "txn_start_times")
        assert full.txn_start_times == [10, 55]

    def test_events_imply_detail(self):
        s = DetailSink(record_events=True)
        drive(s)
        assert len(s.conflict_events) == 1
        assert s.txn_start_times == [10, 55]

    def test_histograms(self):
        s = DetailSink()
        drive(s)
        assert s.line_histogram() == [(3, 1)]
        assert s.offset_histogram() == [(0, 1), (8, 1)]
        assert s.false_by_line[3] == 1


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
        assert type(engine().stats) is DetailSink  # interactive default
        events = engine(record_detail=False, record_events=True).stats
        assert isinstance(events, DetailSink) and events.record_events

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
