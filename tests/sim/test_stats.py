"""Run-statistics tests: conflict counts and the detail sink's hooks."""

from repro.htm.conflict import ConflictRecord, ConflictType
from repro.telemetry.sinks import ConflictCounts, DetailSink


def rec(time=10, is_false=True, ctype=ConflictType.WAR, line_index=3, forced=False):
    return ConflictRecord(
        time=time,
        requester_core=0,
        victim_core=1,
        requester_txn=1,
        victim_txn=2,
        line_addr=line_index * 64,
        line_index=line_index,
        ctype=ctype,
        is_false=is_false,
        requester_is_write=True,
        requester_mask=0xFF,
        victim_read_mask=0xFF00,
        victim_write_mask=0,
        forced_waw=forced,
    )


class TestConflictCounts:
    def test_add_and_totals(self):
        c = ConflictCounts()
        c.add(ConflictType.WAR, True)
        c.add(ConflictType.RAW, True)
        c.add(ConflictType.WAW, False)
        assert c.total == 3
        assert c.total_false == 2
        assert c.total_true == 1
        assert c.false_rate == 2 / 3

    def test_empty_rate_zero(self):
        assert ConflictCounts().false_rate == 0.0

    def test_breakdown_sums_to_one(self):
        c = ConflictCounts()
        for _ in range(3):
            c.add(ConflictType.WAR, True)
        c.add(ConflictType.RAW, True)
        shares = c.false_breakdown()
        assert abs(sum(shares.values()) - 1.0) < 1e-12
        assert shares["WAR"] == 0.75

    def test_breakdown_empty(self):
        assert ConflictCounts().false_breakdown() == {
            "WAR": 0.0,
            "RAW": 0.0,
            "WAW": 0.0,
        }


class TestStatsCollector:
    """:class:`DetailSink` driven through its ``on_*`` event hooks."""

    def test_conflict_recording(self):
        s = DetailSink()
        s.on_conflict(rec(is_false=True))
        s.on_conflict(rec(is_false=False))
        assert s.conflicts.total == 2
        assert len(s.false_conflict_times) == 1
        assert s.false_by_line[3] == 1

    def test_event_list_optional(self):
        s = DetailSink(record_events=False)
        s.on_conflict(rec())
        assert s.conflict_events == []
        s2 = DetailSink(record_events=True)
        s2.on_conflict(rec())
        assert len(s2.conflict_events) == 1

    def test_forced_waw_counter(self):
        s = DetailSink()
        s.on_conflict(rec(forced=True))
        assert s.forced_waw_aborts == 1

    def test_txn_accounting(self):
        s = DetailSink()
        s.on_txn_start(0, 5, attempt=1, static_id=0)
        s.on_txn_start(0, 9, attempt=2, static_id=0)
        s.on_txn_commit(0, 12)
        assert s.txn_attempts == 2
        assert s.txn_commits == 1
        assert s.avg_retries == 2.0
        assert s.retries_by_static[0] == 1
        assert s.txn_start_times == [5, 9]

    def test_abort_accounting(self):
        s = DetailSink()
        s.on_txn_abort(0, 0, "conflict_false", 40)
        s.on_txn_abort(0, 0, "capacity", 10)
        s.on_txn_abort(0, 0, "user", 5)
        s.on_txn_abort(0, 0, "conflict_true", 1)
        assert s.total_aborts == 4
        assert s.wasted_cycles == 56

    def test_access_histograms(self):
        s = DetailSink()
        s.on_access(0, 0, 0, is_write=False, hit_l1=True)
        s.on_access(0, 0, 8, is_write=True, hit_l1=False)
        s.on_access(0, 0, 0, is_write=True, hit_l1=True)
        assert s.offset_histogram() == [(0, 2), (8, 1)]
        assert s.l1_hits == 2
        assert s.l1_misses == 1

    def test_cumulative_series_monotone(self):
        s = DetailSink()
        for t in (5, 100, 100, 900):
            s.false_conflict_times.append(t)
        s.execution_cycles = 1000
        series = s.cumulative_false_series(10)
        counts = [c for _, c in series]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_cumulative_series_empty(self):
        s = DetailSink()
        s.execution_cycles = 100
        assert all(c == 0 for _, c in s.cumulative_false_series(5))

    def test_summary_keys(self):
        s = DetailSink()
        summary = s.summary()
        for key in ("txn_commits", "false_rate", "execution_cycles"):
            assert key in summary
