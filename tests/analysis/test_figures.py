"""Figure-computation tests over a small but real suite run."""

import pytest

from repro.analysis import figures
from repro.analysis.experiments import run_suite
from repro.telemetry.summary import RunSummary

BENCHES = ("vacation", "kmeans")


@pytest.fixture(scope="module")
def suite():
    return run_suite(txns_per_core=40, seed=3, benchmarks=BENCHES)


class TestSuiteResults:
    def test_names(self, suite):
        assert suite.names() == list(BENCHES)

    def test_three_runs_each(self, suite):
        b = suite["vacation"]
        assert b.baseline.scheme == "asf"
        assert b.subblock.scheme == "subblock4"
        assert b.perfect.scheme == "perfect"

    def test_events_recorded_on_baseline_only(self, suite):
        b = suite["vacation"]
        assert b.baseline.stats.conflict_events
        assert isinstance(b.subblock.stats, RunSummary)

    def test_mean_properties(self, suite):
        assert 0.0 < suite.mean_false_rate <= 1.0


class TestFig1:
    def test_rows_plus_average(self, suite):
        rows = figures.fig1_false_rates(suite)
        assert [r[0] for r in rows] == ["vacation", "kmeans", "average"]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)

    def test_average_is_mean(self, suite):
        rows = dict(figures.fig1_false_rates(suite))
        assert rows["average"] == pytest.approx(
            (rows["vacation"] + rows["kmeans"]) / 2
        )


class TestFig2:
    def test_shares_sum_to_one(self, suite):
        for name, war, raw, waw in figures.fig2_breakdown(suite):
            assert war + raw + waw == pytest.approx(1.0)


class TestFig3:
    def test_series_shape(self, suite):
        data = figures.fig3_time_series(suite, benchmarks=BENCHES, n_points=20)
        for name, series in data.items():
            assert len(series["false_conflicts"]) == 20
            counts = [c for _, c in series["txn_starts"]]
            assert counts == sorted(counts)
            assert counts[-1] == suite[name].baseline.stats.txn_attempts


class TestFig4:
    def test_histogram_totals(self, suite):
        data = figures.fig4_line_histogram(suite, benchmarks=BENCHES)
        for name, hist in data.items():
            total = sum(c for _, c in hist)
            assert total == suite[name].baseline.stats.conflicts.total_false


class TestFig5:
    def test_offsets_in_line(self, suite):
        data = figures.fig5_offset_histogram(suite, benchmarks=BENCHES)
        for hist in data.values():
            assert all(0 <= off < 64 for off, _ in hist)

    def test_grain_detection(self, suite):
        assert figures.fig5_dominant_grain(suite["vacation"].baseline.stats) == 8
        assert figures.fig5_dominant_grain(suite["kmeans"].baseline.stats) == 4

    def test_grain_of_empty_stats(self):
        from repro.telemetry.sinks import DetailSink

        assert figures.fig5_dominant_grain(DetailSink()) == 0


class TestFig8:
    def test_monotone_rows(self, suite):
        for name, byn in figures.fig8_sensitivity(suite):
            vals = [byn[n] for n in sorted(byn)]
            assert vals == sorted(vals)

    def test_byte_equivalent_complete(self, suite):
        rows = dict(figures.fig8_sensitivity(suite, granularities=(64,)))
        assert rows["vacation"][64] == pytest.approx(1.0)


class TestFig9And10:
    def test_fig9_has_average_row(self, suite):
        rows = figures.fig9_overall_reduction(suite)
        assert rows[-1][0] == "average"

    def test_fig10_shape(self, suite):
        rows = figures.fig10_exec_improvement(suite)
        assert len(rows) == len(BENCHES) + 1
        for _, sub, perf in rows:
            assert -1.0 < sub < 1.0
            assert -1.0 < perf < 1.0


class TestAbortBreakdown:
    def test_columns_and_totals(self, suite):
        rows = figures.abort_breakdown(suite)
        assert [r[0] for r in rows] == list(BENCHES)
        for name, true_c, false_c, cap, user, val in rows:
            stats = suite[name].baseline.stats
            assert true_c + false_c + cap + user + val == stats.total_aborts

    def test_labyrinth_user_aborts_prominent(self):
        """Paper (Fig. 9 discussion): most of labyrinth's aborts are user
        aborts."""
        lab = run_suite(txns_per_core=40, seed=3, benchmarks=("labyrinth",))
        [(_, true_c, false_c, cap, user, val)] = figures.abort_breakdown(lab)
        assert user > 0
        assert user >= max(true_c, false_c) * 0.5


class TestComputeAllFigures:
    def test_full_pipeline_keys(self, suite):
        out = figures.compute_all_figures(suite)
        assert {
            "fig1_false_rates", "fig2_breakdown", "fig3_time_series",
            "fig4_line_histogram", "fig5_offset_histogram",
            "fig8_sensitivity", "fig9_overall_reduction",
            "fig10_exec_improvement", "abort_breakdown",
        } <= set(out)

    def test_matches_individual_calls(self, suite):
        out = figures.compute_all_figures(suite)
        assert out["fig1_false_rates"] == figures.fig1_false_rates(suite)
        assert out["fig9_overall_reduction"] == figures.fig9_overall_reduction(suite)
