"""The perf-history trend renderer and its regression gate."""

from __future__ import annotations

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "plot_history",
    os.path.join(REPO_ROOT, "benchmarks", "perf", "plot_history.py"),
)
plot_history = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(plot_history)


def line(acc: float, quick: bool = True, sha: str = "abc1234") -> dict:
    # ``engine_flat_txn_acc_per_sec`` is the gate metric; the retired
    # hot-path key rides along as a plain trend metric.
    return {
        "sha": sha,
        "quick": quick,
        "engine_flat_txn_acc_per_sec": acc,
        "hot_path_acc_per_sec": acc,
        "hot_path_speedup": 1.1,
        "simulate_seconds": 0.8,
    }


def write_history(path, lines) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in lines:
            fh.write(
                (entry if isinstance(entry, str) else json.dumps(entry)) + "\n"
            )
    return str(path)


class TestLoadHistory:
    def test_skips_garbage_lines(self, tmp_path):
        path = write_history(
            tmp_path / "h.jsonl",
            [line(100.0), "not json {", "", '["a","list"]', line(200.0)],
        )
        lines = plot_history.load_history(path)
        assert [x["hot_path_acc_per_sec"] for x in lines] == [100.0, 200.0]

    def test_missing_file_is_empty(self, tmp_path):
        assert plot_history.load_history(str(tmp_path / "nope.jsonl")) == []


class TestRenderTrends:
    def test_mentions_every_metric_and_latest(self):
        out = plot_history.render_trends([line(100.0), line(150.0)])
        assert "hot_path_acc_per_sec" in out
        assert "latest 150" in out
        assert "2 run(s)" in out

    def test_empty_history(self):
        assert "empty" in plot_history.render_trends([])


class TestRegressionGate:
    def test_within_threshold_passes(self):
        history = [line(100.0), line(110.0), line(90.0), line(95.0)]
        ok, msg = plot_history.check_regression(history)
        assert ok and msg.startswith("ok")

    def test_drop_beyond_threshold_fails(self):
        history = [line(100.0), line(110.0), line(90.0), line(70.0)]
        ok, msg = plot_history.check_regression(history)  # median 100, -30%
        assert not ok
        assert "REGRESSION" in msg

    def test_median_is_robust_to_one_outlier(self):
        """One absurdly fast historical run must not fail a normal one."""
        history = [line(100.0), line(1000.0), line(105.0), line(95.0)]
        ok, _ = plot_history.check_regression(history)
        assert ok

    def test_quick_and_full_runs_do_not_compare(self):
        """A quick-mode run is a different workload than a full run."""
        history = [line(1000.0, quick=False), line(70.0, quick=True)]
        ok, msg = plot_history.check_regression(history)
        assert ok and "no comparable history" in msg

    def test_no_history_passes(self):
        ok, _ = plot_history.check_regression([])
        assert ok
        ok, _ = plot_history.check_regression([line(100.0)])
        assert ok

    def test_missing_sample_passes(self):
        history = [line(100.0), {"sha": "x", "quick": True}]
        ok, msg = plot_history.check_regression(history)
        assert ok and "no sample" in msg


class TestMain:
    def test_gate_exit_codes(self, tmp_path, capsys):
        good = write_history(
            tmp_path / "good.jsonl", [line(100.0), line(98.0)]
        )
        bad = write_history(
            tmp_path / "bad.jsonl", [line(100.0), line(50.0)]
        )
        assert plot_history.main(["--history", good, "--gate"]) == 0
        assert plot_history.main(["--history", bad, "--gate"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_without_gate_never_fails(self, tmp_path):
        bad = write_history(tmp_path / "bad.jsonl", [line(100.0), line(10.0)])
        assert plot_history.main(["--history", bad]) == 0

    def test_tighter_threshold(self, tmp_path):
        history = write_history(
            tmp_path / "h.jsonl", [line(100.0), line(92.0)]
        )
        assert plot_history.main(["--history", history, "--gate"]) == 0
        assert plot_history.main(
            ["--history", history, "--gate", "--threshold", "0.05"]
        ) == 1
