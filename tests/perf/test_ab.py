"""The pure parts of the paired A/B script ``benchmarks/perf/ab.py``."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "perf", "ab.py"))
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def stdout(**result) -> str:
    return "metric wall_s 1.25 s\n" + json.dumps(result) + "\n"


METRICS = {"wall_s": {"value": 1.25, "unit": "s"}, "peak_rss_mb": {"value": 30, "unit": "MB"}}


def test_parse_result_of_a_correct_run():
    out = stdout(correct=True, attempted=36, failed=0, metrics=METRICS)
    assert ab.parse_result(out) == {"wall_s": 1.25, "peak_rss_mb": 30.0}


@pytest.mark.parametrize("out, message", [
    (stdout(correct=False, attempted=36, failed=3, metrics=METRICS), "False, failed: 3 of 36"),
    (stdout(correct=True, attempted=36, failed=1, metrics=METRICS), "True, failed: 1 of 36"),
    ('metric wall_s 1.25 s\n{"correct": true,\n', "not a JSON object"),
    ("[true, 0]\n", "not a JSON object"),
    (stdout(correct=True, failed=0, metrics={"wall_s": 1.25}), "malformed metrics"),
    ("", "no result line"),
], ids=["incorrect", "failed", "malformed", "not-an-object", "bad-metrics", "missing"])
def test_parse_result_refuses_anything_but_a_correct_run(out, message):
    with pytest.raises(ab.RunError, match=message):
        ab.parse_result(out)


def test_median_paired_ratio():
    # Ratios 1.5, 1.0, 0.5 have median 1.0; the medians' ratio is 2.0 / 2.0.
    assert ab.median_ratio([1.0, 2.0, 4.0], [1.5, 2.0, 2.0]) == 1.0
    assert ab.median_ratio([2.0, 4.0], [3.0, 5.0]) == pytest.approx(1.375)
    assert ab.median_ratio([0.0], [0.0]) == 1.0
    assert ab.median_ratio([0.0], [2.0]) == float("inf")


@pytest.mark.parametrize("better, expected", [("lower", 2), ("higher", 1)])
def test_wins_ties_count_for_neither(better, expected):
    assert ab.wins([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0], better) == expected


@pytest.mark.parametrize("better, paired, worse", [
    ("lower", 1.23, False), ("lower", 1.25, True), ("lower", 0.5, False),
    ("higher", 0.77, False), ("higher", 0.75, True), ("higher", 2.0, False),
])
def test_bound_on_each_side(better, paired, worse):
    assert ab.regressed(paired, better, 0.24) is worse
    row = ab.compare({"unit": "s", "better": better, "bound": 0.24}, [1.0], [paired])
    assert row["regressed"] is worse and row["ratio"] == paired
    assert "regressed" not in ab.compare({"unit": "s", "better": better}, [1.0], [paired])
