#!/usr/bin/env python
"""Render the perf history as trends and gate on throughput regressions.

Reads ``benchmarks/perf/history/perf_history.jsonl`` (one JSON line per
CI perf-smoke run, written by ``append_history.py``) and prints an ASCII
sparkline + summary per headline metric, so a slow drift is visible at a
glance instead of buried in per-run JSON.

``--gate`` turns the script into the perf-smoke regression gate: it
compares the newest run's hot-path accesses/sec against the **median**
of the prior comparable history (same ``quick`` flag — quick and full
runs are different workloads) and exits non-zero when the drop exceeds
``--threshold`` (default 20%).  The median makes the baseline robust to
a single noisy CI run on either side.

Run:  python benchmarks/perf/plot_history.py [--gate] [--threshold 0.2]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HISTORY = os.path.join(os.path.dirname(__file__), "history", "perf_history.jsonl")

#: The gate metric: the flat kernel's micro-batched engine throughput on
#: the contended hot-path bench (higher is better).  This is the stack a
#: default run ships on; the object-model ratios stay in the trends below
#: as differential baselines only.
GATE_METRIC = "engine_flat_txn_acc_per_sec"

#: Allowed fractional drop of the gate metric vs the history median.
GATE_DROP = 0.20

#: Metrics worth a trend line, in display order.
TREND_METRICS = (
    "engine_flat_txn_acc_per_sec",
    "speedup_flat_vs_object",
    "kernel_replay_acc_per_sec",
    "kernel_speedup",
    "parallel_speedup",
    "transfer_speedup",
    "simulate_seconds",
    "figures_seconds",
    # Retired keys (no longer appended); kept so older rows still chart.
    "hot_path_acc_per_sec",
    "hot_path_speedup",
    "speedup_flat_vs_array",
)

_TICKS = "▁▂▃▄▅▆▇█"


def load_history(path: str = HISTORY) -> list[dict]:
    """Every parseable history line, oldest first.

    Unparseable lines (merge artifacts, torn writes) are skipped rather
    than fatal: the history is advisory data, not a source of truth.
    """
    lines: list[dict] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError:
        return lines
    with fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                line = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if isinstance(line, dict):
                lines.append(line)
    return lines


def _sparkline(values: list[float], width: int = 60) -> str:
    if len(values) > width:  # keep the newest runs when downsampling
        values = values[-width:]
    lo, hi = min(values), max(values)
    if hi == lo:
        return _TICKS[0] * len(values)
    span = hi - lo
    return "".join(
        _TICKS[int((v - lo) / span * (len(_TICKS) - 1))] for v in values
    )


def _metric_values(lines: list[dict], metric: str) -> list[float]:
    return [
        line[metric]
        for line in lines
        if isinstance(line.get(metric), (int, float))
    ]


def render_trends(lines: list[dict], metrics: tuple[str, ...] = TREND_METRICS) -> str:
    """One sparkline + min/median/max/latest row per metric."""
    if not lines:
        return "perf history is empty"
    out = [f"perf history: {len(lines)} run(s), newest {lines[-1].get('sha')}"]
    name_w = max(len(m) for m in metrics)
    for metric in metrics:
        values = _metric_values(lines, metric)
        if not values:
            out.append(f"{metric:<{name_w}}  (no samples)")
            continue
        out.append(
            f"{metric:<{name_w}}  {_sparkline(values)}  "
            f"min {min(values):g}  med {statistics.median(values):g}  "
            f"max {max(values):g}  latest {values[-1]:g}"
        )
    return "\n".join(out)


def check_regression(
    lines: list[dict],
    metric: str = GATE_METRIC,
    max_drop: float = GATE_DROP,
) -> tuple[bool, str]:
    """Gate the newest run against the median of its comparable history.

    Comparable = prior lines with the same ``quick`` flag and a numeric
    sample of ``metric``.  Too little history passes trivially — the
    gate needs a baseline before it can mean anything.
    """
    if not lines:
        return True, f"{metric}: no history, nothing to gate"
    newest = lines[-1]
    current = newest.get(metric)
    if not isinstance(current, (int, float)):
        return True, f"{metric}: newest run has no sample, nothing to gate"
    prior = [
        line[metric]
        for line in lines[:-1]
        if line.get("quick") == newest.get("quick")
        and isinstance(line.get(metric), (int, float))
    ]
    if not prior:
        return True, f"{metric}: no comparable history, nothing to gate"
    baseline = statistics.median(prior)
    floor = baseline * (1.0 - max_drop)
    verdict = (
        f"{metric}: latest {current:g} vs median {baseline:g} over "
        f"{len(prior)} prior run(s); floor {floor:g} (-{max_drop:.0%})"
    )
    if current < floor:
        return False, f"REGRESSION {verdict}"
    return True, f"ok {verdict}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", default=HISTORY,
                        help="path to perf_history.jsonl")
    parser.add_argument("--metric", default=GATE_METRIC,
                        help="gate metric (higher is better)")
    parser.add_argument("--threshold", type=float, default=GATE_DROP,
                        help="max allowed fractional drop vs the median")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when the newest run regresses")
    args = parser.parse_args(argv)

    lines = load_history(args.history)
    print(render_trends(lines))
    if not args.gate:
        return 0
    ok, message = check_regression(lines, args.metric, args.threshold)
    print(message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
