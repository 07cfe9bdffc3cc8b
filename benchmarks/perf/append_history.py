#!/usr/bin/env python
"""Append one compact line per bench run to the perf history log.

Reads a ``BENCH_perf.json`` written by ``examples/bench_perf.py`` and
appends a single JSON line — commit, timestamp and the headline numbers
of every section — to ``benchmarks/perf/history/perf_history.jsonl``.
One line per run keeps the file merge-friendly and trivially greppable;
the CI perf-smoke job appends on every run so regressions show up as a
trend, not a single noisy point.

Run:  python benchmarks/perf/append_history.py [BENCH_perf.json]
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
import sys

HISTORY = os.path.join(os.path.dirname(__file__), "history", "perf_history.jsonl")


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def history_line(report: dict) -> dict:
    hp = report.get("hot_path", {})
    ker = report.get("kernel", {})
    par = report.get("parallel", {})
    tr = report.get("transfer", {})
    fig = report.get("figure_pipeline", {})
    # The gate metric is ``engine_flat_txn_acc_per_sec``: the flat
    # kernel's micro-batched engine throughput, the stack a default run
    # ships on.  Both speedups are object-model time over flat time.
    return {
        "sha": git_sha(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "quick": report.get("meta", {}).get("quick"),
        "cpu_count": report.get("meta", {}).get("cpu_count"),
        "python": report.get("meta", {}).get("python"),
        "engine_flat_txn_acc_per_sec": hp.get("engine_flat_txn_acc_per_sec"),
        "speedup_flat_vs_object": hp.get("speedup_flat_vs_object"),
        "kernel_replay_acc_per_sec": ker.get("kernel_flat_accesses_per_sec"),
        "kernel_speedup": ker.get("speedup"),
        "parallel_speedup": par.get("speedup"),
        "transfer_speedup": tr.get("speedup"),
        "transfer_payload_ratio": tr.get("payload_ratio"),
        "simulate_seconds": fig.get("simulate_seconds"),
        "figures_seconds": fig.get("compute_figures_seconds"),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    report_path = argv[0] if argv else "BENCH_perf.json"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    line = history_line(report)
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, separators=(",", ":")) + "\n")
    print(f"appended {line['sha']} to {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
