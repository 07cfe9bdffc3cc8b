#!/usr/bin/env python3
"""Paired A/B runs of the benchmark of record on two commits.

    python benchmarks/perf/ab.py BASE [HEAD] [--pairs 10] [--seconds S]
        [--seed 1] [--workload W]... [--trace 0|1]

BASE (and HEAD, if given; else the working tree) runs in a temporary git
worktree that holds HEAD's ``perfbench/``.  Per workload, ``--pairs``
pairs of ``perfbench/run.py`` alternate which side goes first.  An
incorrect run exits 1; so does an end-to-end metric whose median paired
ratio is worse than its bound.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class RunError(Exception):
    """A perfbench run that did not complete correctly."""


def parse_result(stdout: str) -> dict[str, float]:
    """The metric values of a run's last stdout line; RunError unless
    that line is a JSON object reading ``correct: true, failed: 0``."""
    last = (stdout.strip().splitlines() or [""])[-1]
    if not last:
        raise RunError("no result line")
    try:
        result = json.loads(last)
        correct = result.get("correct") is True and result.get("failed") == 0
    except (ValueError, AttributeError):
        raise RunError(f"last line is not a JSON object: {last[:200]!r}") from None
    if not correct:
        raise RunError(f"correct: {result.get('correct')}, failed: "
                       f"{result.get('failed')} of {result.get('attempted')}")
    try:
        return {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (AttributeError, KeyError, TypeError, ValueError):
        raise RunError(f"malformed metrics: {last[:200]!r}") from None


def median_ratio(base: list[float], head: list[float]) -> float:
    """Median over pairs of HEAD/BASE; equal values (zeros too) read 1."""
    return statistics.median(
        1.0 if h == b else h / b if b else float("inf") for b, h in zip(base, head)
    )


def wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which HEAD is better than BASE; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum((h - b) * sign > 0 for b, h in zip(base, head))


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def regressed(paired: float, better: str, bound: float) -> bool:
    """A median paired ratio above ``1 + bound`` where lower is better,
    or below ``1 - bound`` where higher is."""
    return paired > 1 + bound if better == "lower" else paired < 1 - bound


def compare(spec: dict, base: list[float], head: list[float]) -> dict:
    """One metric's record; an end-to-end metric also gets its verdict."""
    row = {"unit": spec["unit"], "better": spec["better"],
           "base": statistics.median(base), "head": statistics.median(head),
           "ratio": median_ratio(base, head), "wins": wins(base, head, spec["better"]),
           "base_spread": quartile_spread(base), "base_runs": base, "head_runs": head}
    if "bound" in spec:
        row["bound"] = spec["bound"]
        row["regressed"] = regressed(row["ratio"], spec["better"], spec["bound"])
    return row


def git(*args: str) -> str:
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"ab: git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def measure(trees: dict, command: list[str], args, workload: str, env: dict) -> dict:
    """``{side: {metric: [value per pair]}}`` for one workload."""
    values: dict[str, dict[str, list[float]]] = {"base": {}, "head": {}}
    argv = command + ["--workload", workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for k in range(args.pairs):
        for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
            out = subprocess.run(argv, cwd=trees[side], env=env, capture_output=True,
                                 text=True)
            try:
                metrics = parse_result(out.stdout)
            except RunError as exc:
                errors = [line for line in out.stdout.splitlines() if line.startswith("error")]
                raise RunError("\n".join([f"{workload}: {side} run, pair {k + 1}: {exc}",
                                          *errors[:3], out.stderr[-800:]]).strip()) from None
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
        print(f"ab: {workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
    return values


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", help="default: the working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.head:
        head = git("rev-parse", "--verify", f"{args.head}^{{commit}}")
    else:
        head = git("rev-parse", "HEAD") + ("-dirty" if git("status", "--porcelain") else "")
    record = {"base": git("rev-parse", "--verify", f"{args.base}^{{commit}}"), "head": head,
              "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
              "trace": args.trace, "workloads": {}, "regressions": []}
    with contextlib.ExitStack() as stack:
        tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix="ab-"))
        trees = {"head": ROOT}
        for side in ("base", "head") if args.head else ("base",):
            trees[side] = f"{tmp}/{side}"
            git("worktree", "add", "--detach", "--quiet", trees[side], record[side])
            stack.callback(git, "worktree", "remove", "--force", trees[side])
        shutil.rmtree(f"{trees['base']}/perfbench", ignore_errors=True)
        shutil.copytree(f"{trees['head']}/perfbench", f"{trees['base']}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        # Each tree imports only its own src.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        for workload in args.workload or names:
            try:
                values = measure(trees, bench["command"], args, workload, env)
            except RunError as exc:
                print(f"ab: {exc}", file=sys.stderr)
                return 1
            rows = record["workloads"][workload] = {
                name: compare(spec, values["base"][name], values["head"][name])
                for name, spec in specs.items() if name in values["base"]
            }
            print(f"\n{workload:<26} {'unit':<6} {'base':>11} {'head':>11} {'ratio':>7} "
                  f"{'wins':>6} {'base IQR':>10} {'bound':>6}")
            for name, r in rows.items():
                print(f"{name:<26} {r['unit']:<6} {r['base']:>11.5g} {r['head']:>11.5g} "
                      f"{r['ratio']:>7.3f} {r['wins']:>3}/{args.pairs:<2} "
                      f"{r['base_spread']:>10.4g} {r.get('bound', ''):>6}"
                      + ("  REGRESSED" if r.get("regressed") else ""))
                if r.get("regressed"):
                    record["regressions"].append(f"{workload} {name}")
    # One line per list of runs keeps the record readable.
    text = re.sub(r"\[[^][{}\"]*\]", lambda m: json.dumps(json.loads(m.group())),
                  json.dumps(record, indent=1))
    with open(os.path.join(ROOT, "BENCH_perf.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"\nbase {record['base'][:12]}, head {record['head'][:12]}: wrote BENCH_perf.json")
    if record["regressions"]:
        print("past the BENCHMARK.json bound: " + ", ".join(record["regressions"]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
