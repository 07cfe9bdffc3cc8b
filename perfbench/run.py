"""Benchmark of record for the ASF HTM simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

The workload (paper, policy_sweep, fleet or forensics) is repeated in a
closed loop for ``--seconds`` seconds, each repetition with a cold
compiled-script cache.  With ``--trace 0`` the run reports the
end-to-end metrics (times as means over the repetitions, see
README.md for why); with ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics from the traced ones (see spans.py).  Every metric is printed
as ``metric NAME VALUE UNIT``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status is 0 when the run completed, whether or not it was correct,
and 2 when the checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from time import perf_counter

import harness
from spans import SpanRecorder, write_spans

#: Fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_PROBES = 7
#: Repetitions measured at least, however long they take.
MIN_REPS = 3
#: A repetition that takes longer than this is counted as failed (livelock).
REP_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_acc_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.compile_s": "s",
    "workloads.compiles": "count",
    "workloads.cache_hit_ratio": "ratio",
    "engine.init_s": "s",
    "engine.loop_self_s": "s",
    "engine.runs": "count",
    "kernel.hit_calls": "count",
    "kernel.hit_ns": "ns",
    "kernel.miss_calls": "count",
    "kernel.miss_ns": "ns",
    "kernel.conflict_calls": "count",
    "kernel.stall_calls": "count",
    "kernel.commit_calls": "count",
    "kernel.commit_ns": "ns",
    "kernel.begin_ns": "ns",
    "kernel.self_s": "s",
    "htm.commit_ratio": "ratio",
    "htm.false_conflict_frac": "ratio",
    "htm.wasted_cycles_frac": "ratio",
    "htm.stall_cycles": "cycles",
    "htm.arbitration_aborts": "count",
    "htm.sim_cycles": "cycles",
    "mem.l1_hit_ratio": "ratio",
    "mem.remote_fill_frac": "ratio",
    "telemetry.hook_calls": "count",
    "telemetry.counter_s": "s",
    "telemetry.detail_s": "s",
    "telemetry.jsonl_s": "s",
    "telemetry.summary_s": "s",
    "telemetry.trace_bytes": "bytes",
    "executors.dispatch_self_s": "s",
    "executors.result_bytes": "bytes",
    "remote.first_result_s": "s",
    "remote.specs_per_s": "1/s",
    "remote.worker_share_max": "ratio",
    "remote.workers_joined": "count",
    "remote.batches_requeued": "count",
    "remote.duplicates_dropped": "count",
    "remote.drained_to_local": "count",
    "remote.local_fallback_specs": "count",
    "store.record_calls": "count",
    "store.record_ms": "ms",
    "store.resume_s": "s",
    "store.served_from_store": "count",
    "figures.compute_s": "s",
    "trace.read_s": "s",
    "trace.timeline_s": "s",
    "trace.analyze_s": "s",
    "trace.events": "count",
    "spans.coverage": "ratio",
    "spans.overhead_frac": "ratio",
    "paper_mae_pp": "pp",
}

KERNEL_SPANS = ("kernel.access", "kernel.commit", "kernel.abort_self",
                "kernel.new_txn", "kernel.begin_txn")


class RepTimeout(Exception):
    """A repetition ran past REP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise RepTimeout(f"repetition exceeded {REP_TIMEOUT_S} s")


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from process start to the first public call, per probe."""
    probe = os.path.join(harness.HERE, "probe.py")
    samples = []
    for _ in range(probes):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, probe, workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        ready = int(out.stdout.split()[-1])
        samples.append((ready - start) / 1e9)
    return samples


def run_rep(workload, recorder: SpanRecorder | None) -> harness.Rep:
    """One repetition; an exception or timeout fails every spec in it."""
    signal.setitimer(signal.ITIMER_REAL, REP_TIMEOUT_S)
    try:
        if recorder is None:
            return workload.run_once()
        return recorder.run_root("bench." + workload.name, workload.run_once)
    except Exception as exc:  # noqa: BLE001 - reported as failed specs
        rep = harness.Rep(wall_s=float("nan"), attempted=workload.n_specs)
        rep.fail(f"repetition raised {exc!r}", workload.n_specs)
        return rep
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def layer_metrics(rep: harness.Rep, rec: SpanRecorder, name: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    m = dict.fromkeys(PER_LAYER, 0.0)
    compiles = rec.calls("workloads.compile")
    m["workloads.compile_s"] = rec.self_s("workloads.compile")
    m["workloads.compiles"] = compiles - rec.compile_hits
    m["workloads.cache_hit_ratio"] = rec.compile_hits / compiles if compiles else 0.0
    m["engine.init_s"] = rec.self_s("engine.init")
    m["engine.loop_self_s"] = rec.self_s("engine.run")
    m["engine.runs"] = rec.calls("engine.run")

    hit, miss = rec.outcomes["hit"], rec.outcomes["miss"]
    commit, begin = rec.outcomes["commit"], rec.outcomes["begin"]
    starts = rec.calls("kernel.new_txn")
    m["kernel.hit_calls"] = hit[0]
    m["kernel.hit_ns"] = hit[1] / hit[0] if hit[0] else 0.0
    m["kernel.miss_calls"] = miss[0]
    m["kernel.miss_ns"] = miss[1] / miss[0] if miss[0] else 0.0
    m["kernel.conflict_calls"] = rec.conflict_calls
    m["kernel.stall_calls"] = rec.stall_calls
    m["kernel.commit_calls"] = commit[0]
    m["kernel.commit_ns"] = commit[1] / commit[0] if commit[0] else 0.0
    m["kernel.begin_ns"] = begin[1] / starts if starts else 0.0
    m["kernel.self_s"] = rec.self_s(*KERNEL_SPANS)

    runs = list(rep.results.values())
    if runs:
        attempts = sum(s.txn_attempts for s in runs)
        conflicts = sum(s.conflicts.total for s in runs)
        busy = sum(sum(s.per_core_cycles) for s in runs)
        accesses = sum(s.l1_hits + s.l1_misses for s in runs)
        fills = sum(s.fills_l2 + s.fills_l3 + s.fills_memory + s.fills_remote for s in runs)
        m["htm.commit_ratio"] = sum(s.txn_commits for s in runs) / attempts if attempts else 0.0
        m["htm.false_conflict_frac"] = (
            sum(s.conflicts.total_false for s in runs) / conflicts if conflicts else 0.0
        )
        m["htm.wasted_cycles_frac"] = sum(s.wasted_cycles for s in runs) / busy if busy else 0.0
        m["htm.stall_cycles"] = sum(s.stall_cycles for s in runs)
        m["htm.arbitration_aborts"] = sum(s.arbitration_aborts for s in runs)
        m["htm.sim_cycles"] = sum(s.execution_cycles for s in runs)
        m["mem.l1_hit_ratio"] = sum(s.l1_hits for s in runs) / accesses if accesses else 0.0
        m["mem.remote_fill_frac"] = sum(s.fills_remote for s in runs) / fills if fills else 0.0

    m["telemetry.hook_calls"] = rec.calls("telemetry.counter", "telemetry.detail", "telemetry.jsonl")
    m["telemetry.counter_s"] = rec.self_s("telemetry.counter")
    m["telemetry.detail_s"] = rec.self_s("telemetry.detail")
    m["telemetry.jsonl_s"] = rec.self_s("telemetry.jsonl")
    m["telemetry.summary_s"] = rec.self_s("telemetry.summary")
    m["executors.dispatch_self_s"] = rec.self_s("executors.run_many")
    m["figures.compute_s"] = rec.self_s("figures")
    m["trace.read_s"] = rec.self_s("trace.read")
    m["trace.timeline_s"] = rec.self_s("trace.timeline")
    m["trace.analyze_s"] = rec.self_s("trace.analyze")
    m["trace.events"] = rec.trace_events
    m["spans.coverage"] = rec.covered_s("bench." + name) / rep.wall_s
    for key, value in rep.layer.items():
        m[key] = value
    return m


def measure(
    ctx: harness.Context,
    seconds: float,
    trace: bool,
    probes: list[float],
    min_reps: int = MIN_REPS,
) -> dict:
    """Run the closed loop and assemble the printed lines and result object."""
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = harness.make_workload(ctx)
    reps: list[harness.Rep] = []
    traced: list[tuple[harness.Rep, SpanRecorder]] = []
    deadline = perf_counter() + seconds
    while len(reps) < min_reps or perf_counter() < deadline:
        rep = run_rep(workload, None)
        harness.compact(rep)
        reps.append(rep)
        if rep.failed:
            break
        if trace:
            rec = SpanRecorder(run_id=len(traced)).install()
            try:
                rep = run_rep(workload, rec)
            finally:
                rec.restore()
            rep.layer["executors.result_bytes"] = harness.result_bytes(rep.results.values())
            harness.compact(rep)
            traced.append((rep, rec))
            if rep.failed:
                break
    # Before the checks below, which may simulate in this process.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    # Correctness: golden digests where recorded, else the serial
    # reference (fleet) or the first repetition; plus invariants.
    expected = harness.load_golden(ctx.workload, ctx.seed, ctx.txns)
    if expected is None:
        expected = workload.reference() if hasattr(workload, "reference") else reps[0].digests
    scripted = workload.scripted()
    every = reps + [rep for rep, _ in traced]
    for rep in every:
        if rep.results:
            harness.check_digests(rep, expected)
            harness.check_invariants(rep, scripted)

    attempted = sum(rep.attempted for rep in every)
    failed = sum(rep.failed for rep in every)
    ok = [rep for rep in reps if rep.results]
    lines = [
        f"workload {ctx.workload} seed {ctx.seed} txns_per_core {ctx.txns} "
        f"repetitions {len(reps)} traced {len(traced)}",
        f"digest {harness.workload_digest(expected)}",
        f"failed_frac {failed / attempted if attempted else 1.0:.6f}",
    ]
    for rep in every:
        lines += [f"error {message}" for message in rep.errors[:5]]
    lines.append("repetition_wall_s " + " ".join(f"{rep.wall_s:.4f}" for rep in reps))

    if trace:
        values = [layer_metrics(rep, rec, ctx.workload) for rep, rec in traced if rep.results]
        metrics = {
            name: statistics.median(v[name] for v in values) if values else 0.0
            for name in PER_LAYER
        }
        if values:
            traced_wall = statistics.fmean(rep.wall_s for rep, _ in traced if rep.results)
            if ok:
                untraced = statistics.fmean(rep.wall_s for rep in ok)
                metrics["spans.overhead_frac"] = traced_wall / untraced - 1.0
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        write_spans(
            os.path.join(harness.OUT_DIR, f"spans-{ctx.workload}-s{ctx.seed}.jsonl"),
            [rec for _, rec in traced],
        )
        units = PER_LAYER
    else:
        # Means, not medians: the host's speed drifts in phases of tens of
        # seconds, and a median flips between the fast and slow level as a
        # phase covers more or less than half the repetitions.
        busy = sum(rep.wall_s for rep in ok)
        metrics = {
            "wall_s": busy / len(ok) if ok else 0.0,
            "setup_s": statistics.median(probes),
            "sim_acc_per_s": sum(rep.accesses for rep in ok) / busy if ok else 0.0,
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
        if ctx.workload == "paper" and ok:
            lines.append(f"paper_mae_pp {ok[0].layer['paper_mae_pp']!r}")

    lines += [f"metric {name} {metrics[name]!r} {units[name]}" for name in units]
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and bool(ok),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.check_checkout()
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    probes = measure_setup(args.workload, args.seed, SETUP_PROBES)
    ctx = harness.prepare(args.workload, args.seed)
    try:
        out = measure(ctx, args.seconds, bool(args.trace), probes)
    finally:
        harness.remove_workdir(ctx)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
