#!/usr/bin/env python
"""Measure the simulator's own performance and write ``BENCH_perf.json``.

Five measurements, each with its built-in honesty check:

1. **Hot path** — one contended 8-core vacation run through the full
   engine on two stacks: the flat kernel + micro-batched loop (the
   default) and the reference object model + stepwise loop
   (``record_detail`` off).  Both runs' stats summaries are asserted
   identical before any speedup is reported (the kernel changes the
   *representation*, never the simulated machine).
2. **Kernel** — the vacation hot-path replay microbench: the recorded
   single-core vacation access stream driven straight through
   ``machine.access`` on both kernels.  This isolates the per-access
   kernel cost (coherence state, LRU, telemetry dispatch) from machinery
   both kernels share — transaction construction, token allocation,
   redo-log publishing — which Amdahl's law says would otherwise cap any
   representation's apparent gain.  Per-access counters are asserted
   identical across kernels before the ratio is reported.
3. **Parallel orchestration** — ``compare_systems`` over several
   benchmarks with ``executor="process:1"`` vs ``"process:4"``.  The observed speedup depends
   on the host: on a single-CPU container forked-worker fan-out cannot
   beat serial, so the section is *skipped and marked as such* when
   ``cpu_count == 1`` (``cpu_count`` is recorded next to the numbers
   otherwise).
4. **Summary transfer** — the same ``run_many(specs, "process:4")``
   batch shipping detail sinks (each spec's ``record_detail=True``) vs
   compact ``RunSummary`` objects over the workers' loopback sockets.
   The per-result pickle payloads are measured and every summary's
   counters are asserted bit-identical to its full counterpart before
   the speedup is reported.
5. **Figure pipeline** — a small ``run_suite`` plus
   ``compute_all_figures``, timed separately, so simulation cost and
   analysis cost are visible on their own.

Run:  python examples/bench_perf.py [--quick] [--out BENCH_perf.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import time
from dataclasses import replace

from repro.analysis.experiments import run_suite
from repro.analysis.figures import compute_all_figures
from repro.config import DetectionScheme, default_system
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import RunSpec, run_many
from repro.sim.runner import compare_systems
from repro.workloads.registry import get_workload
from repro.workloads.vacation import VacationWorkload

PARALLEL_BENCHMARKS = ("vacation", "genome", "kmeans", "intruder")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bench_hot_path(txns: int, seed: int = 5, reps: int = 5) -> dict:
    """Flat engine vs the object model on one contended run.

    Two full-engine configurations of the same run:

    * ``flat`` + micro-batched engine loop — the default stack;
    * ``object`` + stepwise (heap-per-op) engine — the reference model.

    Each is timed warm, best-of-``reps``; both summaries are asserted
    identical before the ratio is reported.
    """
    w = VacationWorkload(txns_per_core=txns)
    cfg = default_system(DetectionScheme.SUBBLOCK, 4)
    scripts = w.build(cfg.n_cores, seed)

    def run(kernel: str, micro_batch: bool):
        engine = SimulationEngine(
            cfg.with_kernel(kernel), scripts, seed=seed,
            check_atomicity=False, record_detail=False,
            micro_batch=micro_batch,
        )
        return engine.run()

    def best_of(kernel: str, micro_batch: bool):
        run(kernel, micro_batch)  # warm caches (memos, allocator)
        best, stats = min(
            (_timed(lambda: run(kernel, micro_batch))[::-1] for _ in range(reps)),
            key=lambda r: r[0],
        )
        return stats, best

    flat, flat_s = best_of("flat", True)
    slow, slow_s = best_of("object", False)
    if flat.summary() != slow.summary():
        raise AssertionError("kernel runs diverged on the hot-path workload")
    accesses = flat.l1_hits + flat.l1_misses
    return {
        "workload": f"vacation x{txns} txns/core, 8 cores, subblock N=4",
        "simulated_accesses": accesses,
        "engine_flat_txn_seconds": round(flat_s, 4),
        "kernel_object_seconds": round(slow_s, 4),
        "engine_flat_txn_acc_per_sec": round(accesses / flat_s),
        "kernel_object_accesses_per_sec": round(accesses / slow_s),
        "speedup_flat_vs_object": round(slow_s / flat_s, 3),
        "counters_identical": True,
    }


def bench_kernel(txns: int, seed: int = 7, replays: int = 15) -> dict:
    """The vacation hot-path replay: per-access kernel cost in isolation.

    A single-core vacation script's access stream is recorded once, then
    replayed non-transactionally through ``machine.access`` on each
    kernel (after one warm pass that faults the footprint into the L1).
    Reads dominate the stream and hit in L1 after warm-up, so the number
    measured is the per-access hot path itself — the part the flat
    kernel's array representation targets — not the shared token/redo
    plumbing.
    """
    from repro.htm.ops import OpKind
    from repro.kernel import build_machine
    from repro.telemetry.sinks import CounterSink

    w = VacationWorkload(txns_per_core=txns)
    scripts = w.build(1, seed)
    stream = [
        (op.addr, op.size)
        for cs in scripts
        for st in cs.txns
        for op in st.ops
        if op.kind is not OpKind.WORK
    ]

    def replay(kernel: str) -> tuple[float, dict]:
        cfg = default_system(DetectionScheme.SUBBLOCK, 4).with_kernel(kernel)
        machine = build_machine(cfg, stats=CounterSink())
        access = machine.access
        for addr, size in stream:  # warm pass: fault in the footprint
            access(0, addr, size, False, 0)
        t0 = time.perf_counter()
        for rep in range(replays):
            for addr, size in stream:
                access(0, addr, size, False, rep)
        elapsed = time.perf_counter() - t0
        return elapsed, machine.stats.summary()

    # Best-of-three to de-noise single-CPU CI containers.
    obj_s, obj_sum = min(
        (replay("object") for _ in range(3)), key=lambda r: r[0]
    )
    flat_s, flat_sum = min(
        (replay("flat") for _ in range(3)), key=lambda r: r[0]
    )
    if obj_sum != flat_sum:
        raise AssertionError("kernel replay counters diverged")
    accesses = len(stream) * replays
    return {
        "workload": f"vacation x{txns} txns/core stream, single core, "
        f"{replays} replays (reads, L1-hot)",
        "stream_ops": len(stream),
        "replayed_accesses": accesses,
        "kernel_object_seconds": round(obj_s, 4),
        "kernel_flat_seconds": round(flat_s, 4),
        "kernel_object_accesses_per_sec": round(accesses / obj_s),
        "kernel_flat_accesses_per_sec": round(accesses / flat_s),
        "speedup": round(obj_s / flat_s, 3),
        "counters_identical": True,
    }


def bench_parallel(txns: int, jobs: int = 4, seed: int = 1) -> dict:
    """Serial vs forked-worker execution of identical run batches."""
    cpus = os.cpu_count() or 1
    if cpus == 1:
        # Forked-worker fan-out cannot beat serial on one CPU; a "0.6x
        # speedup" here would only be container noise masquerading as a
        # regression, so the section is marked skipped instead.
        return {
            "skipped": True,
            "reason": "cpu_count == 1: forked-worker fan-out cannot "
                      "outrun serial execution",
            "cpu_count": 1,
        }
    workloads = [get_workload(name, txns) for name in PARALLEL_BENCHMARKS]

    def batch(n_jobs: int):
        return [
            compare_systems(w, seed=seed, check_atomicity=False,
                            executor=f"process:{n_jobs}")
            for w in workloads
        ]

    serial, serial_s = _timed(lambda: batch(1))
    parallel, parallel_s = _timed(lambda: batch(jobs))
    identical = all(
        {k: r.stats.summary() for k, r in s.items()}
        == {k: r.stats.summary() for k, r in p.items()}
        for s, p in zip(serial, parallel)
    )
    if not identical:
        raise AssertionError("parallel batch diverged from serial batch")
    return {
        "benchmarks": list(PARALLEL_BENCHMARKS),
        "runs": len(workloads) * 3,
        "jobs": jobs,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "results_identical": True,
    }


def bench_transfer(txns: int, jobs: int = 4, seed: int = 1) -> dict:
    """Detail-sink vs RunSummary transfer for one ``process:N`` batch."""
    specs = [
        RunSpec(
            workload=name,
            config=default_system(scheme, 4),
            seed=seed,
            txns_per_core=txns,
            label=f"{name}:{scheme.value}",
        )
        for name in PARALLEL_BENCHMARKS
        for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK,
                       DetectionScheme.PERFECT)
    ]
    full_specs = [replace(spec, record_detail=True) for spec in specs]
    full, full_s = _timed(lambda: run_many(full_specs, f"process:{jobs}"))
    lean, lean_s = _timed(lambda: run_many(specs, f"process:{jobs}"))
    identical = all(
        f.stats.summary() == s.stats.summary() for f, s in zip(full, lean)
    )
    if not identical:
        raise AssertionError("summary transfer diverged from detail sinks")
    full_bytes = sum(len(pickle.dumps(r.stats)) for r in full)
    lean_bytes = sum(len(pickle.dumps(r.stats)) for r in lean)
    return {
        "benchmarks": list(PARALLEL_BENCHMARKS),
        "runs": len(specs),
        "jobs": jobs,
        "full_seconds": round(full_s, 4),
        "summary_seconds": round(lean_s, 4),
        "speedup": round(full_s / lean_s, 3),
        "full_payload_bytes": full_bytes,
        "summary_payload_bytes": lean_bytes,
        "payload_ratio": round(full_bytes / lean_bytes, 1),
        "counters_identical": True,
    }


def bench_figures(txns: int, seed: int = 1) -> dict:
    """Simulation vs analysis cost of the figure pipeline."""
    suite, sim_s = _timed(
        lambda: run_suite(txns_per_core=txns, seed=seed,
                          benchmarks=PARALLEL_BENCHMARKS)
    )
    figures, fig_s = _timed(lambda: compute_all_figures(suite))
    return {
        "benchmarks": list(PARALLEL_BENCHMARKS),
        "txns_per_core": txns,
        "simulate_seconds": round(sim_s, 4),
        "compute_figures_seconds": round(fig_s, 4),
        "figures": sorted(figures),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small workloads (CI smoke); numbers are noisier")
    ap.add_argument("--out", default="BENCH_perf.json")
    args = ap.parse_args(argv)

    hot_txns = 40 if args.quick else 150
    par_txns = 25 if args.quick else 100
    fig_txns = 25 if args.quick else 100

    report = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
        },
        "hot_path": bench_hot_path(hot_txns),
        "kernel": bench_kernel(40 if args.quick else 80),
        "parallel": bench_parallel(par_txns),
        "transfer": bench_transfer(par_txns),
        "figure_pipeline": bench_figures(fig_txns),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    hp, par = report["hot_path"], report["parallel"]
    ker = report["kernel"]
    print(f"wrote {args.out}")
    print(f"  hot path : {hp['engine_flat_txn_acc_per_sec']:>9,} acc/s flat "
          f"(object {hp['kernel_object_accesses_per_sec']:,}; "
          f"{hp['speedup_flat_vs_object']}x, counters identical)")
    print(f"  kernel   : {ker['kernel_flat_accesses_per_sec']:>9,} acc/s "
          f"replay flat (object {ker['kernel_object_accesses_per_sec']:,}; "
          f"{ker['speedup']}x, counters identical)")
    if par.get("skipped"):
        print(f"  parallel : skipped ({par['reason']})")
    else:
        print(f"  parallel : {par['runs']} runs, jobs={par['jobs']}: "
              f"{par['parallel_seconds']}s vs serial {par['serial_seconds']}s "
              f"({par['speedup']}x on {report['meta']['cpu_count']} CPUs)")
    tr = report["transfer"]
    print(f"  transfer : summary {tr['summary_seconds']}s vs full "
          f"{tr['full_seconds']}s ({tr['speedup']}x); payload "
          f"{tr['summary_payload_bytes']:,} B vs "
          f"{tr['full_payload_bytes']:,} B ({tr['payload_ratio']}x smaller, "
          f"counters identical)")
    print(f"  figures  : simulate {report['figure_pipeline']['simulate_seconds']}s, "
          f"analyse {report['figure_pipeline']['compute_figures_seconds']}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
