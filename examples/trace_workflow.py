#!/usr/bin/env python
"""Trace-driven workflow: pin a program, replay it, inspect one line.

Three steps a user debugging an HTM workload walks through:

1. compile a benchmark and *serialize* the exact per-core program — the
   file pins the experiment independent of generator code drift;
2. replay the serialized program under two detection schemes and diff the
   headline numbers (identical programs, so any delta is the detector);
3. record the run as an event trace (accesses included) and zoom into
   the hottest conflicting line: who touched it, when, with what outcome.

Run:  python examples/trace_workflow.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro import (
    ConflictTimeline,
    DetectionScheme,
    TraceReader,
    default_system,
    get_workload,
)
from repro.sim.runner import run_scripts
from repro.telemetry import AccessEvent
from repro.trace import load_scripts, save_scripts
from repro.util.tables import format_table, percent


def main() -> None:
    # -- 1. pin the program -------------------------------------------------
    workload = get_workload("genome", txns_per_core=60)
    scripts = workload.build(8, seed=5)
    path = Path(tempfile.mkdtemp()) / "genome-seed5.jsonl"
    save_scripts(scripts, path, metadata={"benchmark": "genome", "seed": 5})
    print(f"[1] serialized the compiled program to {path}")
    loaded = load_scripts(path)
    assert loaded == scripts
    print("    reloaded and verified (content digest matches)\n")

    # -- 2. replay under two schemes ---------------------------------------
    rows = []
    results = {}
    for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK):
        cfg = default_system(scheme, 4)
        res = run_scripts(loaded, cfg, seed=5, workload_name="genome")
        results[scheme] = res
        s = res.stats
        rows.append((res.scheme, s.conflicts.total, s.conflicts.total_false,
                     percent(s.conflicts.false_rate), s.execution_cycles))
    print("[2] identical program, two detectors:")
    print(format_table(
        ("scheme", "conflicts", "false", "false rate", "cycles"), rows))
    base, sub = results[DetectionScheme.ASF_BASELINE], results[DetectionScheme.SUBBLOCK]
    print(f"    improvement: {percent(sub.speedup_over(base))}\n")

    # -- 3. record a trace and zoom into the hottest line -------------------
    trace = path.with_name("genome-seed5-asf.trace.jsonl")
    cfg = default_system(DetectionScheme.ASF_BASELINE).with_telemetry(
        sink="trace", trace_path=str(trace), trace_accesses=True,
    )
    run_scripts(loaded, cfg, seed=5, workload_name="genome",
                check_atomicity=False)
    timeline = ConflictTimeline.from_trace(trace)

    [(hot_index, hot_addr, n_false)] = timeline.line_ranking(top=1)
    with TraceReader(trace) as reader:
        by_core = Counter(
            e.core for e in reader
            if isinstance(e, AccessEvent) and e.line_addr == hot_addr
        )
    conflicts = [c for c in timeline.conflict_events if c.line_index == hot_index]
    print(f"[3] recorded {trace.name}; hottest false-conflict line: "
          f"index {hot_index} at {hot_addr:#x} ({n_false} false conflicts, "
          f"{sum(by_core.values())} accesses)")
    print(f"    cores touching it: {dict(sorted(by_core.items()))}")
    for c in conflicts[:5]:
        kind = "W" if c.requester_is_write else "R"
        offset = (c.requester_mask & -c.requester_mask).bit_length() - 1
        truth = "false" if c.is_false else "true"
        print(f"    @cycle {c.time:>7} core{c.requester_core} {kind} "
              f"+{offset:<2} -> aborted core{c.victim_core} "
              f"({truth} {c.ctype.value})")
    print("\nThe serialized program + seed reproduce every one of these "
          "events bit-for-bit.")


if __name__ == "__main__":
    main()
