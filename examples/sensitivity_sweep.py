#!/usr/bin/env python
"""Sub-block sensitivity sweep (the paper's Figure 8 experiment).

Runs one benchmark under baseline ASF once (its detail sink keeps every
conflict record), then re-evaluates every recorded conflict at 2/4/8/16
sub-blocks (open-loop, the characterization-study method) AND runs full
closed-loop simulations at each granularity to show the end-to-end effect.

Run:  python examples/sensitivity_sweep.py [benchmark] [txns_per_core]
"""

import sys

from repro import DetectionScheme, default_system, get_workload
from repro.analysis.granularity import reduction_by_granularity
from repro.sim.runner import run_scripts
from repro.util.tables import format_table, percent

GRANULARITIES = (2, 4, 8, 16)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "genome"
    txns = int(sys.argv[2]) if len(sys.argv) > 2 else 150

    workload = get_workload(name, txns_per_core=txns)
    base_cfg = default_system()
    scripts = workload.build(base_cfg.n_cores, seed=1)

    print(f"[1/2] Baseline ASF run of {name} (recording conflicts)...")
    baseline = run_scripts(
        scripts, base_cfg, 1, workload_name=name, check_atomicity=False,
    )
    events = baseline.stats.conflict_events
    print(
        f"      {baseline.stats.conflicts.total} conflicts, "
        f"{baseline.stats.conflicts.total_false} false "
        f"({percent(baseline.stats.conflicts.false_rate)})\n"
    )

    open_loop = reduction_by_granularity(events, GRANULARITIES)

    print("[2/2] Closed-loop runs at each sub-block count...")
    rows = []
    for n in GRANULARITIES:
        cfg = base_cfg.with_scheme(DetectionScheme.SUBBLOCK, n)
        res = run_scripts(scripts, cfg, 1, workload_name=name,
                          check_atomicity=False)
        rows.append((
            f"{n} x {64 // n}B",
            percent(open_loop[n]),
            percent(res.false_reduction_over(baseline)),
            percent(res.conflict_reduction_over(baseline)),
            percent(res.speedup_over(baseline)),
        ))
    print()
    print(format_table(
        ("sub-blocks", "open-loop false red.", "closed-loop false red.",
         "overall conflict red.", "exec improvement"),
        rows,
        title=f"Figure 8 sensitivity for {name}",
    ))
    print(
        "\nOpen-loop = re-evaluating the recorded baseline conflicts at each\n"
        "granularity (monotone by construction, the paper's Figure 8 metric).\n"
        "Closed-loop = independent full simulations (includes timing feedback)."
    )


if __name__ == "__main__":
    main()
