"""Regenerate golden.json: the physics digests the benchmark checks against.

    python3 perfbench/make_golden.py

Digests are recorded for the default seed (1) and one held-out seed (7)
at the benchmark's scale.  fleet runs the policy_sweep spec list and is
checked against its entry.  Only regenerate after a change that is
meant to alter the simulated statistics, and say so in the change.
"""

import json

import harness

SEEDS = (1, 7)


def main() -> None:
    golden = {"txns_per_core": harness.TXNS_PER_CORE, "seeds": {}}
    for seed in SEEDS:
        entry = golden["seeds"][str(seed)] = {}
        for name in ("paper", "policy_sweep", "forensics"):
            ctx = harness.prepare(name, seed)
            try:
                workload = harness.make_workload(ctx)
                rep = workload.run_once()
                harness.check_invariants(rep, workload.scripted())
            finally:
                harness.remove_workdir(ctx)
            if rep.failed:
                raise SystemExit(f"{name} seed {seed}: {rep.errors}")
            digests = rep.digests
            entry[name] = {"digest": harness.workload_digest(digests), "runs": digests}
            print(f"seed {seed} {name} {entry[name]['digest']}")
    with open(harness.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
