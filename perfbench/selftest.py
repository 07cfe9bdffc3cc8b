"""Seconds-long smoke of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once, untraced and traced, at 4 transactions per
core, and asserts that each run is correct and reports exactly the
metrics ``BENCHMARK.json`` declares, each with its unit.  Then it
perturbs one expected physics digest and asserts that the run counts a
failure and is no longer correct.  Exits non-zero on the first broken
assertion.
"""

import json
import os

import harness
import run

TINY_TXNS = 4


def declared() -> tuple[dict, dict]:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS), spec["workloads"]
    return end_to_end, per_layer


def smoke(workload: str, trace: bool, expected: dict | None = None) -> dict:
    """One tiny run; ``expected`` replaces the golden/reference digests."""
    probes = run.measure_setup(workload, 1, 1)
    ctx = harness.prepare(workload, 1, txns=TINY_TXNS)
    load_golden = harness.load_golden
    if expected is not None:
        harness.load_golden = lambda *args: dict(expected)
    try:
        return run.measure(ctx, 0.0, trace, probes, min_reps=1)["result"]
    finally:
        harness.load_golden = load_golden
        harness.remove_workdir(ctx)


def main() -> None:
    end_to_end, per_layer = declared()
    assert end_to_end == run.END_TO_END, "run.py end-to-end table differs from BENCHMARK.json"
    assert per_layer == run.PER_LAYER, "run.py per-layer table differs from BENCHMARK.json"
    for workload in harness.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result = smoke(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == names, (workload, trace, sorted(set(got) ^ set(names)))
            print(f"ok {workload} trace={int(trace)} attempted={result['attempted']}")

    label = "ssca2:asf×asf"
    result = smoke("policy_sweep", False, expected={label: "0" * 64})
    assert result["failed"] >= 1 and not result["correct"], result
    print(f"ok perturbed digest counted: failed={result['failed']}")


if __name__ == "__main__":
    main()
