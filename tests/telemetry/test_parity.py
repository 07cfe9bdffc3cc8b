"""The tentpole guarantee: pooled summary transfer is bit-for-bit equal
to the serial full-detail reference, across schemes and workloads."""

from __future__ import annotations

import pytest

from repro.config import DetectionScheme, default_system
from repro.sim.parallel import RunSpec, run_many
from repro.telemetry.summary import RunSummary, merge_summaries

TXNS = 12

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)
WORKLOADS = ("kmeans", "genome", "intruder")


def specs_for_grid(**kw) -> list[RunSpec]:
    return [
        RunSpec(
            workload=name,
            config=default_system(scheme, 4),
            seed=1,
            txns_per_core=TXNS,
            label=f"{name}:{scheme.value}",
            **kw,
        )
        for name in WORKLOADS
        for scheme in SCHEMES
    ]


class TestSummaryParity:
    def test_pooled_summary_equals_serial_full_detail(self):
        """3 schemes × 3 workloads: the compact transfer loses nothing."""
        serial = run_many(specs_for_grid(record_detail=True), "serial")
        pooled = run_many(specs_for_grid(), "process:4")
        for s, p in zip(serial, pooled):
            assert not isinstance(s.stats, RunSummary)
            assert isinstance(p.stats, RunSummary), p.stats
            assert p.stats.summary() == s.stats.summary(), p.stats.label
            assert p.stats.per_core_cycles == s.stats.per_core_cycles
            assert p.stats.retries_by_static == dict(s.stats.retries_by_static)
            assert p.scheme == s.scheme and p.workload == s.workload

    def test_summary_metadata_is_populated(self):
        results = run_many(specs_for_grid(), "serial")
        for spec, res in zip(specs_for_grid(), results):
            assert res.stats.label == spec.label
            assert res.stats.workload == res.workload
            assert res.stats.scheme == res.scheme
            assert res.stats.seed == 1

    def test_merge_equals_manual_sums(self):
        results = run_many(specs_for_grid(), "serial")
        summaries = [r.stats for r in results]
        merged = merge_summaries(summaries)
        assert merged.txn_commits == sum(s.txn_commits for s in summaries)
        assert merged.conflicts.total == sum(
            s.conflicts.total for s in summaries
        )
        assert merged.execution_cycles == sum(
            s.execution_cycles for s in summaries
        )
        assert merged.workload == "mixed"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_violations_travel_in_summaries(self, scheme):
        spec = RunSpec(
            workload="kmeans",
            config=default_system(scheme, 4),
            seed=1,
            txns_per_core=TXNS,
            tolerate_violations=True,
        )
        (res,) = run_many([spec], "serial")
        assert res.stats.violations == res.violations
