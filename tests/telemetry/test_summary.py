"""RunSummary transfer objects: snapshot fidelity, pickling cost,
merging and multi-seed metric aggregation, both folds over streams."""

from __future__ import annotations

import pickle

import pytest

from repro.config import DetectionScheme, default_system
from repro.sim.runner import run_workload
from repro.telemetry.sinks import COUNTER_FIELDS
from repro.telemetry.summary import (
    MetricStats,
    RunSummary,
    aggregate_metrics,
    merge_summaries,
)
from repro.workloads.kmeans import KmeansWorkload

TXNS = 12


def run(seed: int = 1, scheme=DetectionScheme.SUBBLOCK):
    return run_workload(
        KmeansWorkload(txns_per_core=TXNS),
        default_system(scheme, 4),
        seed=seed,
        check_atomicity=False,
    )


class TestFromSink:
    def test_snapshot_matches_collector_bit_for_bit(self):
        res = run()
        summ = RunSummary.from_sink(
            res.stats, workload=res.workload, scheme=res.scheme, seed=res.seed
        )
        assert summ.summary() == res.stats.summary()
        for name in COUNTER_FIELDS:
            assert getattr(summ, name) == getattr(res.stats, name)
        assert summ.per_core_cycles == res.stats.per_core_cycles
        assert dict(res.stats.retries_by_static) == summ.retries_by_static

    def test_snapshot_is_independent_of_source(self):
        res = run()
        summ = RunSummary.from_sink(res.stats)
        res.stats.conflicts.true_raw += 100
        res.stats.per_core_cycles.append(-1)
        assert summ.conflicts.true_raw != res.stats.conflicts.true_raw
        assert summ.per_core_cycles != res.stats.per_core_cycles

    def test_pickles_much_smaller_than_collector(self):
        res = run()
        summ = RunSummary.from_sink(res.stats)
        assert len(pickle.dumps(summ)) < len(pickle.dumps(res.stats))
        clone = pickle.loads(pickle.dumps(summ))
        assert clone.summary() == summ.summary()


class TestMerge:
    def test_merge_sums_counters(self):
        a = RunSummary.from_sink(run(seed=1).stats, workload="kmeans",
                                 scheme="subblock", seed=1)
        b = RunSummary.from_sink(run(seed=2).stats, workload="kmeans",
                                 scheme="subblock", seed=2)
        merged = merge_summaries([a, b])
        for name in COUNTER_FIELDS:
            assert getattr(merged, name) == getattr(a, name) + getattr(b, name)
        assert merged.conflicts.total == a.conflicts.total + b.conflicts.total
        assert merged.execution_cycles == a.execution_cycles + b.execution_cycles
        assert merged.n_runs == 2
        assert merged.workload == "kmeans"
        assert merged.scheme == "subblock"
        assert merged.seed == -1  # mixed seeds
        assert merged.per_core_cycles == []

    def test_merge_unions_retry_histogram(self):
        a = RunSummary(retries_by_static={1: 2, 2: 1})
        b = RunSummary(retries_by_static={2: 3, 7: 1})
        merged = merge_summaries([a, b])
        assert merged.retries_by_static == {1: 2, 2: 4, 7: 1}

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_summaries([])


class TestFolds:
    """``merge_summaries`` and ``aggregate_metrics`` fold a lazy stream
    one run at a time, exactly as they fold a list."""

    def test_merge_folds_a_lazy_stream(self):
        summaries = [
            RunSummary.from_sink(run(seed=s).stats, workload="kmeans",
                                 scheme="subblock", seed=s)
            for s in (1, 2, 3)
        ]
        merged = merge_summaries(s for s in summaries)
        assert merged.n_runs == 3
        assert merged.to_dict() == merge_summaries(summaries).to_dict()

    def test_merge_rejects_an_empty_stream(self):
        with pytest.raises(ValueError):
            merge_summaries(s for s in ())

    def test_aggregate_folds_a_lazy_stream(self):
        summaries = [RunSummary.from_sink(run(seed=s).stats) for s in (1, 2)]
        assert aggregate_metrics(s for s in summaries) == aggregate_metrics(summaries)

    def test_aggregate_of_an_empty_stream_is_empty(self):
        assert aggregate_metrics(s for s in ()) == {}


class TestDictRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        res = run(seed=4)
        summ = RunSummary.from_sink(
            res.stats, workload=res.workload, scheme=res.scheme, seed=4,
            label="rt",
        )
        summ.worker_retries = 2
        summ.serial_fallback = True
        clone = RunSummary.from_dict(summ.to_dict())
        assert clone.to_dict() == summ.to_dict()
        assert clone.summary() == summ.summary()
        assert clone.retries_by_static == summ.retries_by_static
        assert clone.worker_retries == 2 and clone.serial_fallback

    def test_dict_is_json_safe(self):
        import json

        summ = RunSummary.from_sink(run().stats)
        payload = json.dumps(summ.to_dict())
        assert RunSummary.from_dict(json.loads(payload)).summary() == (
            summ.summary()
        )


class TestAggregateMetrics:
    def test_mean_and_stdev_over_seeds(self):
        runs = [RunSummary.from_sink(run(seed=s).stats) for s in (1, 2, 3)]
        metrics = aggregate_metrics(runs)
        cycles = [r.execution_cycles for r in runs]
        m = metrics["execution_cycles"]
        assert m.n == 3
        assert m.mean == pytest.approx(sum(cycles) / 3)
        assert m.minimum == min(cycles) and m.maximum == max(cycles)

    def test_single_run_has_zero_stdev(self):
        (m,) = [aggregate_metrics([RunSummary.from_sink(run().stats)])]
        assert m["txn_commits"].stdev == 0.0

    def test_empty_iterable(self):
        assert aggregate_metrics([]) == {}

    def test_format(self):
        s = MetricStats(mean=1.5, stdev=0.25, n=3, minimum=1.0, maximum=2.0)
        assert s.format() == "1.50 ± 0.25"
        assert s.format(precision=0) == "2 ± 0"
