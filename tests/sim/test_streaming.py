"""The streaming sweep pipeline: iter_many + accumulators + store resume.

Three guarantees under test:

* **Streaming parity** — folding the ``iter_many`` stream with
  ``merge_summaries`` / ``aggregate_metrics`` produces bit-for-bit the
  same aggregate as folding the batch ``run_many`` list, on a 3-scheme ×
  3-workload grid.
* **Crash/resume fidelity** — a sweep interrupted mid-flight and resumed
  against the same results store yields a merged summary identical to an
  uninterrupted run, with the finished prefix served from disk.
* **Bounded memory** — a 10k-spec sweep never retains more than a small
  constant of live results in the parent (instrumented via a stubbed
  executor), and ``process:N`` keeps at most ``N × batch_size`` specs
  in flight.
"""

from __future__ import annotations

from repro.config import DetectionScheme, default_system
from repro.sim import parallel
from repro.sim.executors import ExecConfig
from repro.sim.parallel import RunSpec, iter_many, run_many
from repro.sim.runner import RunResult
from repro.store import ResultsStore
from repro.telemetry.summary import (
    RunSummary,
    aggregate_metrics,
    merge_summaries,
)

TXNS = 12

SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
)
WORKLOADS = ("kmeans", "genome", "intruder")


def specs_for_grid() -> list[RunSpec]:
    return [
        RunSpec(
            workload=name,
            config=default_system(scheme, 4),
            seed=1,
            txns_per_core=TXNS,
            label=f"{name}:{scheme.value}",
        )
        for name in WORKLOADS
        for scheme in SCHEMES
    ]


class TestStreamingParity:
    def test_streamed_merge_equals_batch_merge(self):
        """The merge folded over the stream equals it over the batch."""
        streamed = merge_summaries(
            res.stats for _i, res in iter_many(specs_for_grid(), "serial")
        )
        batch = run_many(specs_for_grid(), "serial")
        merged = merge_summaries([r.stats for r in batch])
        assert streamed.n_runs == len(batch)
        assert streamed.to_dict() == merged.to_dict()

    def test_streamed_metrics_equal_batch_metrics(self):
        streamed = aggregate_metrics(
            res.stats for _i, res in iter_many(specs_for_grid(), "serial")
        )
        batch = run_many(specs_for_grid(), "serial")
        assert streamed == aggregate_metrics([r.stats for r in batch])

    def test_pooled_stream_counters_equal_serial(self):
        """Completion order is nondeterministic; the counters are not."""
        by_index = {
            i: res for i, res in iter_many(specs_for_grid(), "process:3")
        }
        serial = run_many(specs_for_grid(), "serial")
        assert sorted(by_index) == list(range(len(serial)))
        for i, ref in enumerate(serial):
            assert by_index[i].stats.summary() == ref.stats.summary()

    def test_run_many_on_result_sees_every_completion(self):
        seen: list[int] = []
        results = run_many(
            specs_for_grid(),
            ExecConfig(backend="serial", on_result=lambda i, res: seen.append(i)),
        )
        assert sorted(seen) == list(range(len(results)))


class TestStoreResume:
    def test_crash_midway_then_resume_is_bit_for_bit(self, tmp_path):
        """Kill a sweep after 4 completions; the resumed run's merged
        summary equals the uninterrupted run's, and the finished prefix
        comes from the store, not re-simulation."""
        ref = run_many(specs_for_grid(), "serial")
        ref_merged = merge_summaries([r.stats for r in ref])

        store = ResultsStore(tmp_path)
        it = iter_many(specs_for_grid(), ExecConfig(backend="serial", store=store))
        for _ in range(4):
            next(it)
        it.close()  # the "crash": generator dropped mid-sweep
        store.close()

        stream_stats: dict = {}
        with ResultsStore(tmp_path) as resumed_store:
            resumed_cfg = ExecConfig(backend="serial", store=resumed_store)
            resumed = run_many(specs_for_grid(), resumed_cfg)
            streamed = merge_summaries(
                res.stats for _i, res in iter_many(
                    specs_for_grid(), resumed_cfg, stream_stats=stream_stats,
                )
            )

        assert merge_summaries(
            [r.stats for r in resumed]
        ).to_dict() == ref_merged.to_dict()
        # The second full pass was served entirely from the store.
        assert stream_stats["served_from_store"] == len(ref)
        assert streamed.to_dict() == ref_merged.to_dict()

    def test_resume_skips_only_completed_specs(self, tmp_path):
        specs = specs_for_grid()
        with ResultsStore(tmp_path) as store:
            cfg = ExecConfig(backend="serial", store=store)
            it = iter_many(specs_for_grid(), cfg)
            for _ in range(3):
                next(it)
            it.close()
            stream_stats: dict = {}
            done = dict(
                iter_many(specs_for_grid(), cfg, stream_stats=stream_stats)
            )
        assert stream_stats["served_from_store"] == 3
        assert len(done) == len(specs)

    def test_event_recording_specs_always_rerun(self, tmp_path):
        """A detail-keeping spec cannot round-trip through JSON; resume
        re-runs it."""
        spec = RunSpec(
            workload="kmeans",
            config=default_system(DetectionScheme.ASF_BASELINE, 4),
            seed=1,
            txns_per_core=TXNS,
            record_detail=True,
        )
        with ResultsStore(tmp_path) as store:
            cfg = ExecConfig(backend="serial", store=store)
            run_many([spec], cfg)
            assert not store.has_spec(spec)
            stream_stats: dict = {}
            ((_, res),) = list(
                iter_many([spec], cfg, stream_stats=stream_stats)
            )
        assert stream_stats["served_from_store"] == 0
        assert res.stats.conflict_events  # the events are really there


class _TrackedSummary(RunSummary):
    """RunSummary whose live-instance count is observable."""

    counters = {"live": 0, "peak": 0}

    def __init__(self, **kw):
        super().__init__(**kw)
        c = _TrackedSummary.counters
        c["live"] += 1
        c["peak"] = max(c["peak"], c["live"])

    def __del__(self):
        _TrackedSummary.counters["live"] -= 1


class TestBoundedMemory:
    def test_10k_spec_sweep_retains_constant_results(self, monkeypatch):
        """Acceptance bar: a 10k-spec synthetic sweep holds only a small
        constant number of live results in the parent at any moment."""
        _TrackedSummary.counters.update(live=0, peak=0)

        def stub_execute(spec: RunSpec) -> RunResult:
            summary = _TrackedSummary(
                workload="synthetic", scheme="subblock", seed=spec.seed,
                label=spec.label,
            )
            summary.txn_commits = 1
            return RunResult(
                workload="synthetic", scheme="subblock", config=spec.config,
                seed=spec.seed, stats=summary,
            )

        monkeypatch.setattr(parallel, "execute_spec", stub_execute)
        cfg = default_system()
        specs = [
            RunSpec(workload="synthetic", config=cfg, seed=i)
            for i in range(10_000)
        ]
        merged = merge_summaries(res.stats for _i, res in iter_many(specs, "serial"))
        assert merged.n_runs == 10_000
        assert merged.txn_commits == 10_000
        # One worker × a small constant: the loop variable, the yield slot —
        # never an O(sweep) buffer.
        assert _TrackedSummary.counters["peak"] <= 4
        assert _TrackedSummary.counters["live"] <= 2

    def test_pooled_inflight_window_is_bounded(self):
        jobs = 2
        specs = [
            RunSpec(
                workload="kmeans",
                config=default_system(DetectionScheme.SUBBLOCK, 4),
                seed=s,
                txns_per_core=6,
            )
            for s in range(1, 11)
        ]
        stream_stats: dict = {}
        results = dict(
            iter_many(specs, f"process:{jobs}", stream_stats=stream_stats)
        )
        assert len(results) == len(specs)
        batch_size = ExecConfig().batch_size
        assert 0 < stream_stats["peak_inflight"] <= jobs * batch_size
