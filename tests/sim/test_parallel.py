"""Parallel orchestration: RunSpec portability, compile-once caching and
serial/parallel bit-identity.

The load-bearing claims (module docstring of :mod:`repro.sim.parallel`):
results come back in spec order, execution on forked workers is
bit-identical to the serial reference path, and sweeps compile each workload once per process
instead of once per point.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.config import DetectionScheme, default_system
from repro.sim import parallel as par
from repro.sim.parallel import (
    RunSpec,
    compiled_scripts,
    parse_executor_spec,
    run_many,
)
from repro.telemetry.sinks import DetailSink
from repro.telemetry.summary import RunSummary
from repro.workloads.kmeans import KmeansWorkload
from repro.workloads.registry import get_workload

TXNS = 15


def spec_for(name: str, scheme: DetectionScheme, seed: int = 1, **kw) -> RunSpec:
    return RunSpec(
        workload=name,
        config=default_system(scheme, 4),
        seed=seed,
        txns_per_core=TXNS,
        label=f"{name}:{scheme.value}",
        **kw,
    )


class TestRunSpec:
    def test_registry_spec_pickles(self):
        spec = spec_for("kmeans", DetectionScheme.SUBBLOCK)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.resolve_workload().name == "kmeans"

    def test_instance_spec_pickles(self):
        spec = RunSpec(
            workload=KmeansWorkload(txns_per_core=TXNS),
            config=default_system(),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.resolve_workload().name == spec.workload.name

    def test_txns_per_core_reaches_registry(self):
        spec = spec_for("genome", DetectionScheme.ASF_BASELINE)
        assert spec.resolve_workload().txns_per_core == TXNS


class TestCompiledScripts:
    def test_registry_cache_hit_is_same_object(self):
        a = compiled_scripts("kmeans", 8, 42, txns_per_core=TXNS)
        b = compiled_scripts("kmeans", 8, 42, txns_per_core=TXNS)
        assert a is b

    def test_instance_cache_keyed_on_constructor_state(self):
        w1 = KmeansWorkload(txns_per_core=TXNS)
        w2 = KmeansWorkload(txns_per_core=TXNS)
        assert compiled_scripts(w1, 8, 42) is compiled_scripts(w2, 8, 42)

    def test_distinct_keys_do_not_collide(self):
        a = compiled_scripts("kmeans", 8, 1, txns_per_core=TXNS)
        b = compiled_scripts("kmeans", 8, 2, txns_per_core=TXNS)
        c = compiled_scripts("kmeans", 4, 1, txns_per_core=TXNS)
        assert a is not b and a is not c

    def test_cache_matches_fresh_build(self):
        cached = compiled_scripts("genome", 8, 7, txns_per_core=TXNS)
        fresh = get_workload("genome", TXNS).build(8, 7)
        assert [cs.txns for cs in cached] == [cs.txns for cs in fresh]

    def test_cache_is_bounded(self):
        for seed in range(par._SCRIPT_CACHE_MAX + 10):
            compiled_scripts("kmeans", 2, 1000 + seed, txns_per_core=2)
        assert len(par._script_cache) <= par._SCRIPT_CACHE_MAX


class TestResolveJobs:
    """``process[:N]`` resolves its worker count: no N, 0 or a negative
    N means one worker per core."""

    @pytest.mark.parametrize("jobs", [None, 0, -2])
    def test_all_cores_sentinels(self, jobs, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        text = "process" if jobs is None else f"process:{jobs}"
        assert parse_executor_spec(text).launch == ("local",) * 5

    def test_explicit_value_passes_through(self):
        assert parse_executor_spec("process:3").launch == ("local",) * 3


class TestRunMany:
    def test_results_in_spec_order(self):
        specs = [
            spec_for("kmeans", DetectionScheme.SUBBLOCK, seed=s)
            for s in (3, 1, 2)
        ]
        results = run_many(specs, "serial")
        assert [r.seed for r in results] == [3, 1, 2]
        assert all(r.workload == "kmeans" for r in results)

    def test_parallel_bit_identical_to_serial(self):
        """2 workloads x 3 schemes: process:4 must reproduce serial exactly."""
        specs = [
            spec_for(name, scheme, check_atomicity=True)
            for name in ("kmeans", "genome")
            for scheme in (
                DetectionScheme.ASF_BASELINE,
                DetectionScheme.SUBBLOCK,
                DetectionScheme.PERFECT,
            )
        ]
        serial = run_many(specs, "serial")
        pooled = run_many(specs, "process:4")
        for spec, s, p in zip(specs, serial, pooled):
            assert p.scheme == s.scheme, spec.label
            assert p.stats.summary() == s.stats.summary(), spec.label
            assert p.stats.retries_by_static == s.stats.retries_by_static
            assert p.stats.per_core_cycles == s.stats.per_core_cycles

    def test_record_events_survive_worker_transfer(self):
        spec = spec_for("kmeans", DetectionScheme.ASF_BASELINE,
                        record_detail=True)
        serial, pooled = run_many([spec, spec], "process:2")
        assert serial.stats.conflict_events
        assert pooled.stats.conflict_events == serial.stats.conflict_events
        assert pooled.stats.conflict_victims == serial.stats.conflict_victims
        assert pooled.stats.attempts == serial.stats.attempts

    def test_tolerate_violations_reports_count(self):
        from dataclasses import replace

        cfg = default_system(DetectionScheme.SUBBLOCK, 4)
        cfg = replace(cfg, htm=replace(cfg.htm, dirty_state_enabled=False))
        spec = RunSpec(
            workload="kmeans", config=cfg, seed=1, txns_per_core=30,
            tolerate_violations=True,
        )
        (res,) = run_many([spec], "serial")
        assert res.violations > 0

    def test_detail_off_matches_detailed_aggregates(self):
        full = spec_for("genome", DetectionScheme.SUBBLOCK, record_detail=True)
        lean = spec_for("genome", DetectionScheme.SUBBLOCK,
                        record_detail=False)
        full_res, lean_res = run_many([full, lean], "serial")
        assert isinstance(lean_res.stats, RunSummary)
        assert lean_res.stats.summary() == full_res.stats.summary()
        assert isinstance(full_res.stats, DetailSink)
        assert full_res.stats.attempts


class TestTransferModes:
    """A result's shape follows RunSpec.record_detail and nothing else."""

    def test_auto_ships_summary_without_events(self):
        spec = spec_for("kmeans", DetectionScheme.SUBBLOCK)
        assert not spec.record_detail
        (res,) = run_many([spec], "serial")
        assert isinstance(res.stats, RunSummary)
        assert res.stats.workload == "kmeans"
        assert res.stats.seed == 1

    def test_summary_is_the_one_the_engine_counted_into(self, monkeypatch):
        """No snapshot copy: the engine counts into a RunSummary, and
        execute_spec stamps the run's identity on that very object."""
        from repro.sim.engine import SimulationEngine

        engines = []
        init = SimulationEngine.__init__

        def spy(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        monkeypatch.setattr(SimulationEngine, "__init__", spy)
        spec = spec_for("kmeans", DetectionScheme.SUBBLOCK, seed=2)
        res = par.execute_spec(spec)
        (engine,) = engines
        assert res.stats is engine.stats
        assert type(res.stats) is RunSummary
        stamped = res.stats
        assert (stamped.workload, stamped.scheme, stamped.seed, stamped.label) == (
            "kmeans", res.scheme, 2, "kmeans:subblock",
        )

    def test_auto_keeps_full_for_event_recorders(self):
        spec = spec_for("kmeans", DetectionScheme.SUBBLOCK, record_detail=True)
        (res,) = run_many([spec], "serial")
        assert isinstance(res.stats, DetailSink)
        assert res.stats.conflict_events

    def test_summary_override_never_drops_events(self):
        """Detail is one switch: a spec that keeps detail always keeps its
        conflict records, and a spec that does not ships a summary."""
        from dataclasses import replace

        spec = spec_for("kmeans", DetectionScheme.SUBBLOCK, record_detail=True)
        full, lean = run_many([spec, replace(spec, record_detail=False)], "serial")
        assert isinstance(full.stats, DetailSink)
        assert full.stats.conflict_events
        assert isinstance(lean.stats, RunSummary)
        assert lean.stats.summary() == full.stats.summary()

    def test_full_override_matches_summary_counters(self):
        lean_spec = spec_for("genome", DetectionScheme.ASF_BASELINE)
        full_spec = spec_for("genome", DetectionScheme.ASF_BASELINE,
                             record_detail=True)
        full, lean = run_many([full_spec, lean_spec], "serial")
        assert isinstance(full.stats, DetailSink)
        assert isinstance(lean.stats, RunSummary)
        assert lean.stats.summary() == full.stats.summary()
