"""ResultsStore: content-hashed keys, crash-tolerant JSONL, manifests."""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.config import DetectionScheme, default_system
from repro.errors import SimulationError
from repro.sim.parallel import RunSpec, run_many
from repro.store import ResultsStore, spec_fingerprint, spec_key
from repro.telemetry.summary import RunSummary

TXNS = 10

#: Complete log lines that are not a stored run: each ends the trusted prefix.
CORRUPT_ROWS = (
    b"not json at all\n",
    b'{"key": "a", "summary": 5}\n',
    b'{"key": 5, "summary": {}}\n',
    b"\xff\xfe\n",
)


def make_spec(seed: int = 1, label: str = "x", **kw) -> RunSpec:
    return RunSpec(
        workload="kmeans",
        config=default_system(DetectionScheme.SUBBLOCK, 4),
        seed=seed,
        txns_per_core=TXNS,
        label=label,
        **kw,
    )


def run_one(spec: RunSpec):
    (res,) = run_many([spec], "serial")
    return res


class TestSpecKey:
    def test_stable_across_calls(self):
        assert spec_key(make_spec()) == spec_key(make_spec())

    def test_label_and_metadata_excluded(self):
        """Relabeling a sweep axis must not invalidate its checkpoints."""
        a = make_spec(label="old name")
        b = make_spec(label="new name", metadata={"note": "relabeled"})
        assert spec_key(a) == spec_key(b)

    def test_physics_inputs_are_included(self):
        base = make_spec()
        assert spec_key(base) != spec_key(make_spec(seed=2))
        assert spec_key(base) != spec_key(
            RunSpec(
                workload="kmeans",
                config=default_system(DetectionScheme.ASF_BASELINE, 4),
                seed=1,
                txns_per_core=TXNS,
            )
        )
        assert spec_key(base) != spec_key(make_spec(check_atomicity=True))

    def test_fingerprint_is_json_safe(self):
        fp = spec_fingerprint(make_spec())
        assert json.loads(json.dumps(fp)) == fp

    def test_entry_point_keys_are_pinned(self, tmp_path):
        """Keys the batch entry points wrote under version 1.2.0: a
        checkpoint written then must still resume now."""
        from repro.analysis.experiments import run_suite
        from repro.analysis.sweeps import sweep_subblocks
        from repro.sim.executors import ExecConfig
        from repro.sim.runner import compare_systems
        from repro.workloads.registry import get_workload

        def stored_keys(batch):
            with ResultsStore(tmp_path, fresh=True) as store:
                batch(ExecConfig(backend="serial", store=store))
                return {e.label: e.key for e in store.entries()}

        assert stored_keys(
            lambda ex: run_suite(
                txns_per_core=4, benchmarks=("kmeans",), executor=ex
            )
        ) == {
            "kmeans:subblock": "75eb02352167b44c197d9264",
            "kmeans:perfect": "21c877598021b85c381b4974",
        }
        assert stored_keys(
            lambda ex: sweep_subblocks(
                get_workload("ssca2", 4), counts=(1, 4), executor=ex
            )
        ) == {
            "N=1": "a34809241621ec121798c269",
            "N=4": "6f3e67396976dc97d4a106c8",
        }
        assert stored_keys(
            lambda ex: compare_systems(get_workload("genome", 4), executor=ex)
        ) == {
            "asf": "9370b56ef99ea4e0aca2161a",
            "subblock": "536f0bfafe687a2d505953cf",
            "perfect": "6e54f53e963480fd54aab164",
        }


class TestRoundTrip:
    def test_record_and_reload(self, tmp_path):
        spec = make_spec()
        res = run_one(spec)
        with ResultsStore(tmp_path) as store:
            assert store.record(spec, res)
            assert store.has_spec(spec)
        with ResultsStore(tmp_path) as store:
            assert len(store) == 1
            clone = store.result_for(spec)
        assert isinstance(clone.stats, RunSummary)
        assert clone.stats.summary() == res.stats.summary()
        assert clone.stats.per_core_cycles == res.stats.per_core_cycles
        assert clone.workload == res.workload and clone.scheme == res.scheme
        assert clone.seed == res.seed and clone.config == res.config

    def test_current_label_wins_on_reload(self, tmp_path):
        spec = make_spec(label="v1")
        res = run_one(spec)
        with ResultsStore(tmp_path) as store:
            store.record(spec, res)
            clone = store.result_for(make_spec(label="v2"))
        assert clone.stats.label == "v2"

    def test_full_collector_not_stored(self, tmp_path):
        spec = make_spec()
        (res,) = run_many([replace(spec, record_detail=True)], "serial")
        with ResultsStore(tmp_path) as store:
            assert not store.record(spec, res)
            assert not store.has_spec(spec)

    def test_missing_spec_raises(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            with pytest.raises(SimulationError):
                store.result_for(make_spec())

    def test_iter_summaries(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            for seed in (1, 2):
                spec = make_spec(seed=seed)
                store.record(spec, run_one(spec))
            seeds = [s.seed for s in store.iter_summaries()]
        assert seeds == [1, 2]

    def test_fresh_discards_prior_contents(self, tmp_path):
        spec = make_spec()
        with ResultsStore(tmp_path) as store:
            store.record(spec, run_one(spec))
        with ResultsStore(tmp_path, fresh=True) as store:
            assert len(store) == 0
            assert not store.has_spec(spec)


class TestCrashTolerance:
    def fill(self, tmp_path, seeds=(1, 2)):
        with ResultsStore(tmp_path) as store:
            for seed in seeds:
                spec = make_spec(seed=seed)
                store.record(spec, run_one(spec))
        return os.path.join(tmp_path, "results.jsonl")

    def test_torn_final_line_truncated(self, tmp_path):
        path = self.fill(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"key":"torn')  # crash mid-append: no newline
        with ResultsStore(tmp_path) as store:
            assert len(store) == 2
            # The torn tail was truncated, so a new append starts clean.
            spec = make_spec(seed=3)
            store.record(spec, run_one(spec))
        with ResultsStore(tmp_path) as store:
            assert len(store) == 3
            assert store.has_spec(make_spec(seed=3))

    def test_corrupt_line_drops_the_rest(self, tmp_path):
        with open(self.fill(tmp_path / "good", seeds=(1, 2, 3)), "rb") as fh:
            lines = fh.readlines()
        for n, corrupt in enumerate(CORRUPT_ROWS):
            directory = tmp_path / str(n)
            directory.mkdir()
            path = directory / "results.jsonl"
            path.write_bytes(b"".join([lines[0], corrupt, *lines[2:]]))
            with ResultsStore(directory) as store:
                # Nothing from the corruption on is trusted.
                assert len(store) == 1, corrupt
                assert store.has_spec(make_spec(seed=1))
            assert path.read_bytes() == lines[0], corrupt

    def test_empty_directory_is_fine(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            assert len(store) == 0
            assert store.completed_keys() == set()


class TestManifest:
    def test_written_on_close(self, tmp_path):
        spec = make_spec()
        store = ResultsStore(tmp_path)
        store.record(spec, run_one(spec))
        store.close()
        manifest = ResultsStore(tmp_path).read_manifest()
        assert manifest is not None
        assert manifest["entries"] == 1
        assert manifest["results_file"] == "results.jsonl"

    def test_no_tmp_file_left_behind(self, tmp_path):
        with ResultsStore(tmp_path) as store:
            spec = make_spec()
            store.record(spec, run_one(spec))
            store.write_manifest()
        assert not os.path.exists(os.path.join(tmp_path, "manifest.json.tmp"))

    def test_unreadable_manifest_returns_none(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.read_manifest() is None
        with open(store.manifest_path, "w", encoding="utf-8") as fh:
            fh.write("{half a manifest")
        assert store.read_manifest() is None
        store.close()


class TestEntriesAndPrune:
    def fill_specs(self, tmp_path, n=4):
        specs = [make_spec(seed=s, label=f"s{s}") for s in range(1, n + 1)]
        with ResultsStore(tmp_path) as store:
            for spec in specs:
                store.record(spec, run_one(spec))
        return specs

    def test_entries_lists_stored_runs(self, tmp_path):
        specs = self.fill_specs(tmp_path)
        with ResultsStore(tmp_path) as store:
            entries = store.entries()
        assert [e.label for e in entries] == ["s1", "s2", "s3", "s4"]
        assert [e.seed for e in entries] == [1, 2, 3, 4]
        assert all(e.workload == "kmeans" for e in entries)
        assert all(e.commits > 0 and e.execution_cycles > 0 for e in entries)
        assert {e.key for e in entries} == {spec_key(s) for s in specs}

    def test_prune_keep_last(self, tmp_path):
        self.fill_specs(tmp_path)
        with ResultsStore(tmp_path) as store:
            assert store.prune(keep=2) == 2
            assert [e.label for e in store.entries()] == ["s3", "s4"]
        # The compaction survives a reopen and the log really shrank.
        with ResultsStore(tmp_path) as store:
            assert len(store) == 2
        with open(os.path.join(tmp_path, "results.jsonl"), encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2

    def test_prune_predicate(self, tmp_path):
        self.fill_specs(tmp_path)
        with ResultsStore(tmp_path) as store:
            removed = store.prune(predicate=lambda e: e.seed != 2)
            assert removed == 1
            assert [e.seed for e in store.entries()] == [1, 3, 4]

    def test_prune_noop_and_validation(self, tmp_path):
        self.fill_specs(tmp_path, n=2)
        with ResultsStore(tmp_path) as store:
            assert store.prune() == 0
            assert store.prune(keep=10) == 0
            with pytest.raises(ValueError):
                store.prune(keep=-1)

    def test_store_appendable_after_prune(self, tmp_path):
        specs = self.fill_specs(tmp_path, n=3)
        with ResultsStore(tmp_path) as store:
            store.prune(keep=1)
            extra = make_spec(seed=9, label="s9")
            assert store.record(extra, run_one(extra))
        with ResultsStore(tmp_path) as store:
            assert [e.label for e in store.entries()] == ["s3", "s9"]
            assert store.read_manifest()["entries"] == 2
