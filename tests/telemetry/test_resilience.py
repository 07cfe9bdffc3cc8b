"""Mid-batch resilience of run_many under ``process:2``: worker deaths
and per-spec timeouts lose the affected specs' wall-clock, never the
batch."""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from repro.config import DetectionScheme, default_system
from repro.sim.executors import ExecConfig, parse_executor_spec
from repro.sim.parallel import RunSpec, run_many
from repro.telemetry.summary import RunSummary
from repro.workloads.synthetic import SyntheticWorkload

TXNS = 8


def _in_forked_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _fleet(**knobs) -> ExecConfig:
    """``process:2`` (two forked loopback workers) with fault knobs set."""
    return replace(parse_executor_spec("process:2"), **knobs)


class CrashOnceWorkload(SyntheticWorkload):
    """Dies (hard, like an OOM kill) the first time a forked worker builds
    it; succeeds on any later attempt.  ``marker`` is a path on a shared
    filesystem, so the retry — in another worker or in-process — sees it.
    """

    def __init__(self, marker: str, txns_per_core: int = TXNS) -> None:
        super().__init__(txns_per_core=txns_per_core, name="crash-once")
        self.marker = marker

    def build(self, n_cores, seed):
        if _in_forked_worker() and not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("crashed")
            os._exit(1)  # simulate a worker death, not an exception
        return super().build(n_cores, seed)


class AlwaysCrashWorkload(SyntheticWorkload):
    """Dies in every forked worker; only in-process execution survives."""

    def __init__(self, txns_per_core: int = TXNS) -> None:
        super().__init__(txns_per_core=txns_per_core, name="always-crash")

    def build(self, n_cores, seed):
        if _in_forked_worker():
            os._exit(1)
        return super().build(n_cores, seed)


class SlowWorkload(SyntheticWorkload):
    """Sleeps past any reasonable budget, but only inside forked workers;
    a worker that sleeps first writes its pid to ``pid_file``, if given."""

    def __init__(
        self, delay: float = 5.0, txns_per_core: int = TXNS,
        pid_file: str | None = None,
    ) -> None:
        super().__init__(txns_per_core=txns_per_core, name="slow")
        self.delay = delay
        self.pid_file = pid_file

    def build(self, n_cores, seed):
        if _in_forked_worker():
            if self.pid_file is not None:
                with open(self.pid_file, "w") as fh:
                    fh.write(str(os.getpid()))
            time.sleep(self.delay)
        return super().build(n_cores, seed)


def spec(workload, **kw) -> RunSpec:
    return RunSpec(
        workload=workload,
        config=default_system(DetectionScheme.SUBBLOCK, 4),
        seed=1,
        label=workload.name,
        **kw,
    )


class TestWorkerDeath:
    def test_crash_once_retries_in_pool(self, tmp_path):
        """The batch lost with the crashed worker is re-run by the
        surviving one, not locally."""
        marker = str(tmp_path / "crashed")
        healthy = SyntheticWorkload(txns_per_core=TXNS)
        specs = [spec(CrashOnceWorkload(marker)), spec(healthy)]
        stats: dict = {}
        results = run_many(specs, _fleet(retries=2), stream_stats=stats)
        assert os.path.exists(marker)  # the crash really happened
        for res in results:
            assert isinstance(res.stats, RunSummary)
            assert res.stats.txn_commits > 0
        # The crashing spec records its resubmission; the summary
        # carries the same provenance.
        crashed = results[0]
        assert crashed.worker_retries == 1
        assert crashed.stats.worker_retries == crashed.worker_retries
        assert not crashed.serial_fallback
        assert crashed.worker == results[1].worker  # the survivor ran both
        assert stats["batches_requeued"] == 1
        assert stats.get("local_fallback_specs", 0) == 0

    def test_persistent_crash_falls_back_to_serial(self):
        """Each forked worker dies on the spec in turn; with both gone and
        a retry still left, the sweep drains to local at once instead of
        waiting out ``connect_timeout``."""
        specs = [spec(AlwaysCrashWorkload()),
                 spec(SyntheticWorkload(txns_per_core=TXNS))]
        start = time.monotonic()
        results = run_many(specs, _fleet(retries=2, connect_timeout=60.0))
        elapsed = time.monotonic() - start
        res = results[0]
        assert res.serial_fallback
        assert res.worker_retries == 2  # both workers died on it
        assert res.stats.serial_fallback
        assert res.stats.txn_commits > 0
        assert results[1].stats.txn_commits > 0
        assert elapsed < 3.0

    def test_crash_results_match_clean_run(self):
        clean = run_many(
            [spec(SyntheticWorkload(txns_per_core=TXNS, name="always-crash"))],
            "serial",
        )[0]
        crashed = run_many(
            [spec(AlwaysCrashWorkload()),
             spec(SyntheticWorkload(txns_per_core=TXNS))],
            _fleet(retries=0),
        )[0]
        assert crashed.serial_fallback
        # Provenance fields are excluded from summary() so retried runs
        # stay bit-identical to clean ones.
        assert crashed.stats.summary() == clean.stats.summary()


class TestTimeout:
    def test_straggler_goes_serial(self, tmp_path):
        """A batch past ``timeout × len(batch)`` runs in the coordinator;
        the sweep neither waits out the sleeping worker nor gives it the
        shutdown grace, and the worker is reaped before run_many returns."""
        pid_file = tmp_path / "straggler.pid"
        specs = [spec(SlowWorkload(delay=8.0, pid_file=str(pid_file))),
                 spec(SyntheticWorkload(txns_per_core=TXNS))]
        start = time.monotonic()
        results = run_many(specs, _fleet(timeout=1.5))
        elapsed = time.monotonic() - start
        res = results[0]
        assert res.serial_fallback
        assert res.stats.txn_commits > 0
        assert results[1].stats.txn_commits > 0
        assert not results[1].serial_fallback
        assert elapsed < 3.0  # no sleep and no grace waited out
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)  # not even a zombie left

    def test_fast_specs_unaffected_by_generous_timeout(self):
        specs = [spec(SyntheticWorkload(txns_per_core=TXNS))] * 3
        stats: dict = {}
        results = run_many(specs, _fleet(timeout=120.0), stream_stats=stats)
        assert all(not r.serial_fallback for r in results)
        assert all(r.stats.txn_commits > 0 for r in results)
        assert stats.get("local_fallback_specs", 0) == 0


class TestSpawnSafety:
    def test_workload_classes_pickle(self):
        import pickle

        for w in (AlwaysCrashWorkload(), SlowWorkload()):
            clone = pickle.loads(pickle.dumps(spec(w)))
            assert clone.label == w.name


@pytest.fixture(autouse=True)
def _fork_only():
    """These tests inject faults that fire only inside workers forked
    through multiprocessing; skip where ``process:N`` cannot fork.  The compiled-
    script cache is cleared so forked workers cannot inherit a parent-side
    cache hit and skip the crashing ``build()``."""
    if not hasattr(os, "fork"):
        pytest.skip("resilience injection requires forked workers")
    from repro.sim import parallel as par

    par._script_cache.clear()
