"""The executor layer: config resolution, the --executor grammar, the
one ``executor=`` surface of the batch entry points, and the per-spec
deadline ledger."""

from __future__ import annotations

import inspect

import pytest

from repro.config import default_system
from repro.errors import ConfigError
from repro.sim import executors as ex
from repro.sim.executors import (
    ExecConfig,
    ExecTask,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    _DeadlineLedger,
    build_executor,
    parse_executor_spec,
)
from repro.sim.parallel import RunSpec, iter_many, run_many
from repro.telemetry.sinks import DetailSink

TXNS = 8


def _specs(n=3, txns=TXNS):
    return [
        RunSpec(
            workload="kmeans",
            config=default_system(),
            seed=s,
            txns_per_core=txns,
            label=f"s{s}",
        )
        for s in range(1, n + 1)
    ]


class TestExecutorSpecGrammar:
    def test_serial(self):
        cfg = parse_executor_spec("serial")
        assert cfg.backend == "serial"

    def test_process_all_cores(self):
        cfg = parse_executor_spec("process")
        assert cfg.backend == "process" and cfg.jobs == 0

    def test_process_n(self):
        cfg = parse_executor_spec("process:8")
        assert cfg.backend == "process" and cfg.jobs == 8

    def test_remote_default(self):
        cfg = parse_executor_spec("remote")
        assert cfg.backend == "remote" and cfg.bind == "127.0.0.1:0"
        assert cfg.launch == ()

    def test_remote_port(self):
        assert parse_executor_spec("remote:7341").bind == "0.0.0.0:7341"

    def test_remote_host_port(self):
        assert parse_executor_spec("remote:10.0.0.5:7341").bind == "10.0.0.5:7341"

    def test_remote_hosts_file(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text(
            "# fleet\n"
            "bind 0.0.0.0:0\n"
            "local\n"
            "ssh build-04\n"
            "ssh big {addr} {token}\n"
        )
        cfg = parse_executor_spec(f"remote:{hosts}")
        assert cfg.bind == "0.0.0.0:0"
        assert cfg.launch == ("local", "ssh build-04", "ssh big {addr} {token}")

    def test_hosts_file_loopback_upgraded_for_nonlocal_workers(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("ssh build-04\n")
        assert parse_executor_spec(f"remote:{hosts}").bind == "0.0.0.0:0"

    def test_hosts_file_all_local_keeps_loopback(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("local\nlocal\n")
        assert parse_executor_spec(f"remote:{hosts}").bind == "127.0.0.1:0"

    def test_empty_hosts_file_rejected(self, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text("# nothing here\n")
        with pytest.raises(ConfigError):
            parse_executor_spec(f"remote:{hosts}")

    @pytest.mark.parametrize(
        "bad",
        [
            "serial:2",
            "process:x",
            "remote:no-such-file.txt",
            "threads",
            "remote:99999",
            "remote:10.0.0.1:70000",
            "remote::7341",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_executor_spec(bad)

    @pytest.mark.parametrize(
        "bind",
        ["bind nonsense", "bind 0.0.0.0:99999", "bind :7341"],
        ids=["not-host-port", "port-out-of-range", "empty-host"],
    )
    def test_hosts_file_bad_bind_rejected(self, tmp_path, bind):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text(f"{bind}\nlocal\n")
        with pytest.raises(ConfigError, match="HOST:PORT"):
            parse_executor_spec(f"remote:{hosts}")


class TestAsExecConfig:
    """``build_executor`` resolves every form ``executor=`` accepts."""

    def test_none_is_inprocess_default(self):
        backend = build_executor(None)
        assert isinstance(backend.config, ExecConfig)
        assert backend.config.jobs == 1

    def test_string_is_parsed(self):
        assert build_executor("process:3").config.jobs == 3

    def test_live_executor_passes_through(self):
        """run_many drives a live executor as-is, config and stats."""
        seen: list[int] = []
        live_stats: dict = {}
        live = SerialExecutor(
            ExecConfig(backend="serial", on_result=lambda i, _r: seen.append(i)),
            live_stats,
        )
        run_many(_specs(2), live)
        assert sorted(seen) == [0, 1]
        assert live_stats["peak_inflight"] == 1


class TestBuildExecutor:
    def test_backend_resolution(self):
        assert isinstance(build_executor("serial"), SerialExecutor)
        assert isinstance(build_executor("process:2"), ProcessExecutor)
        assert isinstance(build_executor("serial"), Executor)
        from repro.sim.remote import RemoteExecutor

        assert isinstance(build_executor("remote"), RemoteExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            build_executor(ExecConfig(backend="carrier-pigeon"))
        with pytest.raises(ConfigError):
            build_executor(4)  # worker counts are spelled "process:4"

    def test_live_executor_passes_through(self):
        live = SerialExecutor(ExecConfig(backend="serial"))
        assert build_executor(live) is live


class TestDeprecationShims:
    """The keyword surface is gone: ``executor=`` is the only way in."""

    def test_modern_paths_do_not_warn(self, recwarn):
        run_many(_specs(2), "serial")
        run_many(_specs(2), ExecConfig(jobs=1))
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_unknown_kwarg_still_a_typeerror(self):
        with pytest.raises(TypeError):
            run_many(_specs(1), jobs=1)
        with pytest.raises(TypeError):
            list(iter_many(_specs(1), jobs=1))


def _batch_entry_points():
    from repro.analysis import experiments, sweeps
    from repro.sim import runner

    return [
        runner.compare_systems,
        runner.compare_systems_seeds,
        experiments.run_suite,
        experiments.run_seed_sweep,
        sweeps.sweep_subblocks,
        sweeps.sweep_cores,
        sweeps.ablation_forced_waw,
        sweeps.ablation_dirty_state,
        sweeps.sweep_resolution,
        sweeps.sweep_policy_matrix,
        sweeps.sweep_backoff,
        run_many,
        iter_many,
    ]


@pytest.mark.parametrize(
    "entry", _batch_entry_points(), ids=lambda fn: fn.__name__
)
def test_executor_is_the_only_batch_surface(entry):
    params = inspect.signature(entry).parameters
    assert "executor" in params
    assert not {"jobs", "store", "on_result", "transfer"} & set(params)
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


class TestBackendParity:
    def test_serial_process_int_spec_all_identical(self):
        specs = _specs(4)
        baseline = [r.stats.summary() for r in run_many(specs, "serial")]
        for executor in ("process:2", ExecConfig(backend="process", jobs=2)):
            got = [r.stats.summary() for r in run_many(specs, executor)]
            assert got == baseline, f"{executor!r} diverged"

    def test_serial_executor_streams_in_order(self):
        specs = _specs(3)
        out = list(build_executor("serial").run(
            [ExecTask(i, s) for i, s in enumerate(specs)]
        ))
        assert [i for i, _ in out] == [0, 1, 2]


class TestDeadlineLedger:
    """The double-charge fix: one budget per spec, refreshed only by a
    genuine worker-death retry."""

    def test_deadline_assigned_once(self):
        ledger = _DeadlineLedger(timeout=10.0)
        first = ledger.deadline(0, now=100.0)
        again = ledger.deadline(0, now=150.0)
        assert first == again == 100.0 + 10.0 * ex.STREAM_BACKLOG

    def test_requeue_does_not_extend_budget(self):
        # A pool rotation re-queues the spec; its clock must keep running.
        ledger = _DeadlineLedger(timeout=1.0)
        ledger.deadline(0, now=0.0)
        assert not ledger.expired(0, now=1.0)
        assert ledger.expired(0, now=1.0 * ex.STREAM_BACKLOG)

    def test_refresh_grants_new_attempt(self):
        ledger = _DeadlineLedger(timeout=1.0)
        ledger.deadline(0, now=0.0)
        ledger.refresh(0, now=5.0)
        assert not ledger.expired(0, now=5.5)
        assert ledger.deadline(0, now=6.0) == 5.0 + 1.0 * ex.STREAM_BACKLOG

    def test_no_timeout_never_expires(self):
        ledger = _DeadlineLedger(timeout=None)
        assert ledger.deadline(0, now=0.0) is None
        assert not ledger.expired(0, now=1e9)


class TestRemoteTransferRules:
    def test_full_mode_tasks_never_travel(self):
        """Event-recording specs run locally in the coordinator process."""
        from repro.sim.remote import RemoteExecutor

        spec = RunSpec(
            workload="kmeans",
            config=default_system(),
            seed=1,
            txns_per_core=TXNS,
            record_detail=True,
        )
        # connect_timeout=0 would drain immediately; but a spec that keeps
        # detail never reaches the coordinator at all, so no socket is opened.
        exec_ = RemoteExecutor(ExecConfig(backend="remote"))
        out = dict(exec_.run([ExecTask(0, spec)]))
        assert isinstance(out[0].stats, DetailSink)
        assert out[0].stats.conflict_events
        assert out[0].worker == ""
