"""The executor layer: config resolution, the --executor grammar and
the one ``executor=`` surface of the batch entry points."""

from __future__ import annotations

import dataclasses
import inspect
import os
import shlex

import pytest

from repro.config import default_system
from repro.errors import ConfigError
from repro.sim.executors import (
    ExecConfig,
    ExecTask,
    Executor,
    SerialExecutor,
    build_executor,
    parse_executor_spec,
)
from repro.sim.parallel import RunSpec, iter_many, run_many
from repro.sim.remote import RemoteExecutor

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

    def test_process_all_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert parse_executor_spec("process").launch == ("local",) * 6

    def test_process_n(self):
        """``process:N`` is a loopback fleet of N forked workers."""
        cfg = parse_executor_spec("process:8")
        assert cfg.backend == "remote" and cfg.bind == "127.0.0.1:0"
        assert cfg.launch == ("local",) * 8

    def test_process_one_runs_in_process(self, monkeypatch):
        assert parse_executor_spec("process:1").backend == "serial"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert parse_executor_spec("process").backend == "serial"

    def test_process_without_fork_execs_templates(self, monkeypatch):
        """Without ``os.fork`` each worker is the exec'd template line,
        run by this interpreter."""
        monkeypatch.delattr(os, "fork")
        cfg = parse_executor_spec("process:3")
        assert cfg.backend == "remote" and cfg.bind == "127.0.0.1:0"
        assert len(cfg.launch) == 3 and len(set(cfg.launch)) == 1
        argv = shlex.split(cfg.launch[0])
        assert argv[1:] == [
            "-m", "repro.cli", "worker",
            "--connect", "{addr}", "--token", "{token}",
        ]

    def test_remote_default(self):
        """Without a hosts file nothing launches a worker, so the spec must
        name a port one can attach to: the bare form and port 0 are
        refused with the accepted forms."""
        for spec in ("remote", "remote:0", "remote:10.0.0.5:0"):
            with pytest.raises(ConfigError, match=(
                "names no port .* remote:PORT or remote:HOST:PORT .* remote:HOSTS_FILE"
            )):
                parse_executor_spec(spec)

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
        assert isinstance(backend, SerialExecutor)
        assert backend.config.backend == "serial"

    def test_string_is_parsed(self):
        assert build_executor("process:3").config.launch == ("local",) * 3

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
        assert isinstance(build_executor("process:2"), RemoteExecutor)
        assert isinstance(build_executor("serial"), Executor)
        assert isinstance(build_executor("remote:7341"), RemoteExecutor)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            build_executor(ExecConfig(backend="carrier-pigeon"))
        with pytest.raises(ConfigError):
            build_executor(ExecConfig(backend="process"))  # a spec, not a backend
        with pytest.raises(ConfigError):
            build_executor(4)  # worker counts are spelled "process:4"

    def test_live_executor_passes_through(self):
        live = SerialExecutor(ExecConfig(backend="serial"))
        assert build_executor(live) is live


class TestDeprecationShims:
    """The keyword surface is gone: ``executor=`` is the only way in."""

    def test_modern_paths_do_not_warn(self, recwarn):
        run_many(_specs(2), "serial")
        run_many(_specs(2), ExecConfig())
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
        for executor in (
            "process:2", ExecConfig(backend="remote", launch=("local", "local"))
        ):
            got = [r.stats.summary() for r in run_many(specs, executor)]
            assert got == baseline, f"{executor!r} diverged"

    def test_serial_executor_streams_in_order(self):
        specs = _specs(3)
        out = list(build_executor("serial").run(
            [ExecTask(i, s) for i, s in enumerate(specs)]
        ))
        assert [i for i, _ in out] == [0, 1, 2]


def test_exec_config_has_one_set_of_fault_knobs():
    """One per-spec ``timeout`` and one ``retries`` count serve every
    parallel sweep; no pool-only knob is left."""
    assert [f.name for f in dataclasses.fields(ExecConfig)] == [
        "backend", "store", "on_result",
        "bind", "launch", "batch_size", "timeout", "retries",
        "heartbeat_interval", "heartbeat_timeout", "retry_backoff",
        "connect_timeout", "token",
    ]
