"""Pluggable execution backends for the sweep fabric.

Every sweep in this repo is a batch of independent, seeded simulations.
:func:`repro.sim.parallel.iter_many` streams that batch through an
*executor* — an object that takes ``(index, spec)`` tasks and yields
``(index, result)`` pairs in completion order.  This module defines the
executor layer:

* :class:`ExecConfig` — one dataclass holding every execution knob of a
  batch (``backend``, ``store``, ``on_result``) plus the fleet tuning
  (launch lines, batching, the per-spec ``timeout``, ``retries``,
  heartbeats, backoff).
* :func:`parse_executor_spec` — the ``--executor`` grammar: ``serial``,
  ``process``, ``process:8``, ``remote:PORT``, ``remote:HOST:PORT``,
  ``remote:hosts.txt``.
* :func:`build_executor` — resolves an :class:`ExecConfig`, a spec
  string, a live :class:`Executor` or ``None`` into a concrete
  :class:`Executor`: the one ``executor=`` argument every batch entry
  point takes.
* :class:`SerialExecutor` — in-process, the deterministic reference.
* The ``remote`` backend (coordinator + TCP workers) lives in
  :mod:`repro.sim.remote` and is resolved lazily by
  :func:`build_executor`.  ``process:N`` is that backend with N workers
  forked on loopback, so one fault model covers every parallel sweep.

Per-run physics is untouched by the choice of backend: each simulation
is seeded, so every backend is bit-identical to :class:`SerialExecutor`
(the parity tests assert it).
"""

from __future__ import annotations

import os
import shlex
import sys
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    NamedTuple,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.sim.parallel import RunSpec
    from repro.sim.runner import RunResult
    from repro.store import ResultsStore

__all__ = [
    "BACKENDS",
    "ExecConfig",
    "ExecTask",
    "Executor",
    "SerialExecutor",
    "build_executor",
    "mark_provenance",
    "parse_executor_spec",
]

#: The executor backends :func:`build_executor` builds.
BACKENDS = ("serial", "remote")

#: The exec'd worker launch line, for hosts without ``os.fork``.
WORKER_TEMPLATE = "python -m repro.cli worker --connect {addr} --token {token}"

#: The most loopback workers ``process:N`` asks for: far above any core
#: count, and a bound on the launch tuple a typo could otherwise demand.
MAX_PROCESS_WORKERS = 1024


@dataclass
class ExecConfig:
    """Every execution knob of a sweep, in one place.

    The first block applies to every backend; the second is fleet tuning
    that only the ``remote`` backend (which ``process:N`` also builds)
    reads.  Instances are plain mutable dataclasses — build one (or
    parse an ``--executor`` spec), set fields, hand it to
    :func:`~repro.sim.parallel.run_many` as ``executor=``.
    """

    #: ``"serial"`` | ``"remote"``.
    backend: str = "serial"
    #: Checkpoint store: completions are recorded as they arrive, and
    #: already-stored specs are served without re-simulating.
    store: "ResultsStore | None" = None
    #: Fires ``(index, result)`` on every completion (completion order).
    #: Read by ``run_many``; ``iter_many`` *is* the stream already.
    on_result: "Callable[[int, RunResult], None] | None" = None

    # -- remote backend ------------------------------------------------------
    #: Coordinator bind address, ``HOST:PORT`` (port 0 = ephemeral).
    bind: str = "127.0.0.1:0"
    #: Worker launch lines (see ``parse_executor_spec`` / hosts files):
    #: ``local`` forks a worker from the coordinator; any other line is a
    #: command prefix or template, run as a subprocess.  No more workers
    #: launch than the sweep has specs.
    launch: tuple[str, ...] = ()
    #: Most specs in one wire batch.  Batches are cut as workers ask for
    #: work, ⌈pending / (2 × connected workers)⌉ specs up to this cap, so
    #: they shrink to one spec at the end of a sweep.
    batch_size: int = 4
    #: Per-spec wall-clock budget in seconds (``None`` = unbounded).  A
    #: batch still running ``timeout × len(batch)`` seconds after a
    #: worker took it runs in the coordinator instead.
    timeout: float | None = None
    #: Re-queues granted to a batch lost to a dead or silent worker
    #: before the coordinator runs it itself.
    retries: int = 2
    #: Seconds between worker heartbeats while a batch executes.
    heartbeat_interval: float = 1.0
    #: Silence after which an in-flight batch is declared lost.
    heartbeat_timeout: float = 6.0
    #: Base of the exponential backoff between batch re-queues, seconds.
    retry_backoff: float = 0.25
    #: How long the coordinator tolerates having zero connected workers
    #: (at start, or after the fleet dies) before draining every pending
    #: batch to local execution.  A fleet of forked workers drains at
    #: once when every one of them has exited.
    connect_timeout: float = 10.0
    #: Shared secret workers must echo in their hello; auto-generated
    #: for self-launched workers, empty = accept any (trusted network).
    token: str = ""


class ExecTask(NamedTuple):
    """One unit of work handed to an executor."""

    index: int
    spec: "RunSpec"


@runtime_checkable
class Executor(Protocol):
    """A batch-execution strategy.

    ``run`` consumes tasks and yields ``(index, result)`` pairs in
    completion order; implementations own their resources for the
    duration of the iteration (generators must release them in a
    ``finally``, so an abandoned stream cleans up).
    """

    config: ExecConfig

    def run(
        self, tasks: Sequence[ExecTask]
    ) -> Iterator[tuple[int, "RunResult"]]: ...


def parse_executor_spec(text: str) -> ExecConfig:
    """Parse an ``--executor`` spec string into an :class:`ExecConfig`.

    Grammar::

        serial                  in-process, deterministic reference
        process                 one loopback worker per core
        process:N               N loopback workers (N <= 0: one per core;
                                N = 1 runs in-process, like serial;
                                N > MAX_PROCESS_WORKERS is refused)
        remote:PORT             coordinator bound to 0.0.0.0:PORT
                                (workers attach via `repro-asf worker`)
        remote:HOST:PORT        coordinator bound to HOST:PORT
        remote:HOSTS_FILE       read bind/launch lines from a hosts file

    Without a hosts file ``remote`` needs a fixed, non-zero port: no
    worker could learn an ephemeral one.

    ``process:N`` is a ``remote`` config with N ``local`` launch lines on
    loopback; where ``os.fork`` is missing, each line is the exec'd
    template instead.

    Hosts files hold one directive per line (``#`` comments allowed)::

        bind 0.0.0.0:7341       optional coordinator bind address
        local                   fork one worker from the coordinator on
                                this host (needs os.fork; elsewhere use
                                the template `python -m repro.cli worker
                                --connect {addr} --token {token}`)
        ssh build-04            any other line is a command prefix; the
                                worker invocation is appended, so this
                                runs `ssh build-04 repro-asf worker
                                --connect HOST:PORT --token T`
        ssh big {addr} {token}  templates may place {addr}/{token}
                                explicitly instead
    """
    text = text.strip()
    head, _, rest = text.partition(":")
    if head == "serial":
        if rest:
            raise ConfigError(f"serial takes no argument: {text!r}")
        return ExecConfig(backend="serial")
    if head == "process":
        try:
            workers = int(rest) if rest else 0
        except ValueError:
            raise ConfigError(
                f"process:N needs an integer worker count, got {text!r}"
            ) from None
        if workers > MAX_PROCESS_WORKERS:
            raise ConfigError(
                f"process:N takes at most {MAX_PROCESS_WORKERS} workers, "
                f"got {text!r}"
            )
        if workers <= 0:
            workers = os.cpu_count() or 1
        if workers == 1:
            return ExecConfig(backend="serial")
        entry = (
            "local" if hasattr(os, "fork")
            else WORKER_TEMPLATE.replace("python", shlex.quote(sys.executable), 1)
        )
        return ExecConfig(backend="remote", launch=(entry,) * workers)
    if head == "remote":
        cfg = ExecConfig(backend="remote")
        if rest and os.path.exists(rest):
            return _read_hosts_file(rest, cfg)
        forms = (
            "expected remote:PORT or remote:HOST:PORT with a port in "
            "1-65535 (workers attach with `repro-asf worker`), or "
            "remote:HOSTS_FILE"
        )
        bind = f"0.0.0.0:{rest}" if rest.isdecimal() else rest
        _host, sep, port = bind.rpartition(":")
        if sep and port.isdecimal():
            host, port_no = _address(bind, f"executor {text!r}")
            if port_no:
                return replace(cfg, bind=f"{host}:{port_no}")
        elif rest:
            raise ConfigError(f"remote spec {text!r}: {forms} (file not found?)")
        raise ConfigError(
            f"remote spec {text!r} names no port a worker could attach to: "
            f"{forms}"
        )
    raise ConfigError(
        f"unknown executor {text!r}; expected serial, process[:N] or "
        "remote[:...] (see `repro-asf run --help` for the spec grammar)"
    )


def _address(text: str, source: str) -> tuple[str, int]:
    """``(host, port)`` of a ``HOST:PORT`` text, else :class:`ConfigError`.

    The one address validator: executor specs and hosts files check
    their bind address with it at parse time, so a bad address fails
    with the spec that named it, and the coordinator and ``repro-asf
    worker --connect`` check theirs with it before opening a socket.
    """
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(
            f"{source}: expected HOST:PORT with a host and a port in 0-65535"
        )
    return host, int(port)


def _read_hosts_file(path: str, cfg: ExecConfig) -> ExecConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(
            f"cannot read hosts file {path!r}: {exc.strerror or exc}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"hosts file {path!r} is not UTF-8 text (byte {exc.start})"
        ) from None
    launch: list[str] = []
    bind = cfg.bind
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("bind "):
            bind = "%s:%d" % _address(
                line[len("bind "):].strip(), f"hosts file {path!r}: {line!r}"
            )
        else:
            launch.append(line)
    if not launch:
        raise ConfigError(f"hosts file {path!r} names no workers")
    if "local" in launch and not hasattr(os, "fork"):
        raise ConfigError(
            f"hosts file {path!r}: a `local` worker is forked from the "
            "coordinator, and this platform has no os.fork; use the "
            f"template line `{WORKER_TEMPLATE}` instead"
        )
    # Launching real workers means the coordinator must be reachable
    # beyond loopback unless every entry is local.
    if bind == "127.0.0.1:0" and any(entry != "local" for entry in launch):
        bind = "0.0.0.0:0"
    return replace(cfg, bind=bind, launch=tuple(launch))


def build_executor(
    spec: "ExecConfig | str | Executor | None" = None,
    stream_stats: dict | None = None,
) -> Executor:
    """Resolve how a batch runs into a concrete executor.

    ``spec`` is an :class:`ExecConfig`, an ``--executor`` spec string
    (see :func:`parse_executor_spec`), a live :class:`Executor`
    (returned as-is) or ``None`` for the in-process default.
    ``stream_stats`` (optional dict) receives backend instrumentation —
    ``peak_inflight`` (the most specs running at once), and for the
    remote fabric ``workers_joined`` / ``batches_requeued`` /
    ``duplicates_dropped`` / ``drained_to_local`` /
    ``local_fallback_specs``.
    """
    if spec is None:
        cfg = ExecConfig()
    elif isinstance(spec, str):
        cfg = parse_executor_spec(spec)
    elif isinstance(spec, ExecConfig):
        cfg = spec
    elif isinstance(spec, Executor):
        return spec
    else:
        raise ConfigError(
            f"cannot interpret executor {spec!r}: expected an ExecConfig, "
            "a spec string such as 'process:8', an Executor or None"
        )
    stats = stream_stats if stream_stats is not None else {}
    if cfg.backend == "serial":
        return SerialExecutor(cfg, stats)
    if cfg.backend == "remote":
        from repro.sim.remote import RemoteExecutor

        return RemoteExecutor(cfg, stats)
    raise ConfigError(
        f"unknown executor backend {cfg.backend!r}; expected one of {BACKENDS}"
    )


def _execute(spec: "RunSpec") -> "RunResult":
    """One spec, through the (monkeypatch-friendly) parallel module hook."""
    from repro.sim import parallel

    return parallel.execute_spec(spec)


def mark_provenance(
    res: "RunResult",
    worker_retries: int = 0,
    serial_fallback: bool = False,
    worker: str | None = None,
) -> "RunResult":
    """Stamp resilience/identity provenance on a result (and its summary).

    Provenance is bookkeeping — deliberately excluded from
    ``summary()`` so retried, remote and clean runs stay bit-identical.
    """
    from repro.telemetry.summary import RunSummary

    res.worker_retries = worker_retries
    res.serial_fallback = serial_fallback
    if worker is not None:
        res.worker = worker
    if isinstance(res.stats, RunSummary):
        res.stats.worker_retries = worker_retries
        res.stats.serial_fallback = serial_fallback
        if worker is not None:
            res.stats.worker = worker
    return res


class SerialExecutor:
    """In-process execution in task order: the deterministic reference."""

    def __init__(self, config: ExecConfig, stream_stats: dict | None = None):
        self.config = config
        self.stats = stream_stats if stream_stats is not None else {}

    def run(self, tasks: Sequence[ExecTask]):
        for task in tasks:
            res = _execute(task.spec)
            self.stats["peak_inflight"] = max(
                self.stats.get("peak_inflight", 0), 1
            )
            yield task.index, res
