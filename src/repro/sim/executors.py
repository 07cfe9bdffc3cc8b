"""Pluggable execution backends for the sweep fabric.

Every sweep in this repo is a batch of independent, seeded simulations.
:func:`repro.sim.parallel.iter_many` streams that batch through an
*executor* — an object that takes ``(index, spec)`` tasks and yields
``(index, result)`` pairs in completion order.  This module defines the
executor layer:

* :class:`ExecConfig` — one dataclass holding every execution knob of a
  batch (``jobs``, ``timeout``, ``store``, retry knobs, …) plus the
  remote-backend tuning (batching, heartbeats, deadlines, backoff).
* :func:`parse_executor_spec` — the ``--executor`` grammar: ``serial``,
  ``process``, ``process:8``, ``remote``, ``remote:PORT``,
  ``remote:HOST:PORT``, ``remote:hosts.txt``.
* :func:`build_executor` — resolves an :class:`ExecConfig`, a spec
  string, a live :class:`Executor` or ``None`` into a concrete
  :class:`Executor`: the one ``executor=`` argument every batch entry
  point takes.
* :class:`SerialExecutor` — in-process, the deterministic reference.
* :class:`ProcessExecutor` — today's ``ProcessPoolExecutor`` fan-out,
  with the bounded in-flight window, worker-death retries, per-spec
  deadlines and the in-process serial fallback.
* The ``remote`` backend (coordinator + TCP workers) lives in
  :mod:`repro.sim.remote` and is resolved lazily by
  :func:`build_executor`.

Per-run physics is untouched by the choice of backend: each simulation
is seeded, so every backend is bit-identical to :class:`SerialExecutor`
(the parity tests assert it across all three).
"""

from __future__ import annotations

import os
import time
from collections import deque
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
    "ProcessExecutor",
    "STREAM_BACKLOG",
    "SerialExecutor",
    "build_executor",
    "mark_provenance",
    "parse_executor_spec",
    "resolve_jobs",
]

#: Supported executor backends, in the order the docs present them.
BACKENDS = ("serial", "process", "remote")

#: In-flight futures per worker slot.  The window (``jobs ×
#: STREAM_BACKLOG``) bounds both parent-side retained results and the
#: submission backlog that keeps workers from idling between specs.
STREAM_BACKLOG = 2


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a worker count: None/0/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


@dataclass
class ExecConfig:
    """Every execution knob of a sweep, in one place.

    The first block applies to every backend; the second is
    remote-fabric tuning that only the ``remote`` backend reads.
    Instances are plain mutable dataclasses — build one (or parse an
    ``--executor`` spec), set fields, hand it to
    :func:`~repro.sim.parallel.run_many` as ``executor=``.
    """

    #: ``"serial"`` | ``"process"`` | ``"remote"``.
    backend: str = "process"
    #: Process-backend pool width (0/negative = all cores).  ``jobs=1``
    #: short-circuits to in-process execution, exactly like ``serial``.
    jobs: int = 1
    #: Per-spec pool-residence budget in seconds (``None`` = unbounded).
    timeout: float | None = None
    #: Pool rebuilds granted to a spec after worker deaths before it
    #: falls back to in-process execution.
    worker_retries: int = 1
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
    #: command prefix or template, run as a subprocess.
    launch: tuple[str, ...] = ()
    #: Most specs in one wire batch.  Batches are cut as workers ask for
    #: work, ⌈pending / (2 × connected workers)⌉ specs up to this cap, so
    #: they shrink to one spec at the end of a sweep.
    batch_size: int = 4
    #: Seconds between worker heartbeats while a batch executes.
    heartbeat_interval: float = 1.0
    #: Silence after which an in-flight batch is declared lost.
    heartbeat_timeout: float = 6.0
    #: Optional hard wall-clock deadline per batch, seconds.
    batch_deadline: float | None = None
    #: Re-queue attempts per batch (dead/timed-out workers) before the
    #: coordinator runs it locally.
    max_batch_retries: int = 2
    #: Base of the exponential backoff between batch re-queues, seconds.
    retry_backoff: float = 0.25
    #: How long the coordinator tolerates having zero connected workers
    #: (at start, or after the fleet dies) before draining every pending
    #: batch to local execution.
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
        process                 process pool over all cores
        process:N               process pool over N workers
        remote                  coordinator on an ephemeral loopback port
                                (workers attach via `repro-asf worker`)
        remote:PORT             coordinator bound to 0.0.0.0:PORT
        remote:HOST:PORT        coordinator bound to HOST:PORT
        remote:HOSTS_FILE       read bind/launch lines from a hosts file

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
        if not rest:
            return ExecConfig(backend="process", jobs=0)
        try:
            jobs = int(rest)
        except ValueError:
            raise ConfigError(
                f"process:N needs an integer worker count, got {text!r}"
            ) from None
        return ExecConfig(backend="process", jobs=jobs)
    if head == "remote":
        cfg = ExecConfig(backend="remote")
        if not rest:
            return cfg
        if os.path.exists(rest):
            return _read_hosts_file(rest, cfg)
        source = f"executor {text!r}"
        if rest.isdecimal():
            return replace(cfg, bind=_address("0.0.0.0", rest, source))
        host, sep, port = rest.rpartition(":")
        if sep and port.isdecimal():
            return replace(cfg, bind=_address(host, port, source))
        raise ConfigError(
            f"remote spec {text!r}: expected remote, remote:PORT, "
            "remote:HOST:PORT or remote:HOSTS_FILE (file not found?)"
        )
    raise ConfigError(
        f"unknown executor {text!r}; expected one of {BACKENDS} "
        "(see `repro-asf run --help` for the spec grammar)"
    )


def _address(host: str, port: str, source: str) -> str:
    """``HOST:PORT`` once both parts are valid, else :class:`ConfigError`.

    Checked at parse time so a bad address fails with the spec that
    named it, not later inside ``socket.bind``.
    """
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(
            f"{source}: expected HOST:PORT with a host and a port in 0-65535"
        )
    return f"{host}:{int(port)}"


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
            host, _, port = line[len("bind "):].strip().rpartition(":")
            bind = _address(host, port, f"hosts file {path!r}: {line!r}")
        else:
            launch.append(line)
    if not launch:
        raise ConfigError(f"hosts file {path!r} names no workers")
    if "local" in launch and not hasattr(os, "fork"):
        raise ConfigError(
            f"hosts file {path!r}: a `local` worker is forked from the "
            "coordinator, and this platform has no os.fork; use the "
            "template line `python -m repro.cli worker --connect {addr} "
            "--token {token}` instead"
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
    ``peak_inflight`` / ``pool_rotations`` for the pool,
    ``workers_joined`` / ``batches_requeued`` / ``duplicates_dropped``
    for the remote fabric.
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
    if cfg.backend == "process":
        return ProcessExecutor(cfg, stats)
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


class _DeadlineLedger:
    """Per-spec pool-residence budgets (the double-charge fix).

    Each spec is granted ONE absolute deadline — ``timeout ×
    STREAM_BACKLOG`` from its first pool submission (the backlog factor
    covers queueing inside the bounded window).  A spec re-queued
    *innocently* (pool rotation to reclaim a stuck slot, broken-pool
    salvage of the submission queue) keeps that original deadline, so a
    slow spec can no longer double-charge its timeout by re-entering the
    pool with a fresh full budget after every rotation.  Only a genuine
    retry after a worker death (:meth:`refresh`) starts a fresh
    per-batch deadline — that is a new attempt, and it is bounded by
    ``worker_retries``.
    """

    def __init__(self, timeout: float | None) -> None:
        self.timeout = timeout
        self._deadlines: dict[int, float] = {}

    def deadline(self, index: int, now: float) -> float | None:
        """The spec's budget, assigned once on first submission."""
        if self.timeout is None:
            return None
        dl = self._deadlines.get(index)
        if dl is None:
            dl = self._deadlines[index] = now + self.timeout * STREAM_BACKLOG
        return dl

    def refresh(self, index: int, now: float) -> None:
        """Grant a fresh budget (worker-death retry: a new attempt)."""
        if self.timeout is not None:
            self._deadlines[index] = now + self.timeout * STREAM_BACKLOG

    def expired(self, index: int, now: float) -> bool:
        """True when the spec's existing budget has already run out."""
        if self.timeout is None:
            return False
        dl = self._deadlines.get(index)
        return dl is not None and now >= dl


def _pool_entry(spec: "RunSpec") -> "RunResult":
    """Top-level pool entry point (picklable by qualified name)."""
    return _execute(spec)


class ProcessExecutor:
    """``ProcessPoolExecutor`` fan-out with a bounded streaming window.

    Results are yielded the moment a worker finishes them (completion
    order), with at most ``jobs × STREAM_BACKLOG`` runs in flight, so
    parent-side memory is O(jobs) in sweep length.  Worker deaths get up
    to ``worker_retries`` fresh pools before an in-process serial
    fallback; per-spec timeouts send stragglers serial.  Specs re-queued
    through a pool rotation keep their original deadline (see
    :class:`_DeadlineLedger`) — once the budget is spent they go
    straight to the serial fallback instead of re-entering the pool.
    """

    def __init__(self, config: ExecConfig, stream_stats: dict | None = None):
        self.config = config
        self.stats = stream_stats if stream_stats is not None else {}

    def run(self, tasks: Sequence[ExecTask]):
        # Imported here: the pool machinery (and multiprocessing) costs a
        # remote worker's start-up, and only this backend uses it.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        jobs = resolve_jobs(self.config.jobs)
        stats = self.stats
        stats.setdefault("peak_inflight", 0)
        stats.setdefault("pool_rotations", 0)

        if jobs == 1 or len(tasks) <= 1:
            yield from SerialExecutor(self.config, stats).run(tasks)
            return

        by_index = {t.index: t for t in tasks}
        window = jobs * STREAM_BACKLOG
        queue: deque[int] = deque(t.index for t in tasks)
        retry_count = {t.index: 0 for t in tasks}
        ledger = _DeadlineLedger(self.config.timeout)
        worker_retries = self.config.worker_retries
        inflight: dict = {}  # future -> (index, deadline | None)
        pool: ProcessPoolExecutor | None = None
        pool_broken = False

        def run_serial(i: int) -> tuple[int, "RunResult"]:
            res = mark_provenance(
                _execute(by_index[i].spec),
                worker_retries=retry_count[i],
                serial_fallback=True,
            )
            return i, res

        def rotate_pool() -> None:
            nonlocal pool
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
            stats["pool_rotations"] += 1

        try:
            while queue or inflight:
                if pool is None and queue:
                    try:
                        pool = ProcessPoolExecutor(
                            max_workers=min(jobs, len(queue) + len(inflight))
                        )
                    except (OSError, PermissionError):
                        # Sandboxed / fork-restricted hosts: degrade to
                        # serial rather than failing the sweep.
                        while queue:
                            yield run_serial(queue.popleft())
                        break

                # Keep the window full so workers never idle between
                # specs.  A re-queued spec whose one-time budget already
                # ran out goes straight to the serial fallback.
                while pool is not None and queue and len(inflight) < window:
                    i = queue.popleft()
                    now = time.monotonic()
                    if ledger.expired(i, now):
                        yield run_serial(i)
                        continue
                    deadline = ledger.deadline(i, now)
                    try:
                        fut = pool.submit(_pool_entry, by_index[i].spec)
                    except (BrokenProcessPool, OSError, PermissionError):
                        queue.appendleft(i)
                        pool_broken = True
                        break
                    inflight[fut] = (i, deadline)
                stats["peak_inflight"] = max(
                    stats["peak_inflight"], len(inflight)
                )

                if not pool_broken and inflight:
                    now = time.monotonic()
                    wait_for = min(
                        (dl - now for _, dl in inflight.values() if dl is not None),
                        default=None,
                    )
                    done, _ = wait(
                        set(inflight),
                        timeout=max(wait_for, 0.05) if wait_for is not None else None,
                        return_when=FIRST_COMPLETED,
                    )
                    for fut in done:
                        i, _dl = inflight.pop(fut)
                        try:
                            res = fut.result()
                        except (BrokenProcessPool, OSError, PermissionError):
                            queue.appendleft(i)
                            pool_broken = True
                            continue
                        if retry_count[i]:
                            mark_provenance(res, worker_retries=retry_count[i])
                        yield i, res

                if pool_broken:
                    # A worker died (OOM-kill, segfault): everything
                    # still in flight is lost with the pool — but
                    # results that finished before the break are
                    # salvaged, not re-run.  Retry each casualty in a
                    # fresh pool up to ``worker_retries`` times (each
                    # retry is a new attempt, so it gets a fresh
                    # deadline), then run it serially where nothing can
                    # kill it.
                    pool_broken = False
                    casualties: list[int] = []
                    for fut, (i, _dl) in inflight.items():
                        salvaged = False
                        if fut.done():
                            try:
                                res = fut.result()
                                salvaged = True
                            except (BrokenProcessPool, OSError, PermissionError):
                                pass
                        if salvaged:
                            if retry_count[i]:
                                mark_provenance(res, worker_retries=retry_count[i])
                            yield i, res
                        else:
                            casualties.append(i)
                    casualties.extend(queue)
                    queue.clear()
                    inflight.clear()
                    rotate_pool()
                    now = time.monotonic()
                    for i in casualties:
                        retry_count[i] += 1
                        if retry_count[i] <= worker_retries:
                            ledger.refresh(i, now)
                            queue.append(i)
                        else:
                            yield run_serial(i)
                    continue

                # Stragglers: a spec past its deadline is re-run
                # serially (it cannot starve others there).  If its
                # future was already running, the worker slot is lost
                # until the straggler ends — rotate the pool to reclaim
                # it, re-queueing the innocent in-flight specs without a
                # retry penalty (they keep their original deadlines).
                if self.config.timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (fut, i)
                        for fut, (i, dl) in inflight.items()
                        if dl is not None and now >= dl
                    ]
                    stuck = False
                    for fut, i in expired:
                        if not fut.cancel():
                            stuck = True
                        inflight.pop(fut)
                        yield run_serial(i)
                    if stuck:
                        survivors = [i for i, _dl in inflight.values()]
                        inflight.clear()
                        rotate_pool()
                        for i in survivors:
                            queue.append(i)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
