"""Remote sweep fabric: TCP coordinator + ``repro-asf worker`` processes.

The ``remote`` executor backend turns one host's sweep into a fleet job.
The parent process runs a lightweight **coordinator**: it chunks the
pending :class:`~repro.sim.parallel.RunSpec` stream into pickle-safe
batches and hands them to **workers** — plain processes started with
``repro-asf worker --connect HOST:PORT`` — over a TCP socket.  Because a
worker is just a process that dials in, any launcher works: a hosts file
of ``ssh`` prefixes, a cluster queue submission, or two terminals on one
laptop.

Fault model (everything here assumes crashes, not malice):

* **Heartbeats** — while executing a batch a worker emits a heartbeat
  every ``heartbeat_interval`` seconds; a batch silent for
  ``heartbeat_timeout`` (or past its optional hard ``batch_deadline``)
  is declared lost and re-queued.
* **Bounded retry with backoff** — a lost batch re-queues up to
  ``max_batch_retries`` times, each time no earlier than
  ``retry_backoff × 2^(attempt-1)`` seconds out; after that the
  coordinator runs it locally (serial fallback), so a dying fleet
  degrades to a slower sweep, never a lost one.
* **Exactly-once results** — a worker presumed dead may still deliver;
  duplicate batch results are dropped by spec index, so each spec is
  yielded (and checkpointed) exactly once.
* **Cheap wire** — only specs that keep no detail travel, so workers
  only ever ship :class:`~repro.telemetry.summary.RunSummary` results (a
  few hundred bytes); specs that keep detail are executed by the
  coordinator itself.

The wire protocol is length-prefixed pickle (version-checked at hello,
optionally token-authenticated).  Pickle implies the usual trust
boundary: run coordinators and workers only on hosts/networks you
trust, exactly as you would with ``multiprocessing`` managers.  Results
from the fleet are stamped with the worker's identity
(``host:pid``) for provenance; identity is excluded from ``summary()``
so remote and local runs stay bit-identical.

Cross-host sweeps persist per-host :class:`~repro.store.ResultsStore`
checkpoint directories; ``ResultsStore.merge`` (``repro-asf store
merge``) unions them idempotently on content-hashed spec keys, which is
what makes crash/retry across a fleet exactly-once at the results layer.
"""

from __future__ import annotations

import os
import pickle
import queue
import secrets
import shlex
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import SimulationError
from repro.sim.executors import ExecConfig, ExecTask, mark_provenance

__all__ = [
    "Coordinator",
    "PROTOCOL_VERSION",
    "RemoteExecutor",
    "recv_msg",
    "send_msg",
    "worker_identity",
    "worker_main",
]

#: Bumped on any incompatible change to the message schema; workers and
#: coordinators refuse to pair across versions at hello time.  Version 2:
#: ``RunSpec`` lost ``transfer`` and ``record_detail`` defaults to False.
PROTOCOL_VERSION = 2

#: Environment marker set inside worker processes (workloads and tests
#: can detect fleet execution the way ``parent_process()`` detects pool
#: workers).
WORKER_ENV = "REPRO_ASF_WORKER"

_LEN = struct.Struct("!I")

#: Hard cap on one message (a batch of summaries is ~KBs; this guards
#: against garbage on the port, not real traffic).
_MAX_MSG = 64 * 1024 * 1024


def send_msg(sock: socket.socket, obj: object, lock: threading.Lock | None = None) -> None:
    """Length-prefixed pickle send (optionally serialized by a lock)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(payload)) + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def recv_msg(sock: socket.socket) -> object | None:
    """One length-prefixed pickle message, or None on a clean EOF."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > _MAX_MSG:
        raise SimulationError(f"remote message of {length} bytes refused")
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def worker_identity() -> str:
    """This process's provenance stamp: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SimulationError(f"bad address {text!r}; expected HOST:PORT")
    return host, int(port)


@dataclass
class _Batch:
    """One wire batch and its retry bookkeeping."""

    id: int
    tasks: list[ExecTask]
    retries: int = 0
    not_before: float = 0.0


@dataclass
class _Assignment:
    worker: str
    deadline: float | None
    last_beat: float = field(default_factory=time.monotonic)


class Coordinator:
    """Hands batches to TCP workers; re-queues the ones that go quiet.

    Thread layout: one acceptor, one liveness monitor, one handler per
    connected worker.  All shared state lives behind ``self._lock``;
    finished/failed work is published to ``self.events`` (a queue) which
    :class:`RemoteExecutor` drains from the caller's thread.
    """

    def __init__(self, config: ExecConfig, stats: dict) -> None:
        self.config = config
        self.stats = stats
        self.events: "queue.Queue[tuple]" = queue.Queue()
        self._lock = threading.Lock()
        self._batches: dict[int, _Batch] = {}
        self._ready: list[int] = []
        self._inflight: dict[int, _Assignment] = {}
        self._fallback: list[int] = []
        self._workers: dict[str, float] = {}  # id -> connect time
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._threads: list[threading.Thread] = []
        self._procs: list[subprocess.Popen] = []
        self._listener: socket.socket | None = None
        self._no_worker_since = time.monotonic()
        self.address = ""
        # Self-launched workers authenticate with a generated token;
        # manually attached fleets may run tokenless (trusted network).
        self.token = config.token or (
            secrets.token_hex(8) if config.launch else ""
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self, batches: Sequence[_Batch]) -> None:
        with self._lock:
            for b in batches:
                self._batches[b.id] = b
                self._ready.append(b.id)
        host, port = _parse_addr(self.config.bind)
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        bound_host, bound_port = self._listener.getsockname()[:2]
        # An advertised wildcard bind is useless to a remote worker;
        # substitute this host's name for launch templates.
        adv_host = socket.gethostname() if bound_host == "0.0.0.0" else bound_host
        self.address = f"{adv_host}:{bound_port}"
        self._no_worker_since = time.monotonic()
        for name in ("accept", "monitor"):
            t = threading.Thread(
                target=getattr(self, f"_{name}_loop"),
                name=f"repro-coord-{name}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._launch_workers()

    def stop(self) -> None:
        self._finished.set()
        self._stop.set()
        if self._listener is not None:
            self._listener.close()
        for t in self._threads:
            t.join(timeout=2.0)
        for proc in self._procs:
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()

    def finish(self) -> None:
        """All work is done: idle workers are sent a shutdown."""
        self._finished.set()

    def _launch_workers(self) -> None:
        connect_addr = self.address
        # Launch templates for the loopback bind advertise loopback, not
        # the hostname (no resolver needed for `local` fleets).
        if self.config.bind.startswith("127."):
            connect_addr = f"127.0.0.1:{self.address.rsplit(':', 1)[1]}"
        for entry in self.config.launch:
            if entry == "local":
                argv = [
                    sys.executable, "-m", "repro.cli", "worker",
                    "--connect", connect_addr, "--token", self.token,
                ]
            elif "{addr}" in entry or "{token}" in entry:
                argv = shlex.split(
                    entry.replace("{addr}", connect_addr)
                    .replace("{token}", self.token)
                )
            else:
                argv = shlex.split(entry) + [
                    "repro-asf", "worker",
                    "--connect", connect_addr, "--token", self.token,
                ]
            self._procs.append(
                subprocess.Popen(argv, stdout=subprocess.DEVNULL)
            )

    # -- shared-state helpers ------------------------------------------------

    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def pop_fallback(self) -> _Batch | None:
        """A batch whose retries are exhausted, for local execution."""
        with self._lock:
            if not self._fallback:
                return None
            bid = self._fallback.pop(0)
            return self._batches.pop(bid, None)

    def _acquire(self, worker: str) -> _Batch | None:
        now = time.monotonic()
        with self._lock:
            for pos, bid in enumerate(self._ready):
                b = self._batches[bid]
                if b.not_before <= now:
                    del self._ready[pos]
                    deadline = (
                        now + self.config.batch_deadline
                        if self.config.batch_deadline is not None
                        else None
                    )
                    self._inflight[bid] = _Assignment(worker, deadline)
                    return b
        return None

    def _requeue(self, bid: int, reason: str) -> None:
        """Declare an in-flight batch lost; called with the lock held."""
        self._inflight.pop(bid, None)
        b = self._batches.get(bid)
        if b is None:
            return  # already delivered
        b.retries += 1
        self.stats["batches_requeued"] = self.stats.get("batches_requeued", 0) + 1
        if b.retries > self.config.max_batch_retries:
            self._fallback.append(bid)
            self.events.put(("wake",))
        else:
            b.not_before = time.monotonic() + (
                self.config.retry_backoff * (2 ** (b.retries - 1))
            )
            self._ready.append(bid)

    def _complete(self, worker: str, msg: dict) -> None:
        bid = msg["batch_id"]
        with self._lock:
            b = self._batches.pop(bid, None)
            self._inflight.pop(bid, None)
        if b is None:
            # A worker presumed dead delivered after its batch was
            # re-assigned; the whole delivery is a duplicate.
            self.stats["duplicates_dropped"] = (
                self.stats.get("duplicates_dropped", 0) + len(msg["results"])
            )
            return
        self.stats["batches_completed"] = self.stats.get("batches_completed", 0) + 1
        self.events.put(("results", msg["results"], b.retries, worker))

    # -- threads -------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except (TimeoutError, socket.timeout):
                continue
            except OSError:
                return  # listener closed
            t = threading.Thread(
                target=self._serve, args=(conn, addr),
                name=f"repro-coord-{addr[0]}:{addr[1]}", daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _monitor_loop(self) -> None:
        cfg = self.config
        while not self._stop.is_set():
            time.sleep(0.1)
            now = time.monotonic()
            with self._lock:
                lost = [
                    bid
                    for bid, a in self._inflight.items()
                    if now - a.last_beat > cfg.heartbeat_timeout
                    or (a.deadline is not None and now > a.deadline)
                ]
                for bid in lost:
                    self._requeue(bid, "silent")
                # A workerless coordinator must not sit on ready batches
                # forever: after the connect grace, drain them to local
                # execution (and keep draining if the fleet later dies).
                if not self._workers and not self._inflight:
                    if now - self._no_worker_since > cfg.connect_timeout:
                        if self._ready:
                            self.stats["drained_to_local"] = (
                                self.stats.get("drained_to_local", 0)
                                + len(self._ready)
                            )
                            self._fallback.extend(self._ready)
                            self._ready.clear()
                            self.events.put(("wake",))

    def _serve(self, conn: socket.socket, addr) -> None:
        worker = f"{addr[0]}:{addr[1]}"
        current: int | None = None
        registered = False
        try:
            conn.settimeout(5.0)
            hello = recv_msg(conn)
            if (
                not isinstance(hello, dict)
                or hello.get("type") != "hello"
                or hello.get("version") != PROTOCOL_VERSION
            ):
                send_msg(conn, {"type": "reject", "reason": "bad hello"})
                return
            if self.token and hello.get("token") != self.token:
                send_msg(conn, {"type": "reject", "reason": "bad token"})
                return
            worker = hello.get("id") or worker
            with self._lock:
                self._workers[worker] = time.monotonic()
            registered = True
            self.stats["workers_joined"] = self.stats.get("workers_joined", 0) + 1
            send_msg(
                conn,
                {
                    "type": "welcome",
                    "version": PROTOCOL_VERSION,
                    "heartbeat": self.config.heartbeat_interval,
                },
            )
            conn.settimeout(0.5)
            while not self._stop.is_set():
                if current is None:
                    if self._finished.is_set():
                        send_msg(conn, {"type": "shutdown"})
                        return
                    batch = self._acquire(worker)
                    if batch is None:
                        time.sleep(0.05)
                        continue
                    current = batch.id
                    send_msg(
                        conn,
                        {
                            "type": "batch",
                            "batch_id": batch.id,
                            "tasks": [
                                (t.index, t.spec) for t in batch.tasks
                            ],
                        },
                    )
                try:
                    msg = recv_msg(conn)
                except (TimeoutError, socket.timeout):
                    continue
                if msg is None:
                    return  # EOF: the finally block re-queues
                kind = msg.get("type") if isinstance(msg, dict) else None
                if kind == "heartbeat":
                    with self._lock:
                        a = self._inflight.get(msg.get("batch_id"))
                        if a is not None and a.worker == worker:
                            a.last_beat = time.monotonic()
                elif kind == "result":
                    self._complete(worker, msg)
                    current = None
                elif kind == "error":
                    # A broken experiment, not broken infrastructure:
                    # propagate instead of retrying it elsewhere.
                    with self._lock:
                        self._batches.pop(msg.get("batch_id"), None)
                        self._inflight.pop(msg.get("batch_id"), None)
                    self.events.put(("error", msg.get("message", "worker error")))
                    current = None
        except (OSError, pickle.PickleError, EOFError):
            pass
        finally:
            conn.close()
            with self._lock:
                if registered:
                    self._workers.pop(worker, None)
                    if not self._workers:
                        self._no_worker_since = time.monotonic()
                if current is not None:
                    a = self._inflight.get(current)
                    if a is not None and a.worker == worker:
                        self._requeue(current, "disconnect")


class RemoteExecutor:
    """The ``remote`` backend: coordinator in-process, workers over TCP.

    Specs that keep no detail are chunked into batches and distributed;
    specs that keep detail never travel — the coordinator executes them
    itself, exactly as the serial path would.  Every
    remote result is provenance-stamped with the worker's ``host:pid``;
    batches whose retries are exhausted (or that no worker ever picked
    up) are executed locally with ``serial_fallback`` set.
    """

    def __init__(self, config: ExecConfig, stream_stats: dict | None = None):
        self.config = config
        self.stats = stream_stats if stream_stats is not None else {}

    def run(self, tasks: Sequence[ExecTask]):
        from repro.sim.executors import _execute

        stats = self.stats
        stats.setdefault("workers_joined", 0)
        stats.setdefault("batches_requeued", 0)
        stats.setdefault("duplicates_dropped", 0)
        local = [t for t in tasks if t.spec.record_detail]
        wire = [t for t in tasks if not t.spec.record_detail]
        for t in local:
            yield t.index, _execute(t.spec)
        if not wire:
            return
        size = max(1, self.config.batch_size)
        batches = [
            _Batch(id=n, tasks=list(wire[pos:pos + size]))
            for n, pos in enumerate(range(0, len(wire), size))
        ]
        coord = Coordinator(self.config, stats)
        coord.start(batches)
        done: set[int] = set()
        remaining = {t.index for t in wire}
        try:
            while remaining:
                try:
                    event = coord.events.get(timeout=0.1)
                except queue.Empty:
                    event = None
                if event is not None:
                    kind = event[0]
                    if kind == "results":
                        _, results, retries, worker = event
                        for index, res in results:
                            if index in done:
                                stats["duplicates_dropped"] += 1
                                continue
                            if retries:
                                mark_provenance(
                                    res, worker_retries=retries,
                                    worker=res.worker,
                                )
                            done.add(index)
                            remaining.discard(index)
                            yield index, res
                    elif kind == "error":
                        raise SimulationError(event[1])
                batch = coord.pop_fallback()
                if batch is not None:
                    for t in batch.tasks:
                        if t.index in done:
                            continue
                        res = mark_provenance(
                            _execute(t.spec),
                            worker_retries=batch.retries,
                            serial_fallback=True,
                            worker=worker_identity(),
                        )
                        stats["local_fallback_specs"] = (
                            stats.get("local_fallback_specs", 0) + 1
                        )
                        done.add(t.index)
                        remaining.discard(t.index)
                        yield t.index, res
            coord.finish()
            # Give cleanly idle workers a beat to pick up the shutdown.
            time.sleep(0.05)
        finally:
            coord.stop()


def worker_main(
    connect: str,
    worker_id: str | None = None,
    token: str = "",
    max_batches: int | None = None,
) -> int:
    """Body of ``repro-asf worker --connect HOST:PORT``.

    Dials the coordinator, executes batches until told to shut down (or
    the connection drops), heartbeating while a batch runs.  Results are
    whatever :func:`~repro.sim.parallel.execute_spec` returns — a
    :class:`RunSummary` for every spec a coordinator ships — stamped with
    this worker's identity.  ``max_batches`` exists for tests and drain-style
    launchers.  Returns a process exit code.
    """
    from repro.sim import parallel

    os.environ[WORKER_ENV] = "1"
    ident = worker_id or worker_identity()
    host, port = _parse_addr(connect)
    try:
        sock = socket.create_connection((host, port), timeout=10.0)
    except OSError as exc:
        print(f"worker {ident}: cannot reach {connect}: {exc}", file=sys.stderr)
        return 1
    send_lock = threading.Lock()
    try:
        send_msg(
            sock,
            {
                "type": "hello",
                "version": PROTOCOL_VERSION,
                "id": ident,
                "token": token,
            },
            send_lock,
        )
        welcome = recv_msg(sock)
        if not isinstance(welcome, dict) or welcome.get("type") != "welcome":
            reason = (
                welcome.get("reason", "rejected")
                if isinstance(welcome, dict)
                else "no welcome"
            )
            print(f"worker {ident}: {reason}", file=sys.stderr)
            return 1
        heartbeat = float(welcome.get("heartbeat", 1.0))
        served = 0
        while True:
            msg = recv_msg(sock)
            if msg is None:
                return 0  # coordinator went away: nothing left to do
            kind = msg.get("type") if isinstance(msg, dict) else None
            if kind == "shutdown":
                return 0
            if kind != "batch":
                continue
            bid = msg["batch_id"]
            stop_beat = threading.Event()

            def _beat(bid=bid, stop=stop_beat):
                while not stop.wait(heartbeat):
                    try:
                        send_msg(
                            sock,
                            {"type": "heartbeat", "batch_id": bid},
                            send_lock,
                        )
                    except OSError:
                        return

            beat_thread = threading.Thread(target=_beat, daemon=True)
            beat_thread.start()
            try:
                results = []
                for index, spec in msg["tasks"]:
                    res = parallel.execute_spec(spec)
                    mark_provenance(res, worker=ident)
                    results.append((index, res))
            except Exception as exc:  # noqa: BLE001 - shipped to the caller
                stop_beat.set()
                beat_thread.join(timeout=1.0)
                send_msg(
                    sock,
                    {
                        "type": "error",
                        "batch_id": bid,
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                    send_lock,
                )
                continue
            stop_beat.set()
            beat_thread.join(timeout=1.0)
            send_msg(
                sock,
                {"type": "result", "batch_id": bid, "results": results},
                send_lock,
            )
            served += 1
            if max_batches is not None and served >= max_batches:
                return 0
    except (OSError, pickle.PickleError, EOFError) as exc:
        print(f"worker {ident}: connection lost: {exc}", file=sys.stderr)
        return 1
    finally:
        sock.close()


def warn_no_workers(address: str, waited: float) -> None:
    """One consistent message for the no-fleet degradation."""
    warnings.warn(
        f"remote executor: no workers joined {address} within {waited:.0f}s; "
        "running locally (start workers with "
        f"`repro-asf worker --connect {address}`)",
        RuntimeWarning,
        stacklevel=3,
    )
