"""Remote sweep fabric: TCP coordinator + ``repro-asf worker`` processes.

The ``remote`` executor backend turns one host's sweep into a fleet job.
The parent process runs a lightweight **coordinator**: it cuts the
pending :class:`~repro.sim.parallel.RunSpec` stream into pickle-safe
batches as workers ask for work — smaller ones toward the end of the
sweep — and hands them to **workers** — plain processes started with
``repro-asf worker --connect HOST:PORT`` — over a TCP socket.  Because a
worker is just a process that dials in, any launcher works: a hosts file
of ``ssh`` prefixes, a cluster queue submission, or two terminals on one
laptop.  A hosts file's ``local`` worker is instead forked from the
coordinator before its threads start, so it inherits the imported
simulator and runs :func:`worker_main` over the same socket protocol
without starting an interpreter.

Fault model (everything here assumes crashes, not malice):

* **Heartbeats** — while executing a batch a worker emits a heartbeat
  every ``heartbeat_interval`` seconds; a batch silent for
  ``heartbeat_timeout``, or whose worker disconnects, is declared lost
  and re-queued.
* **Bounded retry with backoff** — a lost batch re-queues up to
  ``retries`` times, each time no earlier than
  ``retry_backoff × 2^(attempt-1)`` seconds out; after that the
  coordinator runs it locally (serial fallback), so a dying fleet
  degrades to a slower sweep, never a lost one.
* **Stragglers** — a batch still running ``timeout × len(batch)``
  seconds after a worker took it goes straight to the local fallback.
  When the sweep ends, a forked worker that a straggler batch was taken
  from is terminated at once instead of getting the shutdown grace.
* **Drain** — with no worker connected for ``connect_timeout``, or at
  once when every forked ``local`` worker has exited (or failed to
  fork), all pending work runs locally.
* **Exactly-once results** — a worker presumed dead may still deliver;
  duplicate batch results are dropped by spec index, so each spec is
  yielded (and checkpointed) exactly once.

Every spec travels, including the ones that keep detail: a worker ships
back whatever the run collected, a
:class:`~repro.telemetry.summary.RunSummary` (a few hundred bytes) or a
:class:`~repro.telemetry.sinks.DetailSink` (a few hundred KB at the
paper's transaction counts).  ``process:N`` is this backend with N
forked ``local`` workers on loopback.

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
import selectors
import shlex
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.errors import SimulationError
from repro.sim.executors import ExecConfig, ExecTask, _address, mark_provenance

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

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
#: can detect fleet execution; ``parent_process()`` also detects a
#: forked ``local`` worker).
WORKER_ENV = "REPRO_ASF_WORKER"

_LEN = struct.Struct("!I")

#: Hard cap on one message (a batch of summaries is ~KBs, of detail
#: sinks ~MBs; this guards against garbage on the port, not real
#: traffic).
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


def worker_identity(pid: int | None = None) -> str:
    """The provenance stamp ``host:pid`` of this process, or of the
    process ``pid`` forked on this host."""
    return f"{socket.gethostname()}:{pid or os.getpid()}"


def _exited(proc: subprocess.Popen | BaseProcess, timeout: float | None) -> bool:
    """Wait up to ``timeout`` seconds for a launched worker, exec'd or
    forked; True once it has exited and been reaped."""
    if isinstance(proc, subprocess.Popen):
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        return True
    proc.join(timeout)
    return proc.exitcode is not None


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
    connected worker.  All shared state lives behind ``self._lock``; a
    handler with no work waits on ``self._work`` (a condition on that
    lock), which a re-queue, :meth:`finish` or :meth:`stop` signals, so
    no thread polls on the critical path.  Finished/failed work is
    published to ``self.events`` (a queue) which :class:`RemoteExecutor`
    drains from the caller's thread.

    Work arrives as pre-cut batches, handed out as they are, or as tasks
    that are cut into a batch only when a worker asks for one (guided
    self-scheduling): ⌈pending / (2 × connected workers)⌉ specs, at most
    ``batch_size``.  Batches shrink to one spec at the tail, so the
    workers run out of work at nearly the same time.
    """

    def __init__(self, config: ExecConfig, stats: dict) -> None:
        self.config = config
        self.stats = stats
        self.events: "queue.Queue[tuple]" = queue.Queue()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._batches: dict[int, _Batch] = {}
        self._ready: list[int] = []
        self._pending: deque[ExecTask] = deque()
        self._next_id = 0
        self._max_batch = max(1, config.batch_size)
        self._inflight: dict[int, _Assignment] = {}
        self._fallback: list[int] = []
        self._workers: dict[str, float] = {}  # id -> connect time
        # Ids of workers whose batch went to the local fallback past its
        # deadline: they are still busy with work nobody waits for.
        self._stragglers: set[str] = set()
        # True when every launched worker was forked: once all of them
        # have exited, no worker is left to join, so the sweep drains.
        self._forks_only = False
        self._stop = threading.Event()
        self._finished = False
        self._service: list[threading.Thread] = []
        self._handlers: list[threading.Thread] = []
        self._procs: list[subprocess.Popen | BaseProcess] = []
        self._listener: socket.socket | None = None
        # stop() writes a byte here to wake the acceptor out of select().
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._no_worker_since = time.monotonic()
        self.address = ""
        # Self-launched workers authenticate with a generated token;
        # manually attached fleets may run tokenless (trusted network).
        self.token = config.token or (
            secrets.token_hex(8) if config.launch else ""
        )

    # -- lifecycle -----------------------------------------------------------

    def start(
        self, batches: Sequence[_Batch] = (), tasks: Sequence[ExecTask] = ()
    ) -> None:
        """Open the port, launch the configured workers and serve
        ``batches`` as cut plus ``tasks`` in guided batches.

        Workers launch before the acceptor and monitor threads start, so
        a forked ``local`` worker copies a process in which no
        coordinator thread runs; it dials in once the port is open.  No
        more workers launch than there are specs to run.
        """
        with self._lock:
            for b in batches:
                self._batches[b.id] = b
                self._ready.append(b.id)
            self._next_id = max(self._batches, default=-1) + 1
            self._pending.extend(tasks)
        self._listener = socket.create_server(
            _address(self.config.bind, "coordinator bind")
        )
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        bound_host, bound_port = self._listener.getsockname()[:2]
        # An advertised wildcard bind is useless to a remote worker;
        # substitute this host's name for launch templates.
        adv_host = socket.gethostname() if bound_host == "0.0.0.0" else bound_host
        self.address = f"{adv_host}:{bound_port}"
        self._no_worker_since = time.monotonic()
        self._launch_workers(len(tasks) + sum(len(b.tasks) for b in batches))
        for name in ("accept", "monitor"):
            t = threading.Thread(
                target=getattr(self, f"_{name}_loop"),
                name=f"repro-coord-{name}",
                daemon=True,
            )
            t.start()
            self._service.append(t)

    def stop(self) -> None:
        """End the sweep: idle workers are sent a shutdown, the port
        closes, and this returns once the launched workers have exited.
        Each gets 2 s to exit before it is terminated, except a forked
        straggler, which is terminated at once."""
        with self._work:
            if self._stop.is_set():
                return
            self._finished = True
            self._stop.set()
            self._work.notify_all()
        if self._wake_w is not None:
            self._wake_w.send(b"\0")
        for t in self._service:
            t.join(timeout=2.0)
        for sock in (self._listener, self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()
        for proc in self._procs:
            # An exec'd template's pid need not be its worker's (ssh), so
            # only a forked worker can be known as a straggler.
            straggler = (
                not isinstance(proc, subprocess.Popen)
                and worker_identity(proc.pid) in self._stragglers
            )
            if not _exited(proc, 0.0 if straggler else 2.0):
                proc.terminate()
                if not _exited(proc, 2.0):
                    proc.kill()
                    _exited(proc, None)
        # The acceptor has exited, so no handler can start after this.
        for t in self._handlers:
            t.join(timeout=2.0)

    def finish(self) -> None:
        """All work is done: idle workers are sent a shutdown."""
        with self._work:
            self._finished = True
            self._work.notify_all()

    def _launch_workers(self, n_specs: int) -> None:
        connect_addr = self.address
        # Launch templates for the loopback bind advertise loopback, not
        # the hostname (no resolver needed for `local` fleets).
        if self.config.bind.startswith("127."):
            connect_addr = f"127.0.0.1:{self.address.rsplit(':', 1)[1]}"
        launch = self.config.launch[:n_specs]
        self._forks_only = bool(launch) and all(e == "local" for e in launch)
        for n, entry in enumerate(launch):
            if entry == "local":
                # Imported here: set-up and exec'd workers never need it.
                import multiprocessing

                proc = multiprocessing.get_context("fork").Process(
                    target=self._forked_worker, args=(connect_addr,),
                    name=f"repro-worker-{n}", daemon=True,
                )
                try:
                    proc.start()
                except OSError:
                    # A refused fork counts as a worker that exited: the
                    # sweep runs on the others, or locally.
                    continue
                self._procs.append(proc)
                continue
            if "{addr}" in entry or "{token}" in entry:
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

    def _forked_worker(self, connect: str) -> None:
        """Body of a forked ``local`` worker.  It closes the coordinator
        sockets it inherited, so the port closes with the coordinator,
        and it ends only by process exit, never by returning to the
        code that started the sweep."""
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        sys.exit(worker_main(connect, token=self.token))

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

    def _cut(self, n: int) -> _Batch:
        """A new batch of the next ``n`` pending tasks; lock held."""
        b = _Batch(id=self._next_id, tasks=[self._pending.popleft() for _ in range(n)])
        self._next_id += 1
        self._batches[b.id] = b
        return b

    def _acquire(self, worker: str, now: float) -> _Batch | None:
        """The next batch for ``worker``, or None; lock held.

        A re-queued batch whose backoff has passed goes first, with the
        specs it had; otherwise one is cut from the pending tasks.
        """
        for pos, bid in enumerate(self._ready):
            if self._batches[bid].not_before <= now:
                del self._ready[pos]
                b = self._batches[bid]
                break
        else:
            if not self._pending:
                return None
            share = -(-len(self._pending) // (2 * max(1, len(self._workers))))
            b = self._cut(min(share, self._max_batch))
        timeout = self.config.timeout
        deadline = None if timeout is None else now + timeout * len(b.tasks)
        self._inflight[b.id] = _Assignment(worker, deadline)
        running = sum(len(self._batches[bid].tasks) for bid in self._inflight)
        if running > self.stats.get("peak_inflight", 0):
            self.stats["peak_inflight"] = running
        return b

    def _next_batch(self, worker: str) -> _Batch | None:
        """Wait for a batch for ``worker``; None once the sweep is over."""
        with self._work:
            while not self._finished:
                now = time.monotonic()
                b = self._acquire(worker, now)
                if b is not None:
                    return b
                # Woken by a re-queue, finish() or stop(); a backed-off
                # batch also wakes its waiters when its delay is up.
                due = min(
                    (self._batches[bid].not_before for bid in self._ready),
                    default=None,
                )
                self._work.wait(None if due is None else due - now)
        return None

    def _requeue(self, bid: int, reason: str) -> None:
        """Declare an in-flight batch lost; called with the lock held."""
        self._inflight.pop(bid, None)
        b = self._batches.get(bid)
        if b is None:
            return  # already delivered
        b.retries += 1
        self.stats["batches_requeued"] = self.stats.get("batches_requeued", 0) + 1
        if b.retries > self.config.retries:
            self._to_local(bid)
        else:
            b.not_before = time.monotonic() + (
                self.config.retry_backoff * (2 ** (b.retries - 1))
            )
            self._ready.append(bid)
            self._work.notify_all()

    def _to_local(self, bid: int) -> None:
        """Hand a batch to local execution; called with the lock held."""
        self._fallback.append(bid)
        self.events.put(("wake",))

    def _retire(self, bid: int) -> _Batch | None:
        """Forget a batch a worker answered; called with the lock held.

        The batch may wait in the ready list after a re-queue while its
        first worker still delivers, so it leaves that list too.
        """
        self._inflight.pop(bid, None)
        if bid in self._ready:
            self._ready.remove(bid)
        return self._batches.pop(bid, None)

    def _fleet_gone(self) -> bool:
        """Every launched worker was forked, and each has exited or
        failed to fork; exec'd launchers may exit while their workers
        are still to come, so they never count as gone."""
        return self._forks_only and all(p.exitcode is not None for p in self._procs)

    def _drain_to_local(self) -> None:
        """Hand every batch no worker holds, and every task not yet cut,
        to local execution; called with the lock held."""
        while self._pending:
            b = self._cut(min(len(self._pending), self._max_batch))
            self._ready.append(b.id)
        if self._ready:
            self.stats["drained_to_local"] = (
                self.stats.get("drained_to_local", 0) + len(self._ready)
            )
            self._fallback.extend(self._ready)
            self._ready.clear()
            self.events.put(("wake",))

    def _complete(self, worker: str, msg: dict) -> None:
        bid = msg["batch_id"]
        with self._lock:
            b = self._retire(bid)
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
        assert self._listener is not None and self._wake_r is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self._listener, selectors.EVENT_READ)
            sel.register(self._wake_r, selectors.EVENT_READ)
            while True:
                sel.select()
                if self._stop.is_set():
                    return
                try:
                    conn, addr = self._listener.accept()
                except BlockingIOError:
                    continue  # the peer left before we got to it
                except OSError:
                    return  # listener closed
                t = threading.Thread(
                    target=self._serve, args=(conn, addr),
                    name=f"repro-coord-{addr[0]}:{addr[1]}", daemon=True,
                )
                self._handlers.append(t)
                t.start()

    def _monitor_loop(self) -> None:
        cfg = self.config
        while not self._stop.wait(0.1):
            now = time.monotonic()
            with self._lock:
                for bid, a in list(self._inflight.items()):
                    if a.deadline is not None and now > a.deadline:
                        # A straggler runs locally at once; a late
                        # delivery from its worker is dropped.
                        del self._inflight[bid]
                        self._stragglers.add(a.worker)
                        self._to_local(bid)
                    elif now - a.last_beat > cfg.heartbeat_timeout:
                        self._requeue(bid, "silent")
                # A workerless coordinator must not sit on pending work
                # forever: after the connect grace, or as soon as its
                # forked fleet is gone, drain it to local execution (and
                # keep draining if the fleet later dies).
                if (
                    not self._workers
                    and not self._inflight
                    and (
                        now - self._no_worker_since > cfg.connect_timeout
                        or self._fleet_gone()
                    )
                ):
                    self._drain_to_local()

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
                    batch = self._next_batch(worker)
                    if batch is None:
                        send_msg(conn, {"type": "shutdown"})
                        return
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
                        self._retire(msg.get("batch_id"))
                    self.events.put(("error", msg.get("message", "worker error")))
                    current = None
        except (OSError, pickle.PickleError, EOFError, SimulationError):
            pass  # a lost or garbled connection: the finally re-queues
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

    Every spec is handed to workers in guided batches (see
    :class:`Coordinator`).  Every remote result is provenance-stamped
    with the worker's ``host:pid``; batches whose retries are exhausted,
    that ran past their ``timeout``, or that no worker ever picked up are
    executed locally with ``serial_fallback`` set.
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
        coord = Coordinator(self.config, stats)
        done: set[int] = set()
        try:
            if tasks:
                coord.start(tasks=tasks)
            while len(done) < len(tasks):
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
                        yield t.index, res
            coord.finish()
        finally:
            coord.stop()


def worker_main(
    connect: str,
    worker_id: str | None = None,
    token: str = "",
) -> int:
    """Body of ``repro-asf worker --connect HOST:PORT``.

    Dials the coordinator, executes batches until told to shut down (or
    the connection drops), heartbeating while a batch runs.  Results are
    whatever :func:`~repro.sim.parallel.execute_spec` returns — a
    :class:`RunSummary`, or the detail sink of a spec that keeps detail —
    stamped with this worker's identity.  A malformed ``connect`` raises
    :class:`~repro.errors.ConfigError`; otherwise this returns a process
    exit code.
    """
    from repro.sim import parallel

    address = _address(connect, f"worker --connect {connect!r}")
    os.environ[WORKER_ENV] = "1"
    ident = worker_id or worker_identity()
    try:
        sock = socket.create_connection(address, timeout=10.0)
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
        # The timeout bounds only the dial-in: an idle worker waits for
        # its next batch as long as the coordinator keeps the socket open.
        sock.settimeout(None)
        heartbeat = float(welcome.get("heartbeat", 1.0))
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
    except (OSError, pickle.PickleError, EOFError) as exc:
        print(f"worker {ident}: connection lost: {exc}", file=sys.stderr)
        return 1
    finally:
        sock.close()
