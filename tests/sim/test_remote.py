"""Fault injection for the remote sweep fabric.

Two layers of coverage:

* **Protocol-level** — a ``FakeWorker`` speaking raw length-prefixed
  pickle against a live :class:`Coordinator` makes the failure modes
  deterministic: take a batch and vanish, go silent past the heartbeat
  window, or deliver a result for a batch that was already re-assigned.
* **Fleet-level** — real ``python -m repro.cli worker`` subprocesses,
  including one SIGKILLed mid-batch, and ``local`` workers forked by the
  coordinator, asserting bit-for-bit parity with the serial backend and
  exactly-once rows in a results store.
"""

from __future__ import annotations

import errno
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from multiprocessing.process import BaseProcess

import pytest

from repro.config import default_system
from repro.sim import parallel, remote
from repro.sim.executors import ExecConfig, ExecTask, mark_provenance
from repro.sim.parallel import RunSpec, run_many
from repro.sim.remote import (
    PROTOCOL_VERSION,
    WORKER_ENV,
    Coordinator,
    _Batch,
    recv_msg,
    send_msg,
    worker_main,
)
from repro.store import ResultsStore
from repro.telemetry.sinks import DetailSink

TXNS = 8

#: Generous wall-clock ceiling for fleet tests (worker subprocesses pay
#: an interpreter + import startup of a couple of seconds each).
FLEET_DEADLINE = 90.0


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


def _tasks(specs):
    return [ExecTask(i, s) for i, s in enumerate(specs)]


def _batches(specs, size=2):
    tasks = _tasks(specs)
    return [
        _Batch(id=n, tasks=tasks[pos:pos + size])
        for n, pos in enumerate(range(0, len(tasks), size))
    ]


def _coordinator(batches=(), tasks=(), **overrides):
    kwargs = dict(
        backend="remote",
        bind="127.0.0.1:0",
        heartbeat_interval=0.1,
        heartbeat_timeout=0.6,
        retry_backoff=0.05,
        retries=2,
        connect_timeout=60.0,
    )
    kwargs.update(overrides)
    cfg = ExecConfig(**kwargs)
    stats: dict = {}
    coord = Coordinator(cfg, stats)
    coord.start(batches, tasks)
    return coord, stats


def _drain_results(coord, want, deadline=30.0):
    """Collect result events until `want` spec indices arrived (or time out),
    asserting no index is ever delivered twice."""
    import queue

    got = {}
    t_end = time.monotonic() + deadline
    while len(got) < want and time.monotonic() < t_end:
        try:
            event = coord.events.get(timeout=0.2)
        except queue.Empty:
            continue
        if event[0] == "error":
            raise AssertionError(f"worker error: {event[1]}")
        if event[0] != "results":
            continue
        for index, res in event[1]:
            assert index not in got, f"spec {index} delivered twice"
            got[index] = res
    assert len(got) == want, f"only {sorted(got)} arrived"
    return got


class FakeWorker:
    """A hand-driven protocol client for injecting faults."""

    def __init__(self, coord, ident="fake", token=None, version=PROTOCOL_VERSION):
        host, port = coord.address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=5.0)
        self.ident = ident
        send_msg(
            self.sock,
            {
                "type": "hello",
                "version": version,
                "id": ident,
                "token": coord.token if token is None else token,
            },
        )
        self.welcome = recv_msg(self.sock)

    @property
    def accepted(self):
        return (
            isinstance(self.welcome, dict)
            and self.welcome.get("type") == "welcome"
        )

    def take_batch(self, timeout=10.0):
        self.sock.settimeout(timeout)
        msg = recv_msg(self.sock)
        assert isinstance(msg, dict) and msg["type"] == "batch", msg
        return msg

    def execute(self, batch):
        results = []
        for index, spec in batch["tasks"]:
            res = parallel.execute_spec(spec)
            mark_provenance(res, worker=self.ident)
            results.append((index, res))
        return results

    def deliver_unrun(self, batch):
        """Answer a batch without simulating it (the coordinator only
        routes results, so scheduling tests need not pay for runs)."""
        self.deliver(batch, [(index, None) for index, _ in batch["tasks"]])

    def deliver(self, batch, results=None):
        send_msg(
            self.sock,
            {
                "type": "result",
                "batch_id": batch["batch_id"],
                "results": self.execute(batch) if results is None else results,
            },
        )

    def heartbeat(self, batch):
        send_msg(
            self.sock, {"type": "heartbeat", "batch_id": batch["batch_id"]}
        )

    def expect_shutdown(self, timeout=5.0):
        self.sock.settimeout(timeout)
        assert recv_msg(self.sock) == {"type": "shutdown"}

    def close(self):
        self.sock.close()


class TestProtocolFaults:
    def test_happy_path_one_fake_worker(self):
        specs = _specs(4)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            w = FakeWorker(coord)
            assert w.accepted
            for _ in range(2):
                w.deliver(w.take_batch())
            got = _drain_results(coord, want=4)
            assert sorted(got) == [0, 1, 2, 3]
            assert stats["batches_completed"] == 2
            assert stats.get("batches_requeued", 0) == 0
            w.close()
        finally:
            coord.stop()

    def test_version_and_token_rejection(self):
        coord, _ = _coordinator(_batches(_specs(1)), token="sesame")
        try:
            # Version 1 shipped RunSpecs whose record_detail meant something
            # else; a mixed-version fleet must be refused at hello.
            bad_versions = [
                FakeWorker(coord, version=v) for v in (1, PROTOCOL_VERSION + 1)
            ]
            for bad_version in bad_versions:
                assert not bad_version.accepted
                assert bad_version.welcome["reason"] == "bad hello"
            bad_token = FakeWorker(coord, token="wrong")
            assert not bad_token.accepted
            assert bad_token.welcome["reason"] == "bad token"
            good = FakeWorker(coord, token="sesame")
            assert good.accepted
            for w in (*bad_versions, bad_token, good):
                w.close()
        finally:
            coord.stop()

    def test_disconnect_mid_batch_requeues(self):
        """A worker that dies with a batch in flight loses the batch to a
        survivor; nothing is dropped, nothing arrives twice."""
        specs = _specs(4)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            victim = FakeWorker(coord, ident="victim")
            victim.take_batch()
            victim.close()  # vanish mid-batch: coordinator sees EOF
            survivor = FakeWorker(coord, ident="survivor")
            for _ in range(2):
                survivor.deliver(survivor.take_batch())
            got = _drain_results(coord, want=4)
            assert sorted(got) == [0, 1, 2, 3]
            assert stats["batches_requeued"] == 1
            assert all(res.worker == "survivor" for res in got.values())
            survivor.close()
        finally:
            coord.stop()

    def test_heartbeat_silence_requeues(self):
        """A connected-but-wedged worker (no heartbeats) forfeits its
        batch after ``heartbeat_timeout``."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            wedged = FakeWorker(coord, ident="wedged")
            batch = wedged.take_batch()
            survivor = FakeWorker(coord, ident="survivor")
            # Stay silent: past heartbeat_timeout the monitor re-queues.
            survivor.deliver(survivor.take_batch(timeout=10.0))
            got = _drain_results(coord, want=2)
            assert stats["batches_requeued"] == 1
            assert all(res.worker == "survivor" for res in got.values())
            # The re-run is provenance-stamped as a retry by the executor
            # layer; at this layer the event carries the retry count.
            wedged.close()
            survivor.close()
            del batch
        finally:
            coord.stop()

    def test_heartbeats_keep_slow_batch_alive(self):
        """Heartbeats hold the batch well past ``heartbeat_timeout``."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            w = FakeWorker(coord)
            batch = w.take_batch()
            t_end = time.monotonic() + 4 * 0.6  # 4× heartbeat_timeout
            while time.monotonic() < t_end:
                w.heartbeat(batch)
                time.sleep(0.1)
            w.deliver(batch)
            _drain_results(coord, want=2)
            assert stats.get("batches_requeued", 0) == 0
            w.close()
        finally:
            coord.stop()

    def test_duplicate_batch_result_dropped(self):
        """A presumed-dead worker delivering late is a no-op: the batch
        already completed elsewhere and the rows are dropped."""
        specs = _specs(2)
        coord, stats = _coordinator(_batches(specs, size=2))
        try:
            slow = FakeWorker(coord, ident="slow")
            batch = slow.take_batch()
            survivor = FakeWorker(coord, ident="survivor")
            survivor.deliver(survivor.take_batch(timeout=10.0))
            got = _drain_results(coord, want=2)
            # Now the zombie wakes up and delivers the same batch.
            slow.deliver(batch)
            time.sleep(0.3)
            assert stats["duplicates_dropped"] == len(batch["tasks"])
            assert coord.events.qsize() == 0  # nothing re-published
            assert sorted(got) == [0, 1]
            slow.close()
            survivor.close()
        finally:
            coord.stop()

    @pytest.mark.parametrize(
        "knobs",
        [{"heartbeat_timeout": 0.3}, {"timeout": 0.15}],
        ids=["silent", "timeout"],
    )
    def test_late_result_for_a_requeued_batch(self, monkeypatch, knobs):
        """The first worker delivers a batch the monitor already took
        from it (re-queued after silence, with a long backoff, or sent
        to the local fallback past its timeout): its handler keeps
        serving, each result arrives once, and it then gets a shutdown."""
        crashes = []
        monkeypatch.setattr(threading, "excepthook", crashes.append)
        coord, _ = _coordinator(
            _batches(_specs(2), size=2), retry_backoff=5.0, **knobs
        )
        try:
            w = FakeWorker(coord)
            batch = w.take_batch()
            time.sleep(0.6)  # past the silence window and the deadline
            w.deliver_unrun(batch)
            assert sorted(_drain_results(coord, want=2)) == [0, 1]
            coord.finish()
            w.expect_shutdown()
            w.close()
            time.sleep(0.2)
            late = []
            while not coord.events.empty():
                late.append(coord.events.get_nowait()[0])
            assert "results" not in late
            assert coord.pop_fallback() is None  # nothing left to run
        finally:
            coord.stop()
        assert crashes == []

    def test_retries_exhausted_falls_back_local(self):
        """After ``retries`` losses the batch lands on the
        coordinator's own fallback queue instead of cycling forever."""
        coord, stats = _coordinator(
            _batches(_specs(2), size=2), retries=1
        )
        try:
            for n in range(2):  # initial attempt + one retry
                w = FakeWorker(coord, ident=f"crasher-{n}")
                w.take_batch()
                w.close()
            deadline = time.monotonic() + 10.0
            batch = None
            while batch is None and time.monotonic() < deadline:
                batch = coord.pop_fallback()
                time.sleep(0.05)
            assert batch is not None, "batch never reached the fallback queue"
            assert batch.retries == 2
            assert stats["batches_requeued"] == 2
        finally:
            coord.stop()

    def test_workerless_coordinator_drains_to_local(self):
        """No fleet ever joins: after ``connect_timeout`` every ready
        batch is drained to the local fallback path."""
        coord, stats = _coordinator(
            _batches(_specs(2), size=1), connect_timeout=0.3
        )
        try:
            deadline = time.monotonic() + 10.0
            drained = []
            while len(drained) < 2 and time.monotonic() < deadline:
                b = coord.pop_fallback()
                if b is not None:
                    drained.append(b)
                else:
                    time.sleep(0.05)
            assert len(drained) == 2
            assert stats["drained_to_local"] == 2
        finally:
            coord.stop()


class TestGuidedBatches:
    def test_batch_sizes_shrink_to_one_at_the_tail(self):
        """Each batch is cut when a worker asks: ⌈pending / (2 × workers)⌉
        specs, at most ``batch_size`` — 36 specs on two workers come out
        as six batches of 4, then 3, 3, 2, 1, 1, 1, 1."""
        n = 36
        coord, stats = _coordinator(tasks=_tasks(_specs(n)))
        try:
            workers = [FakeWorker(coord, ident=f"w{k}") for k in range(2)]
            held = {w: w.take_batch() for w in workers}
            sizes = [len(b["tasks"]) for b in held.values()]
            while held:
                for w in list(held):
                    w.deliver_unrun(held.pop(w))
                    if sum(sizes) < n:
                        held[w] = w.take_batch()
                        sizes.append(len(held[w]["tasks"]))
            assert sizes == [4] * 6 + [3, 3, 2, 1, 1, 1, 1]
            assert sorted(_drain_results(coord, want=n)) == list(range(n))
            assert stats["batches_completed"] == 13
            coord.finish()
            for w in workers:
                w.expect_shutdown()
                w.close()
        finally:
            coord.stop()

    def test_requeued_batch_keeps_its_specs(self):
        """A batch lost to a disconnect comes back whole, with the spec
        indices it was cut with, and every index arrives exactly once."""
        n = 10
        coord, stats = _coordinator(tasks=_tasks(_specs(n)))
        try:
            victim = FakeWorker(coord, ident="victim")
            lost = victim.take_batch()
            victim.close()
            survivor = FakeWorker(coord, ident="survivor")
            handed: dict[int, list[int]] = {}
            while sum(map(len, handed.values())) < n:
                batch = survivor.take_batch()
                handed[batch["batch_id"]] = [i for i, _ in batch["tasks"]]
                survivor.deliver_unrun(batch)
            assert handed[lost["batch_id"]] == [i for i, _ in lost["tasks"]]
            assert sorted(_drain_results(coord, want=n)) == list(range(n))
            assert stats["batches_requeued"] == 1
            coord.finish()
            survivor.expect_shutdown()
            survivor.close()
        finally:
            coord.stop()

    def test_racing_workers_get_every_spec_once(self):
        """Four workers (more than this host's cores) race for guided
        batches under a tiny switch interval: every spec is cut into
        exactly one batch, within the cap, and delivered exactly once."""
        n = 120
        coord, _ = _coordinator(tasks=_tasks(_specs(n)))
        handed: list[tuple[int, list[int]]] = []
        lock = threading.Lock()

        def drive(w):
            w.sock.settimeout(10.0)
            while True:
                msg = recv_msg(w.sock)
                if msg == {"type": "shutdown"}:
                    return
                with lock:
                    handed.append((msg["batch_id"], [i for i, _ in msg["tasks"]]))
                w.deliver_unrun(msg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [FakeWorker(coord, ident=f"w{k}") for k in range(4)]
            threads = [threading.Thread(target=drive, args=(w,)) for w in workers]
            for t in threads:
                t.start()
            assert sorted(_drain_results(coord, want=n)) == list(range(n))
            coord.finish()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
            for w in workers:
                w.close()
        finally:
            sys.setswitchinterval(interval)
            coord.stop()
        ids = [bid for bid, _ in handed]
        indices = sorted(i for _, batch in handed for i in batch)
        assert len(set(ids)) == len(ids)
        assert indices == list(range(n))
        assert all(1 <= len(batch) <= 4 for _, batch in handed)

    def test_workerless_drain_cuts_pending_tasks(self):
        """Tasks no worker ever asked for are cut into ``batch_size``
        batches and drained to local execution."""
        coord, stats = _coordinator(
            tasks=_tasks(_specs(5)), connect_timeout=0.3, batch_size=2
        )
        try:
            deadline = time.monotonic() + 10.0
            drained = []
            while len(drained) < 3 and time.monotonic() < deadline:
                b = coord.pop_fallback()
                if b is not None:
                    drained.append([t.index for t in b.tasks])
                else:
                    time.sleep(0.05)
            assert drained == [[0, 1], [2, 3], [4]]
            assert stats["drained_to_local"] == 3
        finally:
            coord.stop()


class TestWorkerMain:
    def test_idle_worker_outlives_the_dial_in_timeout(self, monkeypatch):
        """The timeout that bounds the dial-in does not stay on the
        socket: a worker idle past it still runs its next batch and
        exits 0 on ``shutdown``."""
        real_connect = socket.create_connection

        def dial(address, timeout=None, **kwargs):
            return real_connect(address, 0.3, **kwargs)

        monkeypatch.setattr(socket, "create_connection", dial)
        monkeypatch.setenv(WORKER_ENV, "")  # worker_main sets it; undone here
        exit_code = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = f"127.0.0.1:{listener.getsockname()[1]}"
            worker = threading.Thread(
                target=lambda: exit_code.append(worker_main(address, "idle"))
            )
            worker.start()
            listener.settimeout(10.0)
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                assert recv_msg(conn)["type"] == "hello"
                send_msg(
                    conn,
                    {"type": "welcome", "version": PROTOCOL_VERSION, "heartbeat": 60.0},
                )
                time.sleep(1.0)  # idle past the 0.3-s dial-in timeout
                send_msg(
                    conn,
                    {"type": "batch", "batch_id": 0, "tasks": [(0, _specs(1)[0])]},
                )
                reply = recv_msg(conn)
                assert reply["type"] == "result"
                assert [index for index, _ in reply["results"]] == [0]
                send_msg(conn, {"type": "shutdown"})
                worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert exit_code == [0]


def _spawn_worker(coord, extra=()):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", coord.address, "--token", coord.token,
            *extra,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.slow
class TestRealFleet:
    def test_sigkill_mid_batch_exactly_once_in_store(self, tmp_path):
        """The acceptance scenario: a real worker SIGKILLed mid-batch,
        the sweep still completes, results match serial bit-for-bit, and
        a results store ends up with exactly one row per spec."""
        specs = _specs(4, txns=400)  # ~0.5 s per batch: a wide kill window
        coord, stats = _coordinator(
            _batches(specs, size=1), heartbeat_timeout=2.0
        )
        procs = []
        try:
            procs.append(_spawn_worker(coord))
            deadline = time.monotonic() + FLEET_DEADLINE
            while coord.worker_count() == 0:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.05)
            # Kill it the moment a batch is in flight.
            while True:
                assert time.monotonic() < deadline, "no batch went in flight"
                with coord._lock:
                    if coord._inflight:
                        break
                time.sleep(0.002)
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].wait()
            procs.append(_spawn_worker(coord))
            got = _drain_results(coord, want=4, deadline=FLEET_DEADLINE)
            assert stats["batches_requeued"] >= 1
            assert stats["workers_joined"] == 2
        finally:
            coord.finish()
            coord.stop()
            for p in procs:
                if p.poll() is None:
                    p.kill()
                p.wait()

        serial = run_many(specs, "serial")
        assert [got[i].stats.summary() for i in range(4)] == [
            r.stats.summary() for r in serial
        ]
        with ResultsStore(tmp_path) as store:
            for i, spec in enumerate(specs):
                store.record(spec, got[i])
            assert len(store) == len(specs)

    def test_run_many_remote_parity_and_checkpoint(self, tmp_path):
        """End-to-end through ``run_many``: a self-launched loopback
        fleet of two, results bit-identical to serial, every spec
        checkpointed exactly once, worker provenance stamped."""
        specs = _specs(5)
        with ResultsStore(tmp_path) as store:
            cfg = ExecConfig(
                backend="remote",
                launch=("local", "local"),
                batch_size=2,
                heartbeat_interval=0.2,
                heartbeat_timeout=5.0,
                connect_timeout=FLEET_DEADLINE,
                store=store,
            )
            stats: dict = {}
            remote = run_many(specs, cfg, stream_stats=stats)
            assert len(store) == len(specs)
            assert stats["workers_joined"] == 2
        serial = run_many(specs, "serial")
        assert [r.stats.summary() for r in remote] == [
            r.stats.summary() for r in serial
        ]
        workers = {r.worker for r in remote}
        assert all(w and ":" in w for w in workers)
        # run_many returns only after the fleet it launched has exited
        # (and been reaped: a zombie would still answer signal 0).
        for worker in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(int(worker.rsplit(":", 1)[1]), 0)

        # Resuming against the same store re-simulates nothing.
        with ResultsStore(tmp_path) as store:
            stats2: dict = {}
            again = run_many(
                specs,
                ExecConfig(backend="remote", connect_timeout=1.0, store=store),
                stream_stats=stats2,
            )
            assert stats2["served_from_store"] == len(specs)
            assert [r.stats.summary() for r in again] == [
                r.stats.summary() for r in serial
            ]


def _fleet(launch, **overrides):
    kwargs = dict(
        backend="remote",
        launch=launch,
        heartbeat_interval=0.2,
        heartbeat_timeout=5.0,
        connect_timeout=FLEET_DEADLINE,
    )
    kwargs.update(overrides)
    return ExecConfig(**kwargs)


def _summaries(results):
    return [r.stats.summary() for r in results]


class TestForkedLaunch:
    """A ``local`` entry forks a worker from the coordinator."""

    def test_local_workers_fork_and_templates_exec(self, monkeypatch):
        """With exec refused, a two-``local`` sweep still matches serial;
        a template entry still goes through ``Popen``."""
        execs = []

        class NoExec(subprocess.Popen):
            def __init__(self, argv, *args, **kwargs):
                execs.append(argv)
                raise OSError("exec refused")

        monkeypatch.setattr(subprocess, "Popen", NoExec)
        specs = _specs(4)
        stats: dict = {}
        fleet = run_many(specs, _fleet(("local", "local")), stream_stats=stats)
        assert execs == []
        assert stats["workers_joined"] == 2
        assert stats.get("local_fallback_specs", 0) == 0
        assert _summaries(fleet) == _summaries(run_many(specs, "serial"))
        with pytest.raises(OSError, match="exec refused"):
            run_many(specs, _fleet(("local", "echo {addr} {token}")))
        [(echo, addr, token)] = execs
        assert echo == "echo" and addr.startswith("127.0.0.1:")
        assert len(token) == 16

    def test_no_coordinator_thread_exists_at_fork(self, monkeypatch):
        """Workers fork before the coordinator starts a thread, and
        ``stop()`` leaves none behind: at every fork over three sweeps
        the thread count is the one from before the first."""
        baseline = threading.active_count()
        counts = []
        real_fork = os.fork

        def fork():
            counts.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        for _ in range(3):
            run_many(_specs(2), _fleet(("local", "local")))
        assert counts == [baseline] * 6
        assert threading.active_count() == baseline

    def test_failed_forked_worker_exits_and_the_sweep_drains(
        self, monkeypatch, tmp_path
    ):
        """A forked worker whose body raises exits non-zero without
        returning into the caller; the sweep drains to local and still
        matches serial."""

        def broken(*args, **kwargs):
            raise RuntimeError("worker body failed")

        monkeypatch.setattr(remote, "worker_main", broken)
        exit_codes = []
        real_stop = Coordinator.stop

        def stop(coord):
            real_stop(coord)
            exit_codes.extend(proc.exitcode for proc in coord._procs)

        monkeypatch.setattr(Coordinator, "stop", stop)
        specs = _specs(3)
        stats: dict = {}
        fleet = run_many(
            specs, _fleet(("local", "local"), connect_timeout=0.3),
            stream_stats=stats,
        )
        # A child that came back from the fork into this test would
        # append a line of its own.
        marker = tmp_path / "returned.txt"
        with open(marker, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        assert marker.read_text(encoding="utf-8").splitlines() == [str(os.getpid())]
        assert exit_codes == [1, 1]
        assert stats["workers_joined"] == 0
        assert stats["local_fallback_specs"] == len(specs)
        assert _summaries(fleet) == _summaries(run_many(specs, "serial"))

    def test_detail_specs_travel(self):
        """A spec that keeps detail runs on a worker like any other, and
        its detail sink comes back whole."""
        specs = [replace(s, record_detail=True) for s in _specs(2)]
        specs += _specs(4)[2:]
        fleet = run_many(specs, _fleet(("local", "local")))
        serial = run_many(specs, "serial")
        assert all(r.worker and r.worker != remote.worker_identity() for r in fleet)
        for got, want in zip(fleet[:2], serial[:2]):
            assert isinstance(got.stats, DetailSink)
            assert got.stats.conflict_events == want.stats.conflict_events
        assert _summaries(fleet) == _summaries(serial)

    def test_no_more_forks_than_specs(self, monkeypatch):
        """``process:64`` on three specs forks three workers; a start
        past the third is refused here rather than run."""
        started = []
        real_start = BaseProcess.start

        def start(proc):
            started.append(proc.name)
            if len(started) > 3:
                raise OSError("a fork beyond the spec count")
            real_start(proc)

        monkeypatch.setattr(BaseProcess, "start", start)
        specs = _specs(3)
        fleet = run_many(specs, "process:64")
        assert len(started) == 3
        assert _summaries(fleet) == _summaries(run_many(specs, "serial"))

    def test_refused_fork_runs_the_sweep_locally(self, monkeypatch):
        """Where every fork is refused, the sweep drains to local at once
        and raises nothing."""

        def refuse(proc):
            raise BlockingIOError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(BaseProcess, "start", refuse)
        specs = _specs(3)
        stats: dict = {}
        start = time.monotonic()
        fleet = run_many(specs, "process:2", stream_stats=stats)
        assert time.monotonic() - start < 3.0  # not the 10-s connect grace
        assert stats["workers_joined"] == 0
        assert stats["local_fallback_specs"] == len(specs)
        assert all(r.serial_fallback for r in fleet)
        assert _summaries(fleet) == _summaries(run_many(specs, "serial"))
