"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about it: :meth:`SpanRecorder.install`
replaces public functions, methods and sink hooks of :mod:`repro` with
timing wrappers and :meth:`SpanRecorder.restore` puts every original
back.  Two kinds of wrapper exist:

* *coarse* spans (a compile, one engine construction, one ``run_many``
  call, a store append, a trace analysis) are kept one by one as
  ``(id, name, start_ns, end_ns, parent_id, run_id)``;
* *hot* spans (kernel methods and telemetry hooks, called once per
  simulated access) would cost more to keep than to run, so each hot
  name folds into a ``[calls, self_ns]`` accumulator instead.

Both kinds share one span stack, so a span's self time is its duration
minus the time its child spans cover, whichever kind they are: a sink
hook called inside ``machine.access`` is subtracted from the kernel's
self time, and kernel time from the engine loop's.  The recorder only
measures the main thread; the remote coordinator's helper threads call
nothing it wraps.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from time import perf_counter_ns

__all__ = ["SpanRecorder", "write_spans"]


class SpanRecorder:
    """Records spans for one traced repetition of a workload."""

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        #: Finished coarse spans: (id, name, start_ns, end_ns, parent_id, run_id).
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        #: name -> [calls, self_ns] for every span name, coarse or hot.
        self.acc: dict[str, list[int]] = {}
        #: Kernel access split by outcome: name -> [calls, inclusive_ns].
        self.outcomes: dict[str, list[int]] = {
            key: [0, 0] for key in ("hit", "miss", "commit", "begin")
        }
        self.conflict_calls = 0
        self.stall_calls = 0
        self.trace_events = 0
        self.compile_hits = 0
        # Frames are [child_ns, span_id]; the sentinel absorbs top-level time.
        self._stack: list[list[int]] = [[0, -1]]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.get_ident()

    # -- accounting ------------------------------------------------------------

    def _slot(self, name: str) -> list[int]:
        slot = self.acc.get(name)
        if slot is None:
            slot = self.acc[name] = [0, 0]
        return slot

    def self_s(self, *names: str) -> float:
        """Summed self time of the named spans, in seconds."""
        return sum(self.acc.get(n, (0, 0))[1] for n in names) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.acc.get(n, (0, 0))[0] for n in names)

    def covered_s(self, root: str) -> float:
        """Self time of every span except ``root``, in seconds."""
        return sum(ns for name, (_, ns) in self.acc.items() if name != root) / 1e9

    # -- wrappers --------------------------------------------------------------

    def coarse(self, name: str, fn):
        """Wrap ``fn`` so each call on the main thread is kept as a span."""
        rec = self
        slot = self._slot(name)
        stack = self._stack
        main = self._main

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            sid = rec._next_id
            rec._next_id += 1
            frame = [0, sid]
            parent = stack[-1][1]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                d = t1 - t0
                stack[-1][0] += d
                slot[0] += 1
                slot[1] += d - frame[0]
                rec.spans.append((sid, name, t0, t1, parent, rec.run_id))

        return wrapper

    def hot(self, name: str, fn):
        """Wrap ``fn`` so its calls fold into one accumulator."""
        slot = self._slot(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += d
                slot[0] += 1
                slot[1] += d - frame[0]

        return wrapper

    def run_root(self, name: str, body):
        """Call ``body()`` inside the repetition's root span."""
        return self.coarse(name, body)()

    # -- kernel wrappers (per machine instance) ---------------------------------

    def _wrap_access(self, access):
        rec = self
        slot = self._slot("kernel.access")
        hit = self.outcomes["hit"]
        miss = self.outcomes["miss"]
        stack = self._stack

        def wrapper(core, addr, size, is_write, time):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = access(core, addr, size, is_write, time)
            finally:
                d = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += d
                slot[0] += 1
                slot[1] += d - frame[0]
            side = hit if out.hit_l1 else miss
            side[0] += 1
            side[1] += d
            if out.conflicts:
                rec.conflict_calls += 1
            if out.stall_cycles:
                rec.stall_calls += 1
            return out

        return wrapper

    def _wrap_timed(self, name: str, fn, outcome: str):
        """Hot wrapper that also keeps inclusive time under ``outcome``."""
        slot = self._slot(name)
        side = self.outcomes[outcome]
        stack = self._stack

        def wrapper(*args):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                d = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += d
                slot[0] += 1
                slot[1] += d - frame[0]
                side[0] += 1
                side[1] += d

        return wrapper

    def wrap_machine(self, machine) -> None:
        """Shadow the kernel methods on one machine instance.

        Called right after the engine builds its machine, before
        ``SimulationEngine.run`` binds these methods to locals.
        """
        machine.access = self._wrap_access(machine.access)
        machine.commit = self._wrap_timed("kernel.commit", machine.commit, "commit")
        machine.new_txn = self._wrap_timed("kernel.new_txn", machine.new_txn, "begin")
        machine.begin_txn = self._wrap_timed("kernel.begin_txn", machine.begin_txn, "begin")
        machine.abort_self = self.hot("kernel.abort_self", machine.abort_self)

    # -- install / restore -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_function(self, fn, replacement) -> None:
        """Rebind ``fn`` in every ``repro`` module that imported it by name."""
        name = fn.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, name, None) is fn:
                self._patch(mod, name, replacement)

    def _patch_classmethod(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__[attr].__func__
        self._patch(cls, attr, classmethod(self.coarse(name, fn)))

    def install(self) -> "SpanRecorder":
        """Wrap the public surface of every measured layer."""
        from repro.analysis import experiments, figures
        from repro.analysis.trace import ConflictTimeline, TraceReader, analyze_trace
        from repro.sim import parallel
        from repro.sim.engine import SimulationEngine
        from repro.store import ResultsStore
        from repro.telemetry.sinks import CounterSink, DetailSink, JsonlTraceSink
        from repro.telemetry.summary import RunSummary

        rec = self

        # Compilation: a call that returns a list already in the cache is a hit.
        compile_fn = parallel.compiled_scripts
        cache = parallel._script_cache

        def compiled_scripts(*args, **kwargs):
            before = list(cache.values())
            scripts = compile_fn(*args, **kwargs)
            if any(s is scripts for s in before):
                rec.compile_hits += 1
            return scripts

        self._patch_function(
            compile_fn, self.coarse("workloads.compile", functools.wraps(compile_fn)(compiled_scripts))
        )

        # Engine construction and run; kernel methods are shadowed on each
        # new machine before run() binds them.
        init = SimulationEngine.__dict__["__init__"]
        wrapped_init = self.coarse("engine.init", init)

        def engine_init(engine, *args, **kwargs):
            wrapped_init(engine, *args, **kwargs)
            rec.wrap_machine(engine.machine)

        self._patch(SimulationEngine, "__init__", functools.wraps(init)(engine_init))
        self._patch(SimulationEngine, "run", self.coarse("engine.run", SimulationEngine.__dict__["run"]))

        # Telemetry sink hooks (machines bind them at construction, which
        # happens after this patch).
        for cls, name in (
            (CounterSink, "telemetry.counter"),
            (DetailSink, "telemetry.detail"),
            (JsonlTraceSink, "telemetry.jsonl"),
        ):
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("on_") and callable(fn):
                    self._patch(cls, attr, self.hot(name, fn))
        self._patch_classmethod(RunSummary, "from_sink", "telemetry.summary")

        # Executors: the batch entry points.
        self._patch_function(parallel.run_many, self.coarse("executors.run_many", parallel.run_many))
        self._patch_function(
            experiments.run_suite, self.coarse("experiments.run_suite", experiments.run_suite)
        )

        # Results store: open/load, appends, resume lookups, manifest.
        for attr in ("__init__", "record", "has_spec", "result_for", "close"):
            self._patch(ResultsStore, attr, self.coarse("store", ResultsStore.__dict__[attr]))

        # Figures: every public figure computation.
        for attr in figures.__all__:
            fn = getattr(figures, attr)
            if callable(fn) and getattr(fn, "__module__", "") == figures.__name__:
                self._patch_function(fn, self.coarse("figures", fn))

        # Trace decoding, reconstruction and analysis.
        self._patch(TraceReader, "__init__", self.hot("trace.read", TraceReader.__dict__["__init__"]))
        next_fn = TraceReader.__dict__["__next__"]
        slot = self._slot("trace.read")
        stack = self._stack

        def trace_next(reader):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                event = next_fn(reader)
            finally:
                d = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += d
                slot[0] += 1
                slot[1] += d - frame[0]
            rec.trace_events += 1
            return event

        self._patch(TraceReader, "__next__", trace_next)
        self._patch_classmethod(ConflictTimeline, "from_trace", "trace.timeline")
        self._patch_function(analyze_trace, self.coarse("trace.analyze", analyze_trace))
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every span and accumulator as JSON-safe records."""
        out = [
            {"span": name, "id": sid, "start_ns": t0, "end_ns": t1,
             "parent": parent, "run": run}
            for sid, name, t0, t1, parent, run in self.spans
        ]
        out += [
            {"aggregate": name, "calls": calls, "self_ns": ns, "run": self.run_id}
            for name, (calls, ns) in sorted(self.acc.items())
        ]
        return out


def write_spans(path: str, recorders: list[SpanRecorder]) -> None:
    """Write every recorder's spans to one JSON-lines file."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in recorders:
            for record in rec.records():
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
