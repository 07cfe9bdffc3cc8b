"""Parallel experiment orchestration.

Every figure, sweep and ablation in the evaluation is a batch of
*independent* simulations — a pure function of ``(workload, config,
seed)``.  This module turns such a batch into a pickle-safe list of
:class:`RunSpec` and executes it with :func:`run_many`, either in-process
(the deterministic reference path) or fanned out over a process pool or
a remote fleet.

Three properties are load-bearing:

* **Deterministic result ordering** — ``run_many`` returns results in
  spec order regardless of worker scheduling, and each simulation is
  seeded, so the parallel path is bit-identical to the serial one (the
  parity tests assert it).
* **Compile-once script caching** — compiled :class:`CoreScript` lists
  are memoized per ``(workload identity, n_cores, seed)`` in each
  process, so a sweep of K points over one workload compiles it once,
  not K times (and each pool worker compiles it at most once).
* **Cheap, lossless results** — a run keeps detail only when its spec
  asks (:attr:`RunSpec.record_detail`) and returns exactly what it
  collected: its :class:`~repro.telemetry.sinks.DetailSink` for such a
  spec, a compact :class:`~repro.telemetry.summary.RunSummary` of its
  counters for every other spec.  The summary's counters are bit-for-bit
  equal to the sink's, so only detail-keeping specs pay full pickling.

The execution core is :func:`iter_many` — a *streaming* generator that
yields ``(index, result)`` pairs as runs complete.  *How* the batch
executes is delegated to a pluggable :class:`~repro.sim.executors.Executor`
(``serial`` in-process, ``process`` pool fan-out, ``remote`` TCP fleet —
see :mod:`repro.sim.executors` and :mod:`repro.sim.remote`), named by
the one ``executor=`` argument: an
:class:`~repro.sim.executors.ExecConfig`, a spec string, a live executor
or ``None``.  :func:`run_many` is a thin collector over
:func:`iter_many` that restores spec order.  Store checkpointing and
resume live *here*, backend-agnostically: every summary
completion is recorded to the :class:`~repro.store.ResultsStore` as it
arrives, and already-stored specs are served without re-simulating.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.sim.executors import (
    STREAM_BACKLOG,
    ExecConfig,
    ExecTask,
    Executor,
    build_executor,
    parse_executor_spec,
    resolve_jobs,
)
from repro.sim.runner import RunResult
from repro.telemetry.summary import RunSummary
from repro.workloads.base import CoreScript, Workload

__all__ = [
    "ExecConfig",
    "Executor",
    "RunSpec",
    "STREAM_BACKLOG",
    "build_executor",
    "compiled_scripts",
    "execute_spec",
    "iter_many",
    "parse_executor_spec",
    "resolve_jobs",
    "run_many",
]

#: Bound on the per-process compiled-script cache (entries, not bytes).
#: Sweeps touch a handful of (workload, n_cores, seed) keys; the bound
#: only matters for very long-lived interactive sessions.
_SCRIPT_CACHE_MAX = 64

_script_cache: OrderedDict[tuple, list[CoreScript]] = OrderedDict()


@dataclass(frozen=True)
class RunSpec:
    """One simulation, described portably enough to ship to a worker.

    ``workload`` is either a Table III registry name (preferred — the
    worker instantiates it locally) or a :class:`Workload` instance
    (must be picklable).  ``txns_per_core`` only applies to registry
    names.  ``label`` is carried through untouched for sweep axes.

    ``record_detail`` is the one rule behind a result's shape: a spec
    that sets it returns its :class:`~repro.telemetry.sinks.DetailSink`,
    never goes through the store and never travels to a remote worker.
    """

    workload: str | Workload
    config: SystemConfig
    seed: int = 1
    txns_per_core: int | None = None
    label: str = ""
    check_atomicity: bool = False
    record_detail: bool = False
    max_cycles: int | None = None
    #: Run the atomicity checker in non-raising mode and report the
    #: violation count on the result (the dirty-state ablation runs
    #: deliberately broken hardware).
    tolerate_violations: bool = False
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def resolve_workload(self) -> Workload:
        if isinstance(self.workload, str):
            from repro.workloads.registry import DEFAULT_TXNS_PER_CORE, get_workload

            return get_workload(
                self.workload,
                self.txns_per_core
                if self.txns_per_core is not None
                else DEFAULT_TXNS_PER_CORE,
            )
        return self.workload


def _workload_cache_key(workload: str | Workload, txns_per_core: int | None):
    """A hashable identity for the compiled-script cache, or None.

    Registry names key on ``(name, txns_per_core)``; instances key on
    their class plus attribute dict when every attribute is hashable
    (workload generators are deterministic in their constructor state).
    """
    if isinstance(workload, str):
        return ("registry", workload, txns_per_core)
    try:
        attrs = tuple(sorted(vars(workload).items()))
        hash(attrs)
    except TypeError:
        return None
    return ("instance", type(workload).__module__, type(workload).__qualname__, attrs)


def compiled_scripts(
    workload: str | Workload,
    n_cores: int,
    seed: int,
    txns_per_core: int | None = None,
) -> list[CoreScript]:
    """Compile a workload, memoized per ``(workload, n_cores, seed)``.

    Workload builds are deterministic in exactly those inputs, so cache
    hits are guaranteed bit-identical to a fresh compile.
    """
    key_base = _workload_cache_key(workload, txns_per_core)
    if key_base is None:
        w = workload if isinstance(workload, Workload) else None
        assert w is not None  # str keys are always hashable
        return w.build(n_cores, seed)
    key = key_base + (n_cores, seed)
    cached = _script_cache.get(key)
    if cached is not None:
        _script_cache.move_to_end(key)
        return cached
    if isinstance(workload, str):
        from repro.workloads.registry import DEFAULT_TXNS_PER_CORE, get_workload

        w = get_workload(
            workload,
            txns_per_core if txns_per_core is not None else DEFAULT_TXNS_PER_CORE,
        )
    else:
        w = workload
    scripts = w.build(n_cores, seed)
    _script_cache[key] = scripts
    while len(_script_cache) > _SCRIPT_CACHE_MAX:
        _script_cache.popitem(last=False)
    return scripts


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion (serially and inside every worker).

    The result carries exactly what the run collected: the run's
    :class:`~repro.telemetry.sinks.DetailSink` when the spec keeps detail,
    and otherwise a :class:`RunSummary` of its counters.
    """
    name = spec.workload if isinstance(spec.workload, str) else spec.workload.name
    scripts = compiled_scripts(
        spec.workload, spec.config.n_cores, spec.seed, spec.txns_per_core
    )
    engine = SimulationEngine(
        spec.config,
        scripts,
        seed=spec.seed,
        check_atomicity=spec.check_atomicity or spec.tolerate_violations,
        record_detail=spec.record_detail,
    )
    if spec.tolerate_violations:
        assert engine.checker is not None
        engine.checker.raise_on_violation = False
    stats = engine.run(max_cycles=spec.max_cycles)
    violations = len(engine.checker.violations) if engine.checker is not None else 0
    scheme = engine.machine.detector.name
    if not spec.record_detail:
        stats = RunSummary.from_sink(
            stats, workload=name, scheme=scheme, seed=spec.seed,
            label=spec.label, violations=violations,
        )
    return RunResult(
        workload=name,
        scheme=scheme,
        config=spec.config,
        seed=spec.seed,
        stats=stats,
        violations=violations,
    )


def iter_many(
    specs: list[RunSpec] | Iterable[RunSpec],
    executor: "ExecConfig | str | Executor | None" = None,
    *,
    stream_stats: dict | None = None,
) -> Iterator[tuple[int, RunResult]]:
    """Yield ``(index, result)`` pairs as runs complete, memory-bounded.

    The streaming core of the sweep pipeline: results are handed to the
    consumer the moment a backend finishes them (completion order, not
    spec order).  Each simulation is seeded, so per-run results are
    bit-identical to the serial reference regardless of scheduling or
    backend.

    ``executor`` names the execution strategy: an
    :class:`~repro.sim.executors.ExecConfig`, a spec string (``serial``,
    ``process:8``, ``remote:hosts.txt`` — see
    :func:`~repro.sim.executors.parse_executor_spec`), a live
    :class:`~repro.sim.executors.Executor`, or ``None`` for the
    in-process default.

    Store checkpointing is backend-agnostic and lives here: every
    summary completion is recorded to ``config.store`` as it arrives,
    and specs the store already holds are served from it immediately,
    without re-simulating — an interrupted sweep re-invoked with the
    same store finishes only the missing work.  Only summaries
    round-trip through the store; a spec that keeps detail always
    re-runs.

    ``stream_stats`` (a dict, optional) receives instrumentation from
    this layer (``served_from_store``) and the backend
    (``peak_inflight`` / ``pool_rotations`` for the pool,
    ``workers_joined`` / ``batches_requeued`` / ``duplicates_dropped``
    for the remote fabric).
    """
    specs = list(specs)
    stats = stream_stats if stream_stats is not None else {}
    stats.setdefault("peak_inflight", 0)
    stats.setdefault("served_from_store", 0)
    stats.setdefault("pool_rotations", 0)

    backend = build_executor(executor, stats)
    store = backend.config.store

    tasks: list[ExecTask] = []
    for i, spec in enumerate(specs):
        if store is not None and not spec.record_detail and store.has_spec(spec):
            stats["served_from_store"] += 1
            yield i, store.result_for(spec)
        else:
            tasks.append(ExecTask(i, spec))

    for i, res in backend.run(tasks):
        if store is not None:
            store.record(specs[i], res)
        yield i, res


def run_many(
    specs: list[RunSpec],
    executor: "ExecConfig | str | Executor | None" = None,
    *,
    stream_stats: dict | None = None,
) -> list[RunResult]:
    """Execute every spec; results come back in spec order.

    A thin collector over :func:`iter_many` — the executor does all the
    work (fan-out, resilience, store checkpointing);
    this function only restores spec order and fires
    ``config.on_result(index, result)`` on each completion (completion
    order), feeding progress displays without a second pass.

    ``executor`` accepts everything :func:`iter_many` does — an
    :class:`~repro.sim.executors.ExecConfig`, a spec string
    (``serial`` / ``process:8`` / ``remote:hosts.txt``), a live
    executor, or ``None`` for the in-process default.

    Whatever the backend, each run executes whole specs with its own
    seed, so per-run determinism is untouched and results are
    bit-identical to the serial path; each spec's
    :attr:`~RunSpec.record_detail` decides whether its detail sink or the
    compact :class:`RunSummary` comes back.

    Resilience covers infrastructure failures, not broken experiments:
    worker deaths and stragglers are retried within bounds and finally
    re-run in-process (stamped ``worker_retries``/``serial_fallback``),
    while simulation errors (livelock, protocol violations) propagate.
    """
    stats = stream_stats if stream_stats is not None else {}
    backend = build_executor(executor, stats)
    on_result = backend.config.on_result
    specs = list(specs)
    results: list[RunResult | None] = [None] * len(specs)
    for i, res in iter_many(specs, backend, stream_stats=stats):
        results[i] = res
        if on_result is not None:
            on_result(i, res)
    for i, res in enumerate(results):
        if res is None:  # pragma: no cover - defensive
            raise SimulationError(f"spec {i} ({specs[i].label!r}) produced no result")
    return results  # type: ignore[return-value]
