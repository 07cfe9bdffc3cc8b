"""High-level run API.

:func:`run_workload` executes one workload on one system configuration;
:func:`compare_systems` runs the same compiled scripts on the paper's three
systems — baseline ASF, sub-blocking (N=4 by default) and the perfect
zero-false-conflict bound — exactly the comparison of Figures 9 and 10.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import DetectionScheme, SystemConfig, default_system
from repro.sim.engine import SimulationEngine
from repro.workloads.base import CoreScript, Workload

if TYPE_CHECKING:
    from repro.sim.executors import ExecConfig, Executor
    from repro.telemetry.sinks import CounterSink
    from repro.telemetry.summary import RunSummary

__all__ = [
    "RunResult",
    "compare_systems",
    "compare_systems_seeds",
    "run_workload",
    "run_scripts",
    "trace_filename",
]


def trace_filename(workload: str, scheme: str, seed: int | None = None) -> str:
    """Canonical per-run trace file name inside a ``--trace-dir``.

    Labels are sanitised to filesystem-safe characters so registry names
    and ad-hoc workload labels produce valid, collision-stable paths.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", workload) or "run"
    stem = f"{safe}_{scheme}" if seed is None else f"{safe}_{scheme}_s{seed}"
    return stem + ".jsonl"


def _traced(config: SystemConfig, trace_dir: str | None, filename: str) -> SystemConfig:
    """The spec's config, plus a trace export when ``trace_dir`` is set."""
    if trace_dir is None:
        return config
    return config.with_telemetry(
        sink="trace", trace_path=os.path.join(trace_dir, filename)
    )


@dataclass(slots=True)
class RunResult:
    """One simulation run and everything needed to interpret it."""

    workload: str
    scheme: str
    config: SystemConfig
    seed: int
    #: The sink the run recorded into (a :class:`DetailSink` when the run
    #: kept detail) or a compact
    #: :class:`~repro.telemetry.summary.RunSummary` of it (what
    #: ``run_many`` returns for every spec that keeps none) — both expose
    #: ``conflicts``, the aggregate counters and ``summary()`` with
    #: identical values.
    stats: "CounterSink | RunSummary"
    #: Atomicity violations found by a non-raising checker (only ever
    #: non-zero for deliberately broken ablation variants).
    violations: int = 0
    #: Pool-resilience provenance: how many times this spec was resubmitted
    #: after a worker death, and whether it ultimately ran in-process.
    worker_retries: int = 0
    serial_fallback: bool = False
    #: Remote-fabric provenance: ``host:pid`` of the worker that produced
    #: this result ("" when it ran in this process).
    worker: str = ""

    @property
    def false_rate(self) -> float:
        return self.stats.conflicts.false_rate

    @property
    def execution_cycles(self) -> int:
        return self.stats.execution_cycles

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time improvement relative to a baseline run
        (positive = faster), as plotted in Figure 10."""
        if baseline.execution_cycles == 0:
            return 0.0
        return 1.0 - self.execution_cycles / baseline.execution_cycles

    def conflict_reduction_over(self, baseline: "RunResult") -> float:
        """Overall-conflict reduction relative to a baseline run (Fig. 9)."""
        base = baseline.stats.conflicts.total
        if base == 0:
            return 0.0
        return 1.0 - self.stats.conflicts.total / base

    def false_reduction_over(self, baseline: "RunResult") -> float:
        """False-conflict reduction relative to a baseline run."""
        base = baseline.stats.conflicts.total_false
        if base == 0:
            return 0.0
        return 1.0 - self.stats.conflicts.total_false / base


def run_scripts(
    scripts: list[CoreScript],
    config: SystemConfig,
    seed: int,
    workload_name: str = "custom",
    check_atomicity: bool = True,
    max_cycles: int | None = None,
) -> RunResult:
    """Run pre-compiled scripts on a configured machine; the result's
    ``stats`` is the run's :class:`~repro.telemetry.sinks.DetailSink`."""
    engine = SimulationEngine(
        config,
        scripts,
        seed=seed,
        check_atomicity=check_atomicity,
    )
    stats = engine.run(max_cycles=max_cycles)
    return RunResult(
        workload=workload_name,
        scheme=engine.machine.detector.name,
        config=config,
        seed=seed,
        stats=stats,
    )


def run_workload(
    workload: Workload,
    config: SystemConfig | None = None,
    seed: int = 1,
    check_atomicity: bool = True,
    max_cycles: int | None = None,
) -> RunResult:
    """Compile and run a workload on one system (see :func:`run_scripts`)."""
    cfg = config if config is not None else default_system()
    scripts = workload.build(cfg.n_cores, seed)
    result = run_scripts(
        scripts,
        cfg,
        seed,
        workload_name=workload.name,
        check_atomicity=check_atomicity,
        max_cycles=max_cycles,
    )
    return result


def compare_systems(
    workload: Workload,
    seed: int = 1,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    schemes: tuple[DetectionScheme, ...] = (
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
        DetectionScheme.PERFECT,
    ),
    check_atomicity: bool = True,
    trace_dir: str | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> dict[str, RunResult]:
    """Run identical compiled scripts under several detection schemes.

    Keys of the returned dict are scheme values (``"asf"``, ``"subblock"``,
    ``"perfect"``); the workload is compiled once (per process) so every
    system executes the same program.  ``executor`` says how the batch
    runs (see :func:`~repro.sim.parallel.run_many`); all backends are
    bit-identical to the serial path.  Runs come back as compact
    summaries; a caller that wants a run's detail sink builds a
    :class:`~repro.sim.parallel.RunSpec` with ``record_detail=True``.
    ``trace_dir`` additionally records each scheme's run as a JSONL
    event trace (``<workload>_<scheme>.jsonl``) for post-hoc forensics.
    """
    from repro.sim.parallel import RunSpec, run_many

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    base_cfg = config if config is not None else default_system()
    specs = [
        RunSpec(
            workload=workload,
            config=_traced(
                base_cfg.with_scheme(scheme, n_subblocks),
                trace_dir,
                trace_filename(workload.name, scheme.value),
            ),
            seed=seed,
            label=scheme.value,
            check_atomicity=check_atomicity,
        )
        for scheme in schemes
    ]
    results = run_many(specs, executor)
    return {scheme.value: res for scheme, res in zip(schemes, results)}


def compare_systems_seeds(
    workload: Workload,
    seeds: tuple[int, ...] | list[int],
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    schemes: tuple[DetectionScheme, ...] = (
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
        DetectionScheme.PERFECT,
    ),
    check_atomicity: bool = True,
    trace_dir: str | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> dict[str, list[RunResult]]:
    """:func:`compare_systems` fanned out over several seeds.

    Returns ``{scheme_value: [RunResult per seed]}`` in seed order; runs
    keep no per-run detail and come back as compact summaries, so the
    batch is cheap to fan out.  Feed each list to
    :func:`repro.telemetry.aggregate_metrics` for mean ± stdev.  A store
    on the ``executor`` config checkpoints each (scheme, seed) cell for
    resume.  ``trace_dir`` records every (scheme, seed) cell as
    ``<workload>_<scheme>_s<seed>.jsonl``.
    """
    from repro.sim.parallel import RunSpec, run_many

    if not seeds:
        raise ValueError("compare_systems_seeds needs at least one seed")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    base_cfg = config if config is not None else default_system()
    specs = [
        RunSpec(
            workload=workload,
            config=_traced(
                base_cfg.with_scheme(scheme, n_subblocks),
                trace_dir,
                trace_filename(workload.name, scheme.value, seed),
            ),
            seed=seed,
            label=f"{scheme.value}/s{seed}",
            check_atomicity=check_atomicity,
        )
        for scheme in schemes
        for seed in seeds
    ]
    results = run_many(specs, executor)
    out: dict[str, list[RunResult]] = {}
    it = iter(results)
    for scheme in schemes:
        out[scheme.value] = [next(it) for _ in seeds]
    return out
