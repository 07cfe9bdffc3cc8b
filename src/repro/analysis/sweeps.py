"""Parameter sweeps and design-choice ablations.

Beyond the paper's figures, DESIGN.md calls out the design choices worth
quantifying.  Each sweep runs full closed-loop simulations over one knob
with everything else held fixed:

* :func:`sweep_subblocks` — closed-loop counterpart of Figure 8 (the
  paper's open-loop sensitivity), including timing feedback;
* :func:`sweep_cores` — false-conflict scaling with core count (the
  paper's machine is fixed at 8; false sharing grows with sharers);
* :func:`ablation_forced_waw` — quantifies the Section IV-D-2 claim that
  accepting WAW-type false conflicts costs ≈nothing;
* :func:`ablation_dirty_state` — performance *and* correctness cost of
  the Section IV-C dirty machinery (the broken variant reports atomicity
  violations instead of pretending to work);
* :func:`sweep_backoff` — sensitivity of every scheme's results to the
  retry contention manager.

Every sweep is a batch of independent simulations, so each accepts
``executor=`` and executes through the streaming
:func:`repro.sim.parallel.run_many` path: points run concurrently when
asked, results always come back in axis order, and the compiled workload
is reused across every point that shares ``(n_cores, seed)`` instead of
being rebuilt per point.  A ``store`` (a
:class:`~repro.store.ResultsStore`) on the executor config checkpoints
completed points and skips them on resume; its ``on_result`` reports
live progress.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.config import (
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    HtmPolicy,
    SystemConfig,
    default_system,
)
from repro.sim.parallel import RunSpec, run_many
from repro.sim.runner import RunResult
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.sim.executors import ExecConfig, Executor

__all__ = [
    "AblationPoint",
    "ablation_dirty_state",
    "ablation_forced_waw",
    "sweep_backoff",
    "sweep_cores",
    "sweep_policy_matrix",
    "sweep_resolution",
    "sweep_subblocks",
]


@dataclass(slots=True)
class AblationPoint:
    """One configuration's outcome within a sweep."""

    label: str
    result: RunResult
    violations: int = 0

    @property
    def stats(self):
        return self.result.stats


def _run_points(
    workload: Workload,
    points: list[tuple[str, SystemConfig]],
    seed: int,
    check: bool = False,
    tolerate_violations: bool = False,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """Run one spec per (label, config) point, preserving axis order."""
    specs = [
        RunSpec(
            workload=workload,
            config=cfg,
            seed=seed,
            label=label,
            check_atomicity=check,
            tolerate_violations=tolerate_violations,
        )
        for label, cfg in points
    ]
    results = run_many(specs, executor)
    return [
        AblationPoint(label=spec.label, result=res, violations=res.violations)
        for spec, res in zip(specs, results)
    ]


def sweep_subblocks(
    workload: Workload,
    counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    seed: int = 1,
    config: SystemConfig | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """Closed-loop sub-block sweep (N=1 is the baseline by construction)."""
    base = config if config is not None else default_system()
    points = [
        (f"N={n}", base.with_scheme(DetectionScheme.SUBBLOCK, n)) for n in counts
    ]
    return _run_points(workload, points, seed, executor=executor)


def sweep_cores(
    workload: Workload,
    core_counts: tuple[int, ...] = (2, 4, 8, 16),
    seed: int = 1,
    scheme: DetectionScheme = DetectionScheme.ASF_BASELINE,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """How false-conflict pressure scales with the number of sharers."""
    points = [
        (
            f"{n_cores} cores",
            replace(default_system(scheme, 4), n_cores=n_cores),
        )
        for n_cores in core_counts
    ]
    return _run_points(workload, points, seed, executor=executor)


def ablation_forced_waw(
    workload: Workload,
    seed: int = 1,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> tuple[AblationPoint, AblationPoint]:
    """Sub-blocking with and without the forced-WAW abort rule.

    The paper accepts the rule because WAW-type false conflicts are ≈0%;
    the delta between these two runs is exactly what that acceptance
    costs on a given workload.
    """
    base = (config if config is not None else default_system()).with_scheme(
        DetectionScheme.SUBBLOCK, n_subblocks
    )
    relaxed_cfg = replace(base, htm=replace(base.htm, forced_waw_abort=False))
    with_rule, without_rule = _run_points(
        workload,
        [("forced-WAW on", base), ("forced-WAW off", relaxed_cfg)],
        seed,
        executor=executor,
    )
    return with_rule, without_rule


def ablation_dirty_state(
    workload: Workload,
    seed: int = 1,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> tuple[AblationPoint, AblationPoint]:
    """Dirty handling on vs off; the off variant also reports how many
    atomicity violations the checker found (it is *incorrect* hardware,
    not merely slower)."""
    base = (config if config is not None else default_system()).with_scheme(
        DetectionScheme.SUBBLOCK, n_subblocks
    )
    off_cfg = replace(base, htm=replace(base.htm, dirty_state_enabled=False))
    specs = [
        RunSpec(
            workload=workload,
            config=base,
            seed=seed,
            label="dirty on",
            check_atomicity=True,
        ),
        RunSpec(
            workload=workload,
            config=off_cfg,
            seed=seed,
            label="dirty off (BROKEN)",
            tolerate_violations=True,
        ),
    ]
    on_res, off_res = run_many(specs, executor)
    on = AblationPoint(label=specs[0].label, result=on_res)
    off = AblationPoint(
        label=specs[1].label, result=off_res, violations=off_res.violations
    )
    return on, off


def sweep_resolution(
    workload: Workload,
    seed: int = 1,
    scheme: DetectionScheme = DetectionScheme.SUBBLOCK,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """Requester-wins (ASF) vs older-wins vs stall/backoff resolution.

    The paper's machine aborts the probed ("earlier") transaction; this
    sweep quantifies the choice against the classic age-based policy and
    the LogTM-style bounded-stall policy.
    """
    points = []
    for policy in ConflictResolution:
        cfg = default_system(scheme, 4).with_policy(resolution=policy)
        points.append((policy.value, cfg))
    return _run_points(workload, points, seed, check=True, executor=executor)


def sweep_policy_matrix(
    workload: Workload,
    schemes: tuple[DetectionScheme, ...] = (
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
    ),
    policies: dict[str, HtmPolicy] | None = None,
    seed: int = 1,
    n_subblocks: int = 4,
    config: SystemConfig | None = None,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """Scheme × policy grid: every detection scheme at every policy point.

    The head-to-head view of the design-space explorer — how much
    sub-blocking buys depends on the HTM regime it runs under (eager
    ASF, eager/eager LogTM-style, lazy/lazy TCC-style, stall/backoff).
    Points are labelled ``{scheme}×{policy}`` in row-major (scheme-major)
    order.  ``policies`` defaults to :data:`repro.config.POLICY_PRESETS`
    plus a stall/backoff variant of the ASF point.
    """
    if policies is None:
        policies = dict(POLICY_PRESETS)
        policies["stall"] = HtmPolicy(
            resolution=ConflictResolution.STALL_BACKOFF
        )
    base = config if config is not None else default_system()
    points = []
    for scheme in schemes:
        for name, policy in policies.items():
            cfg = base.with_scheme(scheme, n_subblocks).with_policy(policy)
            points.append((f"{scheme.value}×{name}", cfg))
    return _run_points(workload, points, seed, executor=executor)


def sweep_backoff(
    workload: Workload,
    bases: tuple[int, ...] = (16, 64, 256, 1024),
    seed: int = 1,
    scheme: DetectionScheme = DetectionScheme.SUBBLOCK,
    executor: "ExecConfig | str | Executor | None" = None,
) -> list[AblationPoint]:
    """Backoff-base sensitivity (the paper's software-library knob)."""
    points = []
    for base_cycles in bases:
        cfg = default_system(scheme, 4)
        cfg = replace(
            cfg,
            htm=replace(
                cfg.htm,
                backoff_base_cycles=base_cycles,
                backoff_cap_cycles=max(base_cycles * 128, cfg.htm.backoff_cap_cycles),
            ),
        )
        points.append((f"base={base_cycles}", cfg))
    return _run_points(workload, points, seed, executor=executor)
