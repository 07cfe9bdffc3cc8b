"""Execution layer: event-driven multicore engine, statistics, timing and
the serializability checker.

Typical use goes through :func:`repro.sim.runner.run_workload` (one system)
or :func:`repro.sim.runner.compare_systems` (baseline vs sub-block vs
perfect on the same seeded workload).

Submodule attributes are resolved lazily, so importing one submodule
does not load the others.
"""

from typing import TYPE_CHECKING

__all__ = [
    "AtomicityChecker",
    "RunResult",
    "SimulationEngine",
    "compare_systems",
    "run_workload",
]

if TYPE_CHECKING:  # pragma: no cover - typing-time only
    from repro.sim.atomicity import AtomicityChecker
    from repro.sim.engine import SimulationEngine
    from repro.sim.runner import RunResult, compare_systems, run_workload

_EXPORTS = {
    "AtomicityChecker": ("repro.sim.atomicity", "AtomicityChecker"),
    "SimulationEngine": ("repro.sim.engine", "SimulationEngine"),
    "RunResult": ("repro.sim.runner", "RunResult"),
    "compare_systems": ("repro.sim.runner", "compare_systems"),
    "run_workload": ("repro.sim.runner", "run_workload"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro.sim' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
