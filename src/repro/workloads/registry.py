"""Benchmark registry: the paper's Table III inventory.

Maps benchmark names to their generator classes with the paper's standard
configuration.  ``get_workload(name, scale=...)`` scales transaction
counts uniformly so tests can run small instances of the same structure
the benchmark harness runs at full size.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import WorkloadError
from repro.workloads.base import Workload

__all__ = ["BENCHMARK_NAMES", "all_workloads", "get_workload", "workload_table"]


def _factories() -> dict[str, Callable[[int], Workload]]:
    # Imported lazily so the registry module stays importable while
    # individual generators are under development.
    from repro.workloads.apriori import AprioriWorkload
    from repro.workloads.fluidanimate import FluidanimateWorkload
    from repro.workloads.genome import GenomeWorkload
    from repro.workloads.intruder import IntruderWorkload
    from repro.workloads.kmeans import KmeansWorkload
    from repro.workloads.labyrinth import LabyrinthWorkload
    from repro.workloads.scalparc import ScalparcWorkload
    from repro.workloads.ssca2 import Ssca2Workload
    from repro.workloads.utilitymine import UtilitymineWorkload
    from repro.workloads.vacation import VacationWorkload

    return {
        "intruder": lambda n: IntruderWorkload(txns_per_core=n),
        "kmeans": lambda n: KmeansWorkload(txns_per_core=n),
        # A non-positive count reaches the Workload check unchanged.
        "labyrinth": lambda n: LabyrinthWorkload(txns_per_core=max(n // 8, 8) if n > 0 else n),
        "ssca2": lambda n: Ssca2Workload(txns_per_core=n),
        "vacation": lambda n: VacationWorkload(txns_per_core=n),
        "genome": lambda n: GenomeWorkload(txns_per_core=n),
        "scalparc": lambda n: ScalparcWorkload(txns_per_core=n),
        "apriori": lambda n: AprioriWorkload(txns_per_core=n),
        "fluidanimate": lambda n: FluidanimateWorkload(txns_per_core=n),
        "utilitymine": lambda n: UtilitymineWorkload(txns_per_core=n),
    }


#: Table III benchmark names, in the paper's order.
BENCHMARK_NAMES: tuple[str, ...] = (
    "intruder",
    "kmeans",
    "labyrinth",
    "ssca2",
    "vacation",
    "genome",
    "scalparc",
    "apriori",
    "fluidanimate",
    "utilitymine",
)

#: Default transactions per core for full benchmark runs.
DEFAULT_TXNS_PER_CORE = 400


def get_workload(name: str, txns_per_core: int = DEFAULT_TXNS_PER_CORE) -> Workload:
    """Instantiate a Table III benchmark by name."""
    try:
        factory = _factories()[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return factory(txns_per_core)


def all_workloads(txns_per_core: int = DEFAULT_TXNS_PER_CORE) -> list[Workload]:
    """All ten Table III benchmarks in publication order."""
    return [get_workload(name, txns_per_core) for name in BENCHMARK_NAMES]


def workload_table() -> list[tuple[str, str]]:
    """(name, description) rows regenerating the paper's Table III."""
    return [
        (w.info.name, w.info.description) for w in all_workloads(txns_per_core=8)
    ]
