"""Workloads of the benchmark, their set-up, and the checks on their results.

Every workload is a closed loop: one caller submits one batch through the
public API of :mod:`repro` and waits for all of it.  A repetition starts
with an empty compiled-script cache, because every command-line run pays
for compilation.  The simulated statistics are a pure function of the
seed, so each simulation's ``summary()`` dict is hashed into a physics
digest; a repetition whose digest differs from the golden one (or, for a
seed without a golden entry, from the first repetition's) counts as
failed.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import scorer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: per-run work directories (removed
#: when the run ends) and the traced run's span files (kept).
OUT_DIR = os.path.join(ROOT, ".perfbench")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Transactions per core for every registry benchmark the workloads run.
TXNS_PER_CORE = 30
WORKLOADS = ("paper", "policy_sweep", "fleet", "forensics")
SWEEP_BENCHMARKS = ("ssca2", "kmeans", "genome")
FORENSICS_BENCHMARKS = ("kmeans", "vacation")


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


@dataclass
class Context:
    """What set-up leaves behind for the measured calls."""

    workload: str
    seed: int
    txns: int
    workdir: str
    hosts: str = ""


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro package under {SRC}; run from a full checkout")


def prepare(workload: str, seed: int, txns: int = TXNS_PER_CORE) -> Context:
    """Everything a run does before its first public call.

    The set-up probes run exactly this in a fresh interpreter, so
    ``setup_s`` covers interpreter start, imports, the work directory
    and the hosts file.
    """
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # Fleet workers are fresh interpreters that inherit only the
    # environment; the package is not installed, so point them at src.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    import repro.config  # noqa: F401
    import repro.sim.executors  # noqa: F401
    import repro.sim.parallel  # noqa: F401

    if workload == "paper":
        import repro.analysis.experiments  # noqa: F401
        import repro.analysis.figures  # noqa: F401
    elif workload == "policy_sweep":
        import repro.store  # noqa: F401
    elif workload == "fleet":
        import repro.sim.remote  # noqa: F401
    elif workload == "forensics":
        import repro.analysis.trace  # noqa: F401
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = Context(workload, seed, txns, tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT_DIR))
    if workload == "fleet":
        ctx.hosts = os.path.join(ctx.workdir, "hosts.txt")
        with open(ctx.hosts, "w", encoding="utf-8") as fh:
            fh.write("local\nlocal\n")
    return ctx


# -- digests -------------------------------------------------------------------


def physics_digest(stats) -> str:
    """sha256 of one run's ``summary()`` dict (provenance is not in it)."""
    return hashlib.sha256(json.dumps(stats.summary(), sort_keys=True).encode()).hexdigest()


def workload_digest(digests: dict[str, str]) -> str:
    """sha256 over every run's digest, sorted by run label."""
    blob = "\n".join(f"{label}\t{digests[label]}" for label in sorted(digests))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_golden(workload: str, seed: int, txns: int) -> dict[str, str] | None:
    """Golden per-run digests for this workload and seed, if recorded."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["txns_per_core"] != txns:
        return None
    # fleet runs the policy_sweep spec list, so it must match its digests.
    key = "policy_sweep" if workload == "fleet" else workload
    entry = golden["seeds"].get(str(seed), {}).get(key)
    return dict(entry["runs"]) if entry else None


# -- one repetition --------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float
    #: Simulated runs by label: a RunSummary or a full collector.
    results: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Workload-specific per-layer values measured in this repetition.
    layer: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    @property
    def digests(self) -> dict[str, str]:
        return {label: physics_digest(stats) for label, stats in self.results.items()}

    @property
    def accesses(self) -> int:
        return sum(s.l1_hits + s.l1_misses for s in self.results.values())


def compact(rep: Rep) -> None:
    """Keep only each run's counters.

    A full collector holds every conflict record; keeping those of every
    repetition would grow the heap and slow later repetitions.
    ``RunSummary.summary()`` equals the collector's bit for bit.
    """
    from repro.telemetry.summary import RunSummary

    rep.results = {
        label: stats if isinstance(stats, RunSummary) else RunSummary.from_sink(stats)
        for label, stats in rep.results.items()
    }


def check_digests(rep: Rep, expected: dict[str, str]) -> None:
    """Count each expected run that is missing or whose physics differs."""
    got = rep.digests
    for label, want in expected.items():
        if label not in got:
            rep.fail(f"{label}: no result")
        elif got[label] != want:
            rep.fail(f"{label}: physics digest {got[label][:12]} != {want[:12]}")


def check_invariants(rep: Rep, scripted: dict[str, int]) -> None:
    """Every scripted transaction commits; the perfect system has no false conflicts.

    ``scripted`` maps a registry benchmark name to its transaction count.
    """
    for label, stats in rep.results.items():
        name, scheme = label.split(":")[:2]
        if stats.txn_commits != scripted[name]:
            rep.fail(f"{label}: {stats.txn_commits} commits, {scripted[name]} scripted")
        if scheme.startswith("perfect") and stats.conflicts.total_false:
            rep.fail(f"{label}: perfect system reported false conflicts")


def clear_script_cache() -> None:
    from repro.sim import parallel

    parallel._script_cache.clear()


def scripted_commits(names, ctx: Context) -> dict[str, int]:
    """Transactions each benchmark's compiled program holds."""
    from repro.config import default_system
    from repro.sim import parallel

    n_cores = default_system().n_cores
    return {
        name: sum(s.n_txns for s in parallel.compiled_scripts(name, n_cores, ctx.seed, ctx.txns))
        for name in names
    }


def result_bytes(results) -> int:
    """Pickled size of the results, as an executor would ship them."""
    return sum(len(pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL)) for stats in results)


# -- workloads --------------------------------------------------------------------


def _sweep_specs(ctx: Context):
    """ssca2, kmeans, genome × three schemes × the sweep_policy_matrix points."""
    from repro.config import (
        POLICY_PRESETS,
        ConflictResolution,
        DetectionScheme,
        HtmPolicy,
        default_system,
    )
    from repro.sim.parallel import RunSpec

    policies = dict(POLICY_PRESETS)
    policies["stall"] = HtmPolicy(resolution=ConflictResolution.STALL_BACKOFF)
    base = default_system()
    return [
        RunSpec(
            workload=name,
            config=base.with_scheme(scheme, 4).with_policy(policy),
            seed=ctx.seed,
            txns_per_core=ctx.txns,
            label=f"{name}:{scheme.value}×{pname}",
        )
        for name in SWEEP_BENCHMARKS
        for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK,
                       DetectionScheme.PERFECT)
        for pname, policy in policies.items()
    ]


class Paper:
    """run_suite over Table III × {asf, subblock, perfect}, figures, claims."""

    name = "paper"

    def __init__(self, ctx: Context) -> None:
        from repro.workloads.registry import BENCHMARK_NAMES

        self.ctx = ctx
        self.benchmarks = tuple(BENCHMARK_NAMES)
        self.n_specs = 3 * len(self.benchmarks)

    def run_once(self) -> Rep:
        from repro.analysis import experiments, figures

        clear_script_cache()
        t0 = perf_counter()
        suite = experiments.run_suite(txns_per_core=self.ctx.txns, seed=self.ctx.seed)
        figures.compute_all_figures(suite)
        claims = scorer.measured_claims(suite)
        rep = Rep(wall_s=perf_counter() - t0, attempted=self.n_specs)
        for name, bench in suite.benches.items():
            rep.results[f"{name}:asf"] = bench.baseline.stats
            rep.results[f"{name}:subblock"] = bench.subblock.stats
            rep.results[f"{name}:perfect"] = bench.perfect.stats
        rep.layer["paper_mae_pp"] = scorer.paper_mae_pp(claims)
        return rep

    def scripted(self) -> dict[str, int]:
        return scripted_commits(self.benchmarks, self.ctx)


class PolicySweep:
    """One serial run_many batch checkpointed into a fresh store, then resumed."""

    name = "policy_sweep"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.specs = _sweep_specs(ctx)
        self.n_specs = len(self.specs)
        self.store_dir = os.path.join(ctx.workdir, "store")
        self.store_cls = timed_store_class()

    def run_once(self) -> Rep:
        from repro.sim import parallel
        from repro.sim.executors import ExecConfig

        clear_script_cache()
        t0 = perf_counter()
        store = self.store_cls(self.store_dir, fresh=True)
        first = parallel.run_many(self.specs, ExecConfig(backend="serial", store=store))
        store.close()
        t1 = perf_counter()
        resumed = self.store_cls(self.store_dir)
        stream: dict = {}
        second = parallel.run_many(
            self.specs, ExecConfig(backend="serial", store=resumed), stream_stats=stream
        )
        resumed.close()
        t2 = perf_counter()
        rep = Rep(wall_s=t2 - t0, attempted=self.n_specs)
        rep.results = {spec.label: res.stats for spec, res in zip(self.specs, first)}
        served = stream.get("served_from_store", 0)
        if served < self.n_specs:
            rep.fail(f"resume served {served} of {self.n_specs} specs from the store")
        for spec, res in zip(self.specs, second):
            if physics_digest(res.stats) != physics_digest(rep.results[spec.label]):
                rep.fail(f"{spec.label}: stored result differs from the simulated one")
        rep.layer.update({
            "store.record_calls": store.record_calls,
            "store.record_ms": store.record_ns / 1e6 / max(store.record_calls, 1),
            "store.resume_s": t2 - t1,
            "store.served_from_store": served,
        })
        return rep

    def scripted(self) -> dict[str, int]:
        return scripted_commits(SWEEP_BENCHMARKS, self.ctx)


class Fleet:
    """The policy_sweep spec list, storeless, through two loopback workers."""

    name = "fleet"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.specs = _sweep_specs(ctx)
        self.n_specs = len(self.specs)

    def run_once(self) -> Rep:
        from repro.sim import parallel
        from repro.sim.executors import parse_executor_spec

        first: list[float] = []

        def on_result(index, result) -> None:
            if not first:
                first.append(perf_counter())

        t0 = perf_counter()
        config = parse_executor_spec("remote:" + self.ctx.hosts)
        config.on_result = on_result
        stream: dict = {}
        results = parallel.run_many(self.specs, config, stream_stats=stream)
        rep = Rep(wall_s=perf_counter() - t0, attempted=self.n_specs)
        rep.results = {spec.label: res.stats for spec, res in zip(self.specs, results)}
        shares = Counter(res.worker for res in results)
        rep.layer.update({
            "remote.first_result_s": first[0] - t0,
            "remote.specs_per_s": self.n_specs / rep.wall_s,
            "remote.worker_share_max": max(shares.values()) / self.n_specs,
        })
        for key in ("workers_joined", "batches_requeued", "duplicates_dropped",
                    "drained_to_local", "local_fallback_specs"):
            rep.layer["remote." + key] = stream.get(key, 0)
        return rep

    def reference(self) -> dict[str, str]:
        """Digests of the same spec list run serially in this process."""
        from repro.sim import parallel
        from repro.sim.executors import ExecConfig

        clear_script_cache()
        results = parallel.run_many(self.specs, ExecConfig(backend="serial"))
        return {spec.label: physics_digest(res.stats) for spec, res in zip(self.specs, results)}

    def scripted(self) -> dict[str, int]:
        return scripted_commits(SWEEP_BENCHMARKS, self.ctx)


class Forensics:
    """Record access-level traces, then rebuild and analyze each."""

    name = "forensics"

    def __init__(self, ctx: Context) -> None:
        from repro.config import DetectionScheme, default_system
        from repro.sim.parallel import RunSpec
        from repro.sim.runner import trace_filename

        self.ctx = ctx
        trace_dir = os.path.join(ctx.workdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        self.specs = [
            RunSpec(
                workload=name,
                config=default_system(scheme, 4).with_telemetry(
                    sink="trace",
                    trace_path=os.path.join(trace_dir, trace_filename(name, scheme.value)),
                    trace_accesses=True,
                ),
                seed=ctx.seed,
                txns_per_core=ctx.txns,
                label=f"{name}:{scheme.value}",
            )
            for name in FORENSICS_BENCHMARKS
            for scheme in (DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK)
        ]
        # One simulation and one trace analysis per spec.
        self.n_specs = 2 * len(self.specs)

    def run_once(self) -> Rep:
        from repro.analysis.trace import ConflictTimeline, analyze_trace
        from repro.sim import parallel
        from repro.sim.executors import ExecConfig

        clear_script_cache()
        replayed = {}
        errors = []
        t0 = perf_counter()
        results = parallel.run_many(self.specs, ExecConfig(backend="serial"))
        for spec in self.specs:
            # from_trace streams the file through TraceReader; analyze_trace
            # reads it again and renders the full report.  Only the replayed
            # counters are kept, so timelines do not pile up on the heap.
            path = spec.config.telemetry.trace_path
            try:
                counters = ConflictTimeline.from_trace(path).parity_summary()
                report = analyze_trace(path)
            except Exception as exc:  # noqa: BLE001 - counted as a failed analysis
                errors.append(f"{spec.label}: trace analysis raised {exc!r}")
                continue
            replayed[spec.label] = counters if report else None
        rep = Rep(wall_s=perf_counter() - t0, attempted=self.n_specs)
        rep.results = {spec.label: res.stats for spec, res in zip(self.specs, results)}
        for message in errors:
            rep.fail(message)
        for label, counters in replayed.items():
            if counters != rep.results[label].summary():
                rep.fail(f"{label}: trace does not replay the live counters")
        rep.layer["telemetry.trace_bytes"] = sum(
            os.path.getsize(spec.config.telemetry.trace_path) for spec in self.specs
        )
        return rep

    def scripted(self) -> dict[str, int]:
        return scripted_commits(FORENSICS_BENCHMARKS, self.ctx)


def make_workload(ctx: Context):
    return {"paper": Paper, "policy_sweep": PolicySweep, "fleet": Fleet,
            "forensics": Forensics}[ctx.workload](ctx)


def timed_store_class():
    """A ResultsStore that counts and times its appends from outside."""
    from repro.store import ResultsStore

    class TimedStore(ResultsStore):
        def __init__(self, directory: str, fresh: bool = False) -> None:
            self.record_calls = 0
            self.record_ns = 0
            super().__init__(directory, fresh=fresh)

        def record(self, spec, result) -> bool:
            t0 = perf_counter_ns()
            try:
                return super().record(spec, result)
            finally:
                self.record_calls += 1
                self.record_ns += perf_counter_ns() - t0

    return TimedStore


def remove_workdir(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)
