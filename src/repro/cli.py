"""Command-line interface: ``repro-asf``.

Subcommands::

    repro-asf list                       # Table III inventory
    repro-asf run vacation               # one benchmark, all systems
    repro-asf suite --txns 200           # every figure/table, printed
    repro-asf overhead --subblocks 4     # Section IV-E cost model
    repro-asf sweep vacation             # closed-loop sub-block sweep
    repro-asf sweep vacation --axis policy   # scheme × policy matrix
    repro-asf policies                   # the supported HTM policy matrix
    repro-asf ablate genome              # dirty-state + forced-WAW ablations
    repro-asf save-scripts ssca2 out.jsonl   # compile + serialize a program
    repro-asf replay out.jsonl           # simulate a serialized program
    repro-asf trace kmeans events.jsonl  # export a JSONL event trace
    repro-asf analyze events.jsonl       # conflict forensics from a trace
    repro-asf store ls DIR               # inspect a results store
    repro-asf store gc DIR --keep-last 8 # prune a results store
    repro-asf store merge DEST SRC...    # union per-host checkpoint dirs
    repro-asf worker --connect HOST:PORT # join a remote sweep as a worker

``--executor SPEC`` on ``run``/``suite``/``sweep``/``ablate`` picks the
execution backend: ``serial`` (in-process reference, the default),
``process`` / ``process:N`` (one worker per core / N workers, forked on
loopback: the remote fabric below), ``remote:PORT`` /
``remote:HOST:PORT`` (TCP coordinator on a fixed port; workers join via
``repro-asf worker``) or ``remote:HOSTS_FILE`` (the coordinator launches
the workers the file names).  See ``docs/DISTRIBUTED.md`` for the
fabric.

A :class:`~repro.errors.ConfigError` (bad executor spec, ``worker
--connect`` address or ``sweep --counts`` list, a policy or count flag
given to ``sweep --axis policy``, missing or malformed trace file, a
``store`` path that holds no results store, a negative ``store gc
--keep-last``, ``analyze --top`` or ``--cascade-window``, an ``analyze
--bins`` below 1 or a ``--subblocks`` that does not divide the trace's
line size, a ``--seeds`` or ``save-scripts --cores`` below 1) or
:class:`~repro.errors.WorkloadError` (missing or malformed script file,
a ``--txns`` below 1) ends in one ``repro-asf: error: ...`` line and
exit status 2.

``--trace-dir DIR`` on ``run``/``suite`` records every run's event
trace into DIR *and* writes a ``<run>.report.txt`` forensics report next
to each trace — record and analyze in one pass.

``--seeds N`` on ``run``/``suite`` repeats the experiment over seeds
1..N and reports every metric as mean ± sample stdev (``suite`` then
renders the error-bar editions of the headline figures).

``--checkpoint DIR`` on ``run``/``suite``/``sweep`` persists every
completed run to a :class:`~repro.store.ResultsStore` in DIR as it
finishes; re-invoking with ``--resume`` skips the runs already stored,
so an interrupted sweep picks up where it died.  A live ``[done/total]``
progress line (stderr, TTY only) is fed by the streaming executor.

``--policy {asf,eager,lazy}`` (plus ``--resolution`` / ``--arbitration``
overrides) selects the HTM policy point on every simulating subcommand;
``repro-asf policies`` prints the full matrix.  The default is the
paper's ASF machine.

The CLI is a thin veneer over the library; anything it prints is computed
by :mod:`repro.analysis`.  Each command imports the layers it uses, so
``repro-asf worker`` — what every remote worker runs — loads only the
simulator.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.config import (
    KERNELS,
    POLICY_PRESETS,
    ConflictResolution,
    DetectionScheme,
    DetectionTiming,
    HtmPolicy,
    LazyArbitration,
    SystemConfig,
    VersionMgmt,
    default_system,
)
from repro.errors import ConfigError, WorkloadError
from repro.util.tables import format_table, percent
from repro.workloads.registry import BENCHMARK_NAMES, get_workload, workload_table

__all__ = ["main"]

ALL_SCHEMES = (
    DetectionScheme.ASF_BASELINE,
    DetectionScheme.SUBBLOCK,
    DetectionScheme.PERFECT,
    DetectionScheme.DECOUPLED,
)


class _ProgressLine:
    """``\\r``-rewriting ``[done/total] label`` line on stderr.

    Fed as the ``on_result`` callback of the streaming executor, so it
    ticks the moment each run completes (completion order).  Inactive
    when stderr is not a TTY — piped output stays clean.
    """

    def __init__(self, total: int, enabled: bool | None = None) -> None:
        self.total = total
        self.done = 0
        self.enabled = sys.stderr.isatty() if enabled is None else enabled

    def __call__(self, index: int, result) -> None:
        self.done += 1
        if not self.enabled:
            return
        label = f"{result.workload}:{result.scheme}"
        sys.stderr.write(f"\r[{self.done}/{self.total}] {label:<40.40}")
        sys.stderr.flush()

    def finish(self) -> None:
        """Blank the line so real output starts at column 0."""
        if self.enabled and self.done:
            sys.stderr.write("\r" + " " * 52 + "\r")
            sys.stderr.flush()


def _executor_config(args: argparse.Namespace, store=None, on_result=None):
    """The :class:`~repro.sim.executors.ExecConfig` ``--executor`` selects,
    carrying the checkpoint store and the progress callback."""
    from repro.sim.executors import parse_executor_spec

    cfg = parse_executor_spec(args.executor)
    cfg.store = store
    cfg.on_result = on_result
    return cfg


def _open_store(args: argparse.Namespace):
    """A ResultsStore for ``--checkpoint DIR``, or None.

    Without ``--resume`` the directory is wiped first: the flags are
    "record this sweep" vs "continue that one", never a silent mix.
    """
    directory = getattr(args, "checkpoint", None)
    if not directory:
        return None
    from repro.store import ResultsStore

    return ResultsStore(directory, fresh=not args.resume)


def _analyze_trace_dir(trace_dir: str | None) -> None:
    """Forensics pass over every trace in a ``--trace-dir`` directory.

    Each ``<run>.jsonl`` gets a ``<run>.report.txt`` sibling; the pass
    prints one summary line so the figure output above stays primary.
    """
    if trace_dir is None:
        return
    import glob

    from repro.analysis.trace import analyze_trace

    traces = sorted(glob.glob(os.path.join(trace_dir, "*.jsonl")))
    for path in traces:
        report = analyze_trace(path)
        out = os.path.splitext(path)[0] + ".report.txt"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if traces:
        print(
            f"\n[trace-dir] {len(traces)} traces recorded and analyzed in "
            f"{trace_dir} (one .report.txt per trace)"
        )


def _policy_from_args(args) -> HtmPolicy | None:
    """The HtmPolicy the CLI flags select, or None for the ASF default.

    ``--policy`` picks a preset; ``--resolution`` / ``--arbitration``
    override individual axes on top of it, so e.g.
    ``--policy lazy --arbitration polite`` is a valid matrix point.
    """
    name = getattr(args, "policy", None)
    resolution = getattr(args, "resolution", None)
    arbitration = getattr(args, "arbitration", None)
    if (name in (None, "asf")) and resolution is None and arbitration is None:
        return None
    policy = POLICY_PRESETS[name or "asf"]
    overrides = {}
    if resolution is not None:
        overrides["resolution"] = ConflictResolution(resolution)
    if arbitration is not None:
        overrides["lazy_arbitration"] = LazyArbitration(arbitration)
    if overrides:
        from dataclasses import replace

        policy = replace(policy, **overrides)
    return policy


def _apply_policy(cfg: SystemConfig, args) -> SystemConfig:
    policy = _policy_from_args(args)
    return cfg if policy is None else cfg.with_policy(policy)


def _base_config(args) -> SystemConfig:
    """``default_system()`` with the CLI's kernel + policy flags applied."""
    return _apply_policy(default_system().with_kernel(args.kernel), args)


def _result_rows(results, base):
    rows = []
    for name, res in results.items():
        s = res.stats
        rows.append(
            (
                name,
                s.txn_commits,
                s.conflicts.total,
                s.conflicts.total_false,
                percent(s.conflicts.false_rate),
                f"{s.avg_retries:.2f}",
                s.execution_cycles,
                percent(res.speedup_over(base)),
            )
        )
    return rows


_RESULT_HEADERS = (
    "system",
    "commits",
    "conflicts",
    "false",
    "false rate",
    "retries",
    "cycles",
    "improvement",
)


def _cmd_list(_args: argparse.Namespace) -> int:
    print(format_table(("benchmark", "description"), workload_table()))
    return 0


def _require_at_least(args: argparse.Namespace, **bounds: int) -> None:
    """Reject a count flag below its bound before any work starts."""
    for name, low in bounds.items():
        value = getattr(args, name)
        if value < low:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be at least {low}, got {value}")


def _seed_list(args: argparse.Namespace) -> tuple[int, ...]:
    """Seeds for a ``--seeds N`` fan-out: N seeds starting at ``--seed``."""
    return tuple(range(args.seed, args.seed + args.seeds))


def _print_profile(pr) -> None:
    """Top-20 cumulative profile plus a machine/engine/telemetry split.

    The split buckets each function's *tottime* by the layer its file
    lives in, so "where do the cycles go" is answerable without reading
    the full table: ``sim/engine`` is the event loop, ``telemetry/`` the
    sink hooks, and ``kernel``/``htm``/``mem`` the simulated machine.
    """
    import pstats

    stats = pstats.Stats(pr)
    stats.sort_stats("cumulative")
    stats.print_stats(20)
    buckets = {"machine": 0.0, "engine": 0.0, "telemetry": 0.0, "other": 0.0}
    total = 0.0
    for (filename, _lineno, _name), (_cc, _nc, tt, _ct, _callers) in (
        stats.stats.items()  # type: ignore[attr-defined]
    ):
        total += tt
        norm = filename.replace("\\", "/")
        if "/sim/engine" in norm:
            buckets["engine"] += tt
        elif "/telemetry/" in norm:
            buckets["telemetry"] += tt
        elif "/kernel/" in norm or "/htm/" in norm or "/mem/" in norm:
            buckets["machine"] += tt
        else:
            buckets["other"] += tt
    print("phase split (tottime):")
    for name in ("machine", "engine", "telemetry", "other"):
        pct = 100.0 * buckets[name] / total if total else 0.0
        print(f"  {name:<9} {buckets[name]:8.3f}s  {pct:5.1f}%")


def _cmd_run(args: argparse.Namespace) -> int:
    _require_at_least(args, seeds=1)
    if getattr(args, "profile", False):
        import cProfile

        pr = cProfile.Profile()
        pr.enable()
        try:
            rv = _cmd_run_inner(args)
        finally:
            pr.disable()
            _print_profile(pr)
        return rv
    return _cmd_run_inner(args)


def _cmd_run_inner(args: argparse.Namespace) -> int:
    from repro.sim.runner import compare_systems, compare_systems_seeds
    from repro.telemetry import aggregate_metrics

    workload = get_workload(args.benchmark, args.txns)
    schemes = ALL_SCHEMES if args.all_schemes else (
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
        DetectionScheme.PERFECT,
    )
    store = _open_store(args)
    if args.seeds > 1:
        seeds = _seed_list(args)
        progress = _ProgressLine(len(schemes) * len(seeds))
        try:
            by_scheme = compare_systems_seeds(
                workload, seeds, n_subblocks=args.subblocks,
                config=_base_config(args),
                check_atomicity=args.check, schemes=schemes,
                executor=_executor_config(args, store=store,
                                          on_result=progress),
                trace_dir=args.trace_dir,
            )
        finally:
            progress.finish()
            if store is not None:
                store.close()
        rows = []
        for name, runs in by_scheme.items():
            m = aggregate_metrics(r.stats for r in runs)
            rows.append(
                (
                    name,
                    m["txn_commits"].format(precision=1),
                    m["conflicts_total"].format(precision=1),
                    m["false_rate"].format(precision=4),
                    m["avg_retries"].format(precision=3),
                    m["execution_cycles"].format(precision=0),
                )
            )
        print(
            format_table(
                ("system", "commits", "conflicts", "false rate", "retries",
                 "cycles"),
                rows,
                title=(
                    f"{args.benchmark} ({len(seeds)} seeds {seeds}, "
                    f"{args.txns} txns/core, mean ± stdev)"
                ),
            )
        )
        _analyze_trace_dir(args.trace_dir)
        return 0
    progress = _ProgressLine(len(schemes))
    try:
        results = compare_systems(
            workload, seed=args.seed, n_subblocks=args.subblocks,
            config=_base_config(args),
            check_atomicity=args.check, schemes=schemes,
            executor=_executor_config(args, store=store, on_result=progress),
            trace_dir=args.trace_dir,
        )
    finally:
        progress.finish()
        if store is not None:
            store.close()
    base = results["asf"]
    print(
        format_table(
            _RESULT_HEADERS,
            _result_rows(results, base),
            title=f"{args.benchmark} (seed {args.seed}, {args.txns} txns/core)",
        )
    )
    _analyze_trace_dir(args.trace_dir)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_seed_sweep, run_suite
    from repro.analysis.report import render_all, render_seed_figures

    _require_at_least(args, seeds=1)
    store = _open_store(args)
    try:
        n_suite = len(BENCHMARK_NAMES) * 3
        progress = _ProgressLine(n_suite)
        suite = run_suite(
            txns_per_core=args.txns, seed=args.seed,
            config=_base_config(args),
            executor=_executor_config(args, store=store, on_result=progress),
            trace_dir=args.trace_dir,
        )
        progress.finish()
        out = render_all(suite)
        if args.seeds > 1:
            # The suite's own runs are the first seed; only the later
            # seeds simulate.
            seeds = _seed_list(args)
            progress = _ProgressLine(n_suite * (len(seeds) - 1))
            sweep = run_seed_sweep(
                txns_per_core=args.txns, seeds=seeds[1:],
                config=_base_config(args),
                executor=_executor_config(args, store=store,
                                          on_result=progress),
            )
            progress.finish()
            sweep.seeds = seeds
            for name, bench in suite.benches.items():
                firsts = (bench.baseline, bench.subblock, bench.perfect)
                for scheme, run in zip(sweep.schemes, firsts):
                    sweep.runs[(name, scheme.value)].insert(0, run)
            out += "\n\n" + "=" * 72 + "\n\n" + render_seed_figures(sweep)
        print(out)
        _analyze_trace_dir(args.trace_dir)
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.sim.engine import SimulationEngine
    from repro.telemetry.sinks import TRACE_SCHEMA, TRACE_SCHEMA_MAJOR, TRACE_SCHEMA_MINOR

    workload = get_workload(args.benchmark, args.txns)
    cfg = _apply_policy(
        default_system(DetectionScheme(args.scheme), args.subblocks)
        .with_kernel(args.kernel),
        args,
    ).with_telemetry(
        sink="trace", trace_path=args.path, trace_accesses=args.accesses,
    )
    # The engine's trace writer counts what it wrote (every event after
    # the header, run_complete included), so the trace is not read back.
    engine = SimulationEngine(
        cfg, workload.build(cfg.n_cores, args.seed), seed=args.seed,
        check_atomicity=False,
    )
    stats = engine.run()
    print(
        f"wrote {args.path}: {engine.sink.events_written} events "
        f"(schema {TRACE_SCHEMA} v{TRACE_SCHEMA_MAJOR}.{TRACE_SCHEMA_MINOR}, "
        f"{stats.txn_commits} commits, {stats.conflicts.total} conflicts)"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.trace import (
        TRACE_FIGURES,
        ConflictTimeline,
        TraceReader,
        render_trace_report,
    )

    _require_at_least(args, top=0, cascade_window=0, bins=1)
    chosen = args.fig or ["all"]
    figs = TRACE_FIGURES if "all" in chosen else tuple(dict.fromkeys(chosen))
    reader = TraceReader(args.path)
    line_size = reader.header.line_size
    if args.subblocks < 1 or line_size % args.subblocks:
        reader.close()
        raise ConfigError(
            f"--subblocks must divide the trace's {line_size}-byte line, "
            f"got {args.subblocks}"
        )
    # One decode: the report and the TSVs read the same timeline.
    timeline = ConflictTimeline.from_trace(reader)
    report = render_trace_report(
        timeline, figs=figs, bins=args.bins, top=args.top,
        n_subblocks=args.subblocks, cascade_window=args.cascade_window,
    )
    if args.out is None:
        print(report)
        return 0
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report + "\n")
    written = [report_path]
    tsvs = {}
    if "3" in figs:
        hist = timeline.conflict_lifetime_histogram(bins=args.bins)
        tsvs["fig3.tsv"] = [("lifetime_bin", "false_conflicts")] + [
            (f"{k / args.bins:.2f}", n) for k, n in enumerate(hist)
        ]
    if "4" in figs:
        tsvs["fig4.tsv"] = [("line_index", "line_addr", "false_conflicts")] + [
            (index, f"{addr:#x}", n)
            for index, addr, n in timeline.line_ranking()
        ]
    if "5" in figs:
        tsvs["fig5.tsv"] = [
            ("byte_offset", "false_conflicts")
        ] + timeline.conflict_offset_histogram()
    for name, rows in tsvs.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(str(c) for c in row) + "\n")
        written.append(path)
    print(f"wrote {', '.join(written)}")
    return 0


def _require_stores(paths, logs_ok: bool = False) -> None:
    """Refuse, before anything is opened or created, a path that holds no
    results store: a directory with a ``results.jsonl`` log, or with
    ``logs_ok`` (merge sources) any existing file, read as such a log."""
    for path in paths:
        if os.path.isfile(os.path.join(path, "results.jsonl")):
            continue
        if not (logs_ok and os.path.isfile(path)):
            raise ConfigError(f"no results store at {path}")


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ResultsStore

    if args.store_command == "gc" and args.keep_last is not None:
        _require_at_least(args, keep_last=0)
    _require_stores([args.dir])
    with ResultsStore(args.dir, fresh=False) as store:
        if args.store_command == "ls":
            entries = store.entries()
            rows = [
                (e.label or e.key[:12], e.workload, e.scheme, e.seed,
                 e.commits, e.execution_cycles, e.key[:12])
                for e in entries
            ]
            print(
                format_table(
                    ("label", "workload", "scheme", "seed", "commits",
                     "cycles", "key"),
                    rows,
                    title=f"{args.dir}: {len(entries)} stored runs",
                )
            )
            return 0
        # gc: drop entries matching the filters, then trim to the newest N.
        predicate = None
        if args.workload or args.scheme:
            def predicate(entry, _w=args.workload, _s=args.scheme):
                drops = (not _w or entry.workload == _w) and (
                    not _s or entry.scheme == _s
                )
                return not drops
        removed = store.prune(keep=args.keep_last, predicate=predicate)
        print(f"{args.dir}: removed {removed}, kept {len(store)}")
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    from repro.store import ResultsStore

    _require_stores(args.sources, logs_ok=True)
    with ResultsStore(args.dest, fresh=False) as store:
        report = store.merge(args.sources)
        print(f"{args.dest}: {report.format()}")
        print(f"{args.dest}: {len(store)} total entries")
    return 1 if report.conflicts else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.sim.remote import worker_main

    return worker_main(args.connect, worker_id=args.id, token=args.token)


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.core.overhead import OverheadModel

    cfg = SystemConfig()
    model = OverheadModel(l1=cfg.l1, n_subblocks=args.subblocks)
    print(model.describe())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.axis == "policy":
        fixed = [
            f"--{name}" for name in ("policy", "resolution", "arbitration", "counts")
            if getattr(args, name) is not None
        ]
        if fixed:
            raise ConfigError(
                f"--axis policy sweeps a fixed scheme × policy grid; "
                f"{', '.join(fixed)} cannot be combined with it"
            )
        return _cmd_sweep_policy(args, get_workload(args.benchmark, args.txns))
    from repro.analysis.sweeps import sweep_subblocks

    workload = get_workload(args.benchmark, args.txns)
    counts_arg = "1,2,4,8,16" if args.counts is None else args.counts
    try:
        counts = tuple(int(c) for c in counts_arg.split(","))
    except ValueError:
        raise ConfigError(
            f"--counts takes comma-separated integers, got {counts_arg!r}"
        ) from None
    store = _open_store(args)
    progress = _ProgressLine(len(counts))
    try:
        points = sweep_subblocks(
            workload, counts=counts, seed=args.seed,
            config=_base_config(args),
            executor=_executor_config(args, store=store, on_result=progress),
        )
    finally:
        progress.finish()
        if store is not None:
            store.close()
    baseline = points[0]
    rows = [
        (
            p.label,
            p.stats.conflicts.total,
            p.stats.conflicts.total_false,
            percent(p.result.false_reduction_over(baseline.result)),
            percent(p.result.speedup_over(baseline.result)),
        )
        for p in points
    ]
    print(
        format_table(
            ("config", "conflicts", "false", "false reduction", "improvement"),
            rows,
            title=f"Closed-loop sub-block sweep: {args.benchmark} "
            f"(vs {baseline.label})",
        )
    )
    return 0


def _cmd_sweep_policy(args: argparse.Namespace, workload) -> int:
    """Scheme × policy grid: the design-space explorer's head-to-head view."""
    from repro.analysis.sweeps import sweep_policy_matrix

    schemes = (
        DetectionScheme.ASF_BASELINE,
        DetectionScheme.SUBBLOCK,
    )
    policies = dict(POLICY_PRESETS)
    policies["stall"] = HtmPolicy(resolution=ConflictResolution.STALL_BACKOFF)
    store = _open_store(args)
    progress = _ProgressLine(len(schemes) * len(policies))
    try:
        points = sweep_policy_matrix(
            workload, schemes=schemes, policies=policies, seed=args.seed,
            config=default_system().with_kernel(args.kernel),
            executor=_executor_config(args, store=store, on_result=progress),
        )
    finally:
        progress.finish()
        if store is not None:
            store.close()
    by_label = {p.label: p for p in points}
    rows = []
    for scheme in schemes:
        for name, policy in policies.items():
            p = by_label[f"{scheme.value}×{name}"]
            rows.append(
                (
                    scheme.value,
                    name,
                    policy.describe(),
                    p.stats.txn_commits,
                    p.stats.conflicts.total,
                    percent(p.stats.conflicts.false_rate),
                    p.stats.stalls + p.stats.stall_aborts,
                    p.stats.execution_cycles,
                )
            )
    print(
        format_table(
            ("scheme", "policy", "point", "commits", "conflicts",
             "false rate", "stalls", "cycles"),
            rows,
            title=f"Scheme × policy matrix: {args.benchmark} "
            f"(seed {args.seed}, {args.txns} txns/core)",
        )
    )
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    """Print the supported policy matrix and mark the paper's ASF point."""
    preset_by_point = {
        (p.version_mgmt, p.conflict_detection, p.resolution): name
        for name, p in POLICY_PRESETS.items()
    }
    rows = []
    for vm in VersionMgmt:
        for cd in DetectionTiming:
            if vm is VersionMgmt.EAGER and cd is DetectionTiming.LAZY:
                continue  # invalid: in-place stores cannot defer detection
            for res in ConflictResolution:
                preset = preset_by_point.get((vm, cd, res), "")
                notes = []
                if preset:
                    notes.append(f"--policy {preset}")
                if preset == "asf":
                    notes.append("the paper's ASF machine")
                if cd is DetectionTiming.LAZY:
                    notes.append("--arbitration committer_wins|polite")
                rows.append(
                    (vm.value, cd.value, res.value, preset, "; ".join(notes))
                )
    print(
        format_table(
            ("version mgmt", "detection", "resolution", "preset", "notes"),
            rows,
            title="Supported HTM policy matrix (version management × "
            "conflict detection × resolution)",
        )
    )
    print(
        "\nEager version management + lazy detection is rejected: stores\n"
        "published in place need eager probes to stay correct.  The paper's\n"
        "ASF machine is the lazy-vm/eager-cd/requester_wins point (`--policy\n"
        "asf`, the default).  Stall/backoff parks the requester for a bounded\n"
        "number of turns before the deadlock-avoidance fallback abort;\n"
        "lazy-detection commits arbitrate committer-wins (or `polite`, where\n"
        "the committer publishes without aborting anyone and doomed readers\n"
        "fail their own commit-time validation)."
    )
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import ablation_dirty_state, ablation_forced_waw

    workload = get_workload(args.benchmark, args.txns)
    cfg = _base_config(args)
    executor = _executor_config(args)
    on, off = ablation_dirty_state(
        workload, seed=args.seed, config=cfg, executor=executor
    )
    with_rule, without = ablation_forced_waw(
        workload, seed=args.seed, config=cfg, executor=executor
    )
    print(
        format_table(
            ("variant", "commits", "conflicts", "cycles", "violations"),
            [
                (p.label, p.stats.txn_commits, p.stats.conflicts.total,
                 p.stats.execution_cycles, p.violations)
                for p in (on, off, with_rule, without)
            ],
            title=f"Design-choice ablations: {args.benchmark}",
        )
    )
    if off.violations:
        print(
            f"\nNote: 'dirty off' produced {off.violations} atomicity "
            "violations — it is broken hardware, shown for the ablation only."
        )
    return 0


def _cmd_save_scripts(args: argparse.Namespace) -> int:
    from repro.trace.scriptio import save_scripts

    _require_at_least(args, cores=1)
    workload = get_workload(args.benchmark, args.txns)
    scripts = workload.build(args.cores, args.seed)
    save_scripts(
        scripts, args.path,
        metadata={"benchmark": args.benchmark, "seed": args.seed,
                  "txns_per_core": args.txns},
    )
    print(f"wrote {args.path} ({sum(cs.n_txns for cs in scripts)} transactions)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.sim.runner import run_scripts
    from repro.trace.scriptio import load_scripts

    scripts = load_scripts(args.path)
    results = {}
    for scheme in ALL_SCHEMES if args.all_schemes else (
        DetectionScheme.ASF_BASELINE, DetectionScheme.SUBBLOCK,
        DetectionScheme.PERFECT,
    ):
        # The saved program defines the machine's core count.
        cfg = _apply_policy(
            default_system(scheme, args.subblocks, n_cores=len(scripts))
            .with_kernel(args.kernel),
            args,
        )
        results[scheme.value] = run_scripts(
            scripts, cfg, args.seed, workload_name=args.path,
            check_atomicity=args.check,
        )
    base = results["asf"]
    print(
        format_table(
            _RESULT_HEADERS,
            _result_rows(results, base),
            title=f"replay of {args.path}",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asf",
        description=(
            "ASF-style HTM simulator with speculative sub-blocking conflict "
            "detection (IPDPSW 2013 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the Table III benchmarks")
    p_list.set_defaults(func=_cmd_list)

    def policy_flags(p):
        p.add_argument(
            "--policy", choices=sorted(POLICY_PRESETS), default=None,
            help="HTM policy preset: the paper's ASF point (default), "
            "eager/eager LogTM-style, or lazy/lazy TCC-style "
            "(see `repro-asf policies`)",
        )
        p.add_argument(
            "--resolution",
            choices=[r.value for r in ConflictResolution], default=None,
            help="override the conflict-resolution axis of --policy",
        )
        p.add_argument(
            "--arbitration",
            choices=[a.value for a in LazyArbitration], default=None,
            help="override the lazy-commit arbitration axis of --policy "
            "(lazy detection only)",
        )

    def kernel_flag(p):
        p.add_argument(
            "--kernel", choices=KERNELS, default=SystemConfig().kernel,
            help="machine kernel implementation: the flat-array default or "
            "the reference object model (bit-identical results)",
        )

    def program_flags(p, bench=True):
        if bench:
            p.add_argument("benchmark", choices=BENCHMARK_NAMES)
        p.add_argument("--txns", type=int, default=200)
        p.add_argument("--seed", type=int, default=1)

    # Every flag goes only to the subcommands whose handler reads it.
    def common(p, bench=True, seeds=False, checkpoint=False, trace_dir=False):
        program_flags(p, bench)
        kernel_flag(p)
        policy_flags(p)
        p.add_argument(
            "--executor", metavar="SPEC", default="serial",
            help="execution backend: 'serial' (in-process reference, the "
            "default), 'process' (one forked loopback worker per core), "
            "'process:N' (N forked loopback workers; 1 runs in-process), "
            "'remote:PORT' (coordinator bound to 0.0.0.0:PORT; workers "
            "attach with `repro-asf worker`), 'remote:HOST:PORT', or "
            "'remote:HOSTS_FILE' (bind/launch lines; see docs/DISTRIBUTED.md)"
            "; every backend is bit-identical to serial",
        )
        if seeds:
            p.add_argument(
                "--seeds", type=int, default=1,
                help="repeat over N seeds (starting at --seed) and report "
                "each metric as mean ± stdev",
            )
        if checkpoint:
            p.add_argument(
                "--checkpoint", metavar="DIR", default=None,
                help="persist each completed run to a results store in DIR "
                "as it finishes",
            )
            p.add_argument(
                "--resume", action="store_true",
                help="with --checkpoint: keep DIR's prior contents and skip "
                "runs already stored (default: start DIR fresh)",
            )
        if trace_dir:
            p.add_argument(
                "--trace-dir", metavar="DIR", default=None,
                help="record every run's JSONL event trace into DIR and "
                "write a forensics .report.txt next to each trace",
            )

    p_run = sub.add_parser("run", help="run one benchmark on all systems")
    common(p_run, seeds=True, checkpoint=True, trace_dir=True)
    p_run.add_argument("--subblocks", type=int, default=4)
    p_run.add_argument("--check", action="store_true",
                       help="enable the atomicity checker")
    p_run.add_argument("--all-schemes", action="store_true",
                       help="include the coherence-decoupling comparator")
    p_run.add_argument(
        "--profile", action="store_true",
        help="wrap the run in cProfile: print the top-20 cumulative "
        "functions and a machine/engine/telemetry phase split (keep the "
        "default serial executor; subprocess work is invisible to the "
        "profiler)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_suite = sub.add_parser("suite", help="regenerate every table and figure")
    common(p_suite, bench=False, seeds=True, checkpoint=True, trace_dir=True)
    p_suite.set_defaults(func=_cmd_suite)

    p_trace = sub.add_parser(
        "trace", help="run one benchmark and export a JSONL event trace"
    )
    program_flags(p_trace)
    kernel_flag(p_trace)
    policy_flags(p_trace)
    p_trace.add_argument("path", help="output .jsonl file")
    p_trace.add_argument("--scheme", default="subblock",
                         choices=[s.value for s in ALL_SCHEMES])
    p_trace.add_argument("--subblocks", type=int, default=4)
    p_trace.add_argument("--accesses", action="store_true",
                         help="also trace per-access events (large)")
    p_trace.set_defaults(func=_cmd_trace)

    p_analyze = sub.add_parser(
        "analyze", help="conflict forensics from a recorded event trace"
    )
    p_analyze.add_argument("path", help="input .jsonl trace file")
    p_analyze.add_argument(
        "--fig", action="append", choices=["3", "4", "5", "all"],
        default=None,
        help="figure(s) to regenerate from the trace (repeatable; "
        "default: all)",
    )
    p_analyze.add_argument(
        "--out", metavar="DIR", default=None,
        help="write report.txt plus per-figure .tsv data into DIR instead "
        "of printing",
    )
    p_analyze.add_argument("--bins", type=int, default=10,
                           help="lifetime-histogram bins (Fig. 3)")
    p_analyze.add_argument("--top", type=int, default=8,
                           help="rows in the ranking tables")
    p_analyze.add_argument("--subblocks", type=int, default=4,
                           help="sub-block grain for the Fig. 5 histogram")
    p_analyze.add_argument("--cascade-window", type=int, default=5000,
                           help="abort-cascade linking window (cycles)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_store = sub.add_parser("store", help="inspect / prune a results store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_ls = store_sub.add_parser("ls", help="list stored runs")
    p_store_ls.add_argument("dir", help="results-store directory")
    p_store_ls.set_defaults(func=_cmd_store)
    p_store_gc = store_sub.add_parser(
        "gc", help="drop stored runs and compact the log"
    )
    p_store_gc.add_argument("dir", help="results-store directory")
    p_store_gc.add_argument(
        "--keep-last", type=int, default=None, metavar="N",
        help="keep only the N most recently recorded surviving runs",
    )
    p_store_gc.add_argument("--workload", default=None,
                            help="drop runs of this workload")
    p_store_gc.add_argument("--scheme", default=None,
                            help="drop runs of this scheme")
    p_store_gc.set_defaults(func=_cmd_store)
    p_store_merge = store_sub.add_parser(
        "merge",
        help="union other checkpoint dirs into DEST (idempotent: "
        "content-hashed keys dedup re-runs; divergent payloads are "
        "reported and overwritten last-writer-wins)",
    )
    p_store_merge.add_argument("dest", help="destination store directory "
                               "(created if missing)")
    p_store_merge.add_argument("sources", nargs="+",
                               help="store directories (or results.jsonl "
                               "files) to merge in, in order")
    p_store_merge.set_defaults(func=_cmd_store_merge)

    p_worker = sub.add_parser(
        "worker",
        help="join a remote sweep: connect to a coordinator, execute "
        "batches until told to stop (see docs/DISTRIBUTED.md)",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address, HOST:PORT with a port in 0-65535 "
        "(printed by the remote executor)",
    )
    p_worker.add_argument(
        "--id", default=None,
        help="worker identity for provenance stamping (default: host:pid)",
    )
    p_worker.add_argument(
        "--token", default="",
        help="shared secret echoed in the hello.  A coordinator checks it "
        "only when it holds one: the token it generates for the workers "
        "it launches (handed to them at launch) or an "
        "ExecConfig.token set through the library.  A CLI coordinator on "
        "remote:PORT holds none and accepts any peer (see ROADMAP item 5)",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_ovh = sub.add_parser("overhead", help="Section IV-E hardware cost model")
    p_ovh.add_argument("--subblocks", type=int, default=4)
    p_ovh.set_defaults(func=_cmd_overhead)

    p_sweep = sub.add_parser(
        "sweep", help="closed-loop sub-block or policy-matrix sweep"
    )
    common(p_sweep, checkpoint=True)
    p_sweep.add_argument(
        "--counts", default=None,
        help="sub-block counts to sweep (default: 1,2,4,8,16; --axis "
        "subblocks only)",
    )
    p_sweep.add_argument(
        "--axis", choices=("subblocks", "policy"), default="subblocks",
        help="sweep axis: sub-block count (default) or the scheme × "
        "policy matrix",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_pol = sub.add_parser(
        "policies", help="print the supported HTM policy matrix"
    )
    p_pol.set_defaults(func=_cmd_policies)

    p_abl = sub.add_parser("ablate", help="dirty-state / forced-WAW ablations")
    common(p_abl)
    p_abl.set_defaults(func=_cmd_ablate)

    p_save = sub.add_parser("save-scripts", help="compile + serialize a program")
    program_flags(p_save)
    p_save.add_argument("path")
    p_save.add_argument("--cores", type=int, default=8)
    p_save.set_defaults(func=_cmd_save_scripts)

    p_replay = sub.add_parser("replay", help="simulate a serialized program")
    p_replay.add_argument("path")
    p_replay.add_argument("--seed", type=int, default=1)
    kernel_flag(p_replay)
    p_replay.add_argument("--subblocks", type=int, default=4)
    p_replay.add_argument("--check", action="store_true")
    p_replay.add_argument("--all-schemes", action="store_true")
    policy_flags(p_replay)
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorkloadError) as exc:
        print(f"repro-asf: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped to a consumer that closed early (e.g. `head`).
        # Redirect stdout to devnull so the interpreter's shutdown flush
        # does not raise again, and exit cleanly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
