"""CLI smoke tests."""

import argparse
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.trace.scriptio import save_scripts
from repro.workloads.registry import get_workload


def _without_key(line, key):
    return json.dumps({k: v for k, v in json.loads(line).items() if k != key})


#: Malformed 8-core script files for ``replay``: each case maps the saved
#: file's lines (header first, one row per core) to the file's new lines,
#: and names a fragment the one error line must contain.
MALFORMED_SCRIPTS = {
    "empty-file": (lambda lines: [], ":1: empty file"),
    "non-json-header": (lambda lines: ["#!not json", *lines[1:]], ":1: not JSON"),
    "header-without-n_cores": (
        lambda lines: [_without_key(lines[0], "n_cores"), *lines[1:]],
        ":1: missing field 'n_cores'",
    ),
    "row-without-txns": (
        lambda lines: [lines[0], _without_key(lines[1], "txns"), *lines[2:]],
        ":2: missing field 'txns'",
    ),
    "torn-final-line": (
        lambda lines: [*lines[:-1], lines[-1][: len(lines[-1]) // 2]],
        ":9: not JSON",
    ),
    "reordered-rows": (
        lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
        "digest mismatch",
    ),
    "truncated-file": (lambda lines: lines[:-1], "header promises 8 cores, found 7"),
}

#: Malformed traces for ``analyze``: each case maps a recorded trace's
#: lines (header first, as bytes) to the file's new lines.
MALFORMED_TRACES = {
    "non-object-line": lambda lines: [lines[0], b"[1]\n", *lines[1:]],
    "non-utf8-header": lambda lines: [
        lines[0].replace(b'"metadata":{', b'"metadata":{"\xff":0,'), *lines[1:]
    ],
    "string-time": lambda lines: [
        lines[0],
        b'{"event":"txn_start","core":0,"time":"5","attempt":1,"static_id":0}\n',
        *lines[1:],
    ],
    "list-event-kind": lambda lines: [lines[0], b'{"event":["txn_start"]}\n', *lines[1:]],
    "unknown-abort-cause": lambda lines: [
        lines[0],
        b'{"event":"txn_abort","core":0,"time":5,"cause":"bogus","wasted_cycles":1}\n',
        *lines[1:],
    ],
    "string-trace-accesses": lambda lines: [
        lines[0].replace(b'"trace_accesses":false', b'"trace_accesses":"false"'),
        *lines[1:],
    ],
}


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["run", "vacation"],
            ["suite"],
            ["overhead"],
            ["sweep", "ssca2"],
            ["ablate", "genome"],
            ["save-scripts", "ssca2", "x.jsonl"],
            ["replay", "x.jsonl"],
            ["trace", "kmeans", "x.jsonl"],
            ["analyze", "x.jsonl", "--fig", "3", "--fig", "4"],
            ["store", "ls", "somedir"],
            ["store", "gc", "somedir", "--keep-last", "5"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bayes"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["save-scripts", "ssca2", "x.jsonl", "--executor", "serial"],
            ["save-scripts", "ssca2", "x.jsonl", "--policy", "lazy"],
            ["save-scripts", "ssca2", "x.jsonl", "--kernel", "object"],
            ["trace", "kmeans", "x.jsonl", "--executor", "serial"],
        ],
        ids=lambda argv: argv[0] + argv[3],
    )
    def test_flags_a_handler_ignores_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestInputErrors:
    """Bad input ends in one error line and status 2, never a traceback."""

    @pytest.mark.parametrize(
        "spec", ["bogus", "remote:99999", "process:100000000000000000000",
                 "remote", "remote:0", "remote:127.0.0.1:0"]
    )
    def test_bad_executor_spec(self, capsys, spec):
        assert main(["run", "kmeans", "--txns", "4", "--executor", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-asf: error: ")
        assert spec in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "address", ["bogus", "host:", "127.0.0.1:99999"]
    )
    def test_bad_worker_address(self, capsys, address):
        assert main(["worker", "--connect", address]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-asf: error: ")
        assert address in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["directory", "non-utf8"])
    def test_unreadable_hosts_file(self, tmp_path, capsys, case):
        path = tmp_path / "hosts"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"local\n\xff\xfe\n")
        spec = f"remote:{path}"
        assert main(["run", "kmeans", "--txns", "4", "--executor", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-asf: error: ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_local_worker_without_fork(self, tmp_path, capsys, monkeypatch):
        """A `local` worker is forked, so a platform without os.fork
        rejects it when the hosts file is parsed and names the template
        line to use instead, which parses there."""
        from repro.sim.executors import parse_executor_spec

        path = tmp_path / "hosts"
        path.write_text("local\n")
        monkeypatch.delattr(os, "fork")
        spec = f"remote:{path}"
        assert main(["run", "kmeans", "--txns", "4", "--executor", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-asf: error: ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        template = "python -m repro.cli worker --connect {addr} --token {token}"
        assert f"`{template}`" in captured.err
        path.write_text(template + "\n")
        assert parse_executor_spec(spec).launch == (template,)

    @pytest.mark.parametrize("case", list(MALFORMED_SCRIPTS))
    def test_malformed_script_file(self, tmp_path, capsys, case):
        mutate, fragment = MALFORMED_SCRIPTS[case]
        path = tmp_path / "program.jsonl"
        save_scripts(get_workload("ssca2", 2).build(8, 1), path)
        path.write_text("\n".join(mutate(path.read_text().splitlines())))
        assert main(["replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro-asf: error: {path}")
        assert fragment in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case", list(MALFORMED_TRACES))
    def test_malformed_trace_file(self, tmp_path, capsys, case):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "kmeans", str(path), "--txns", "4"]) == 0
        capsys.readouterr()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(MALFORMED_TRACES[case](lines)))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro-asf: error: {path}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, name",
        [("replay", "missing.jsonl"), ("analyze", "missing.jsonl"), ("analyze", "")],
        ids=["replay-missing", "analyze-missing", "analyze-directory"],
    )
    def test_missing_input_file(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-asf: error: cannot read ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("counts", ["1,x", ""], ids=["1,x", "empty"])
    def test_bad_sweep_counts(self, capsys, counts):
        assert main(["sweep", "ssca2", "--txns", "4", "--counts", counts]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro-asf: error: --counts takes comma-separated integers, "
            f"got {counts!r}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--policy", "lazy"],
        ["--policy", "asf"],
        ["--resolution", "older_wins"],
        ["--arbitration", "polite"],
        ["--counts", "2,8"],
        ["--policy", "lazy", "--resolution", "older_wins", "--counts", "2,8"],
    ], ids=["policy", "policy-asf", "resolution", "arbitration", "counts", "all"])
    def test_policy_sweep_rejects_its_fixed_axes(self, capsys, flags):
        """The policy grid sets the policy and sub-block count of every
        point itself, so a flag that would set them is refused, not
        ignored."""
        argv = ["sweep", "ssca2", "--txns", "10", "--axis", "policy", *flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        named = ", ".join(f for f in flags if f.startswith("--"))
        assert captured.err == (
            "repro-asf: error: --axis policy sweeps a fixed scheme × policy "
            f"grid; {named} cannot be combined with it\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["run", "kmeans", "--txns", "4", "--seeds", "0"], "--seeds must be at least 1, got 0"),
        (["suite", "--txns", "4", "--seeds", "0"], "--seeds must be at least 1, got 0"),
        (["save-scripts", "kmeans", "{program}", "--txns", "4", "--cores", "0"],
         "--cores must be at least 1, got 0"),
        (["save-scripts", "kmeans", "{program}", "--txns", "4", "--cores", "-2"],
         "--cores must be at least 1, got -2"),
        (["analyze", "{trace}", "--top", "-1"], "--top must be at least 0, got -1"),
        (["analyze", "{trace}", "--cascade-window", "-1"],
         "--cascade-window must be at least 0, got -1"),
        (["analyze", "{trace}", "--fig", "4", "--bins", "0"], "--bins must be at least 1, got 0"),
        (["analyze", "{trace}", "--subblocks", "3"],
         "--subblocks must divide the trace's 64-byte line, got 3"),
        (["run", "labyrinth", "--txns", "-5"], "txns_per_core must be positive"),
        (["save-scripts", "labyrinth", "{program}", "--txns", "0", "--cores", "2"],
         "txns_per_core must be positive"),
    ], ids=["run-seeds", "suite-seeds", "save-scripts-cores", "save-scripts-negative-cores",
            "analyze-top", "analyze-cascade-window", "analyze-bins", "analyze-subblocks",
            "run-labyrinth-txns", "save-scripts-labyrinth-txns"])
    def test_count_out_of_range(self, tmp_path, capsys, argv, message):
        """A count below its bound is refused before any work starts:
        nothing runs, prints or is written."""
        trace = tmp_path / "trace.jsonl"
        if "{trace}" in argv:
            assert main(["trace", "kmeans", str(trace), "--txns", "4"]) == 0
            capsys.readouterr()
        listing = sorted(tmp_path.rglob("*"))
        argv = [a.format(program=tmp_path / "program.jsonl", trace=trace) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro-asf: error: {message}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == listing

    @pytest.mark.parametrize("command, target, flags", [
        ("ls", "missing", []), ("gc", "missing", []), ("merge", "missing", []),
        ("ls", "notes", []), ("gc", "notes", []), ("merge", "notes", []),
        ("gc", "store", ["--keep-last", "-1"]),
    ], ids=["ls", "gc", "merge", "ls-non-store", "gc-non-store", "merge-non-store",
            "gc-negative-keep-last"])
    def test_missing_store_directory(self, tmp_path, capsys, command, target, flags):
        """A path that holds no results store (missing, or a directory
        without a results log) and a negative ``--keep-last`` are refused
        before anything is opened: no path is created or written."""
        from repro.store import ResultsStore

        (tmp_path / "notes").mkdir()
        (tmp_path / "notes" / "notes.txt").write_text("not a store\n")
        ResultsStore(str(tmp_path / "store")).close()
        path, dest = tmp_path / target, tmp_path / "dest"
        listing = sorted(tmp_path.rglob("*"))
        args = [str(dest), str(path)] if command == "merge" else [str(path)]
        assert main(["store", command, *args, *flags]) == 2
        captured = capsys.readouterr()
        message = "--keep-last must be at least 0, got -1" if flags else (
            f"no results store at {path}")
        assert captured.err == f"repro-asf: error: {message}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == listing


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vacation" in out and "utilitymine" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--subblocks", "4"]) == 0
        out = capsys.readouterr().out
        assert "1.17%" in out

    def test_run_small(self, capsys):
        assert main(["run", "ssca2", "--txns", "12", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "asf" in out and "subblock" in out and "perfect" in out
        assert "improvement" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "ssca2", "--txns", "10", "--counts", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "N=1" in out and "N=4" in out

    def test_ablate_small(self, capsys):
        assert main(["ablate", "ssca2", "--txns", "10"]) == 0
        out = capsys.readouterr().out
        assert "dirty on" in out and "forced-WAW" in out

    def test_save_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "p.jsonl")
        assert main(["save-scripts", "ssca2", path, "--txns", "8"]) == 0
        assert main(["replay", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "subblock" in out

    def test_replay_uses_the_saved_core_count(self, tmp_path, capsys):
        path = str(tmp_path / "k4.jsonl")
        assert main(["save-scripts", "kmeans", path, "--txns", "4",
                     "--cores", "4"]) == 0
        assert main(["replay", path, "--check"]) == 0
        out = capsys.readouterr().out
        assert f"replay of {path}" in out and "perfect" in out

    def test_run_all_schemes(self, capsys):
        assert main(["run", "ssca2", "--txns", "8", "--all-schemes"]) == 0
        assert "decoupled" in capsys.readouterr().out

    def test_run_profile(self, capsys):
        assert main(["run", "ssca2", "--txns", "8", "--profile"]) == 0
        out = capsys.readouterr().out
        # Normal result table still prints, followed by the profile report
        # with its machine/engine/telemetry phase attribution.
        assert "improvement" in out
        assert "cumulative" in out
        assert "phase split" in out
        assert "machine" in out and "engine" in out and "telemetry" in out

    def test_run_kernel_flag(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["run", "vacation"]).kernel == "flat"
        for kernel in ("object", "flat"):
            assert parser.parse_args(
                ["run", "vacation", "--kernel", kernel]
            ).kernel == kernel

    def test_every_kernel_flag_defaults_to_the_config_kernel(self):
        """No subcommand may silently run a non-default kernel."""
        from repro.config import SystemConfig

        def walk(parser, path):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        yield from walk(sub, path + (name,))
                elif "--kernel" in action.option_strings:
                    yield path, action.default

        found = dict(walk(build_parser(), ()))
        assert {("run",), ("suite",), ("replay",), ("trace",)} <= set(found)
        assert found == {path: SystemConfig().kernel for path in found}

    def test_package_exports(self):
        import repro

        assert repro.__version__
        assert "vacation" in repro.BENCHMARK_NAMES

    def test_lazy_package_api(self):
        """``repro``'s public names resolve on first use, and the
        package still behaves as if it had imported them all."""
        import repro

        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert set(repro.__all__) <= set(dir(repro))
        assert namespace["run_many"] is repro.run_many
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_worker_imports_only_the_simulator(self):
        """A worker never loads the analysis, store or trace layers or
        the hardware cost model, not even to parse its arguments."""
        import socket
        import subprocess
        import sys

        with socket.socket() as closed:  # bound, never listening
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "repro.cli",
                 "worker", "--connect", f"127.0.0.1:{port}"],
                capture_output=True, text=True, timeout=60,
            )
        assert proc.returncode == 1 and "cannot reach" in proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert {"repro.config", "repro.sim.remote"} <= imported
        heavy = sorted(
            name for name in imported
            if name.startswith(("repro.analysis", "repro.store", "repro.trace"))
            or name == "repro.core.overhead"
        )
        assert heavy == []

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        import repro

        text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
        assert match and match.group(1) == repro.__version__


class TestTraceAnalyze:
    def test_trace_then_analyze(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        assert main(["trace", "kmeans", path, "--txns", "30"]) == 0
        out = capsys.readouterr().out
        assert "schema repro-asf-trace v1" in out
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "Trace-derived run counters" in out
        assert "Figure 3" in out and "Figure 4" in out and "Figure 5" in out
        assert "Forensics report" in out

    def test_trace_counts_events_without_reading_the_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.analysis.trace import TraceReader

        opened = []
        init = TraceReader.__init__

        def counting_init(reader, *args, **kwargs):
            opened.append(args)
            init(reader, *args, **kwargs)

        monkeypatch.setattr(TraceReader, "__init__", counting_init)
        path = str(tmp_path / "ev.jsonl")
        assert main(["trace", "kmeans", path, "--txns", "30"]) == 0
        assert opened == []
        written = int(capsys.readouterr().out.split(": ")[1].split()[0])
        with TraceReader(path) as reader:
            assert written == sum(1 for _ in reader)

    def test_analyze_fig_selection(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        assert main(["trace", "kmeans", path, "--txns", "30"]) == 0
        capsys.readouterr()
        assert main(["analyze", path, "--fig", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 3" not in out

    def test_analyze_out_dir(self, tmp_path, capsys):
        path = str(tmp_path / "ev.jsonl")
        outdir = tmp_path / "figs"
        assert main(["trace", "kmeans", path, "--txns", "30"]) == 0
        assert main(["analyze", path, "--out", str(outdir)]) == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["fig3.tsv", "fig4.tsv", "fig5.tsv", "report.txt"]
        assert "Forensics report" in (outdir / "report.txt").read_text()
        header, *rows = (outdir / "fig4.tsv").read_text().splitlines()
        assert header.split("\t") == ["line_index", "line_addr",
                                      "false_conflicts"]

    def test_analyze_out_decodes_the_trace_once(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.analysis.trace import TraceReader

        path = str(tmp_path / "ev.jsonl")
        assert main(["trace", "kmeans", path, "--txns", "30"]) == 0
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        printed = capsys.readouterr().out
        opened = []
        init = TraceReader.__init__

        def counting_init(reader, *args, **kwargs):
            opened.append(args)
            init(reader, *args, **kwargs)

        monkeypatch.setattr(TraceReader, "__init__", counting_init)
        outdir = tmp_path / "figs"
        assert main(["analyze", path, "--out", str(outdir)]) == 0
        assert len(opened) == 1
        # The report on disk is the one ``analyze`` prints.
        assert (outdir / "report.txt").read_text() == printed

    def test_analyze_rejects_non_trace_file(self, tmp_path, capsys):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"benchmark":"x"}\n')
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-asf: error: ")
        assert "no trace schema header" in err
        assert "Traceback" not in err

    def test_run_trace_dir_records_and_analyzes(self, tmp_path, capsys):
        trd = tmp_path / "traces"
        assert main(["run", "ssca2", "--txns", "10",
                     "--trace-dir", str(trd)]) == 0
        out = capsys.readouterr().out
        assert "3 traces recorded and analyzed" in out
        names = sorted(p.name for p in trd.iterdir())
        assert names == [
            "ssca2_asf.jsonl", "ssca2_asf.report.txt",
            "ssca2_perfect.jsonl", "ssca2_perfect.report.txt",
            "ssca2_subblock.jsonl", "ssca2_subblock.report.txt",
        ]
        report = (trd / "ssca2_subblock.report.txt").read_text()
        assert "Forensics report" in report


class TestStoreCommands:
    def test_ls_and_gc(self, tmp_path, capsys):
        ckpt = str(tmp_path / "store")
        assert main(["run", "ssca2", "--txns", "10", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["store", "ls", ckpt]) == 0
        out = capsys.readouterr().out
        assert "3 stored runs" in out and "subblock" in out
        assert main(["store", "gc", ckpt, "--keep-last", "1"]) == 0
        assert "removed 2, kept 1" in capsys.readouterr().out
        assert main(["store", "ls", ckpt]) == 0
        assert "1 stored runs" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["ls", "merge"])
    def test_wrong_shape_rows_end_the_log(self, tmp_path, capsys, command):
        """A row that is not a stored run counts as a corrupt line: the
        command sees the runs before it and never crashes on it."""
        ckpt = tmp_path / "store"
        assert main(["run", "ssca2", "--txns", "10", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        first, *rest = (ckpt / "results.jsonl").read_bytes().splitlines(keepends=True)
        rows = (b'{"key": "a", "summary": 5}\n', b'{"key": 5, "summary": {}}\n',
                b"\xff\xfe\n")
        for n, row in enumerate(rows):
            store = tmp_path / f"bad{n}"
            store.mkdir()
            (store / "results.jsonl").write_bytes(b"".join([first, row, *rest]))
            if command == "ls":
                assert main(["store", "ls", str(store)]) == 0
                assert "1 stored runs" in capsys.readouterr().out
            else:
                dest = tmp_path / f"dest{n}"
                assert main(["store", "merge", str(dest), str(store)]) == 0
                assert "1 total entries" in capsys.readouterr().out
                assert (dest / "results.jsonl").read_bytes() == first

    def test_gc_scheme_filter(self, tmp_path, capsys):
        ckpt = str(tmp_path / "store")
        assert main(["run", "ssca2", "--txns", "10", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["store", "gc", ckpt, "--scheme", "perfect"]) == 0
        assert "removed 1, kept 2" in capsys.readouterr().out


class TestCheckpoint:
    def test_run_checkpoint_then_resume_identical(self, tmp_path, capsys):
        ckpt = str(tmp_path / "store")
        argv = ["run", "ssca2", "--txns", "10", "--checkpoint", ckpt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "store" / "results.jsonl").exists()
        assert (tmp_path / "store" / "manifest.json").exists()
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_without_resume_store_starts_fresh(self, tmp_path):
        from repro.store import ResultsStore

        ckpt = str(tmp_path / "store")
        assert main(["run", "ssca2", "--txns", "10", "--checkpoint", ckpt]) == 0
        assert main(
            ["run", "ssca2", "--txns", "8", "--checkpoint", ckpt]
        ) == 0
        with ResultsStore(ckpt) as store:
            # Only the second invocation's 3 runs survive the wipe.
            assert len(store) == 3

    def test_sweep_checkpoint(self, tmp_path, capsys):
        from repro.store import ResultsStore

        ckpt = str(tmp_path / "store")
        assert main(
            ["sweep", "ssca2", "--txns", "8", "--counts", "1,4",
             "--checkpoint", ckpt]
        ) == 0
        assert "N=4" in capsys.readouterr().out
        with ResultsStore(ckpt) as store:
            assert len(store) == 2

    def test_seeded_run_checkpoint(self, tmp_path, capsys):
        ckpt = str(tmp_path / "store")
        argv = ["run", "ssca2", "--txns", "8", "--seeds", "2",
                "--checkpoint", ckpt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "mean ± stdev" in first
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestSeedFigures:
    def test_suite_seeds_simulates_each_cell_once(self, capsys, monkeypatch):
        """The suite's runs are the first seed of the sweep: ten
        benchmarks × three systems × two seeds is 60 simulations."""
        from repro.sim import parallel

        execute = parallel.execute_spec
        cells = []

        def counting(spec):
            cells.append((spec.workload, spec.config.htm.scheme, spec.seed))
            return execute(spec)

        monkeypatch.setattr(parallel, "execute_spec", counting)
        assert main(["suite", "--txns", "4", "--seeds", "2"]) == 0
        assert "mean ± stdev over 2 seeds" in capsys.readouterr().out
        assert len(cells) == len(set(cells)) == 60

    def test_suite_seeds_renders_error_bar_figures(self, capsys):
        assert main(["suite", "--txns", "6", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "mean ± stdev over 2 seeds" in out
        # The error-bar editions of the headline figures are present.
        assert "Figure 9: Percentage of overall conflict reduction, mean" in out
        assert "Figure 10: Improvement of overall execution time, mean" in out
        assert "Commit rate per system" in out
        assert "% ± " in out


class TestPolicyCli:
    def test_policies_prints_matrix(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "version mgmt" in out and "resolution" in out
        assert "the paper's ASF machine" in out
        assert "stall_backoff" in out and "committer_wins" in out
        # The invalid axis combination is documented, not listed.
        assert out.count("requester_wins") >= 3

    def test_policy_flags_parse_everywhere(self):
        parser = build_parser()
        for argv in (
            ["run", "kmeans", "--policy", "lazy"],
            ["run", "kmeans", "--resolution", "stall_backoff"],
            ["suite", "--policy", "eager"],
            ["sweep", "kmeans", "--axis", "policy"],
            ["trace", "kmeans", "x.jsonl", "--policy", "lazy"],
            ["replay", "x.jsonl", "--resolution", "older_wins"],
            ["ablate", "kmeans", "--policy", "eager"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "kmeans", "--policy", "tcc"])

    def test_run_with_stall_resolution(self, capsys):
        assert main(
            ["run", "ssca2", "--txns", "10",
             "--resolution", "stall_backoff"]
        ) == 0
        out = capsys.readouterr().out
        assert "asf" in out and "improvement" in out

    def test_run_with_lazy_policy_object_kernel_matches_flat(self, capsys):
        argv = ["run", "ssca2", "--txns", "10", "--policy", "lazy"]
        assert main(argv + ["--kernel", "flat"]) == 0
        flat_out = capsys.readouterr().out
        assert main(argv + ["--kernel", "object"]) == 0
        assert capsys.readouterr().out == flat_out

    def test_sweep_policy_axis_renders_matrix(self, capsys):
        assert main(
            ["sweep", "ssca2", "--txns", "10", "--axis", "policy"]
        ) == 0
        out = capsys.readouterr().out
        assert "Scheme × policy matrix" in out
        for label in ("asf", "subblock", "eager", "lazy", "stall"):
            assert label in out
        assert "lazy-vm/eager-cd/stall_backoff" in out
