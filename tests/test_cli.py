"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Wolkotte" in out
        assert "rtl" in out and "sequential" in out

    def test_layout(self, capsys):
        assert main(["layout"]) == 0
        out = capsys.readouterr().out
        assert "2112" in out

    def test_layout_fields_and_depth(self, capsys):
        assert main(["layout", "--queue-depth", "2", "--fields"]) == 0
        out = capsys.readouterr().out
        assert "720" in out  # shallow queues
        assert "input_queues" in out

    def test_resources(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "7053" in out and "139" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--width", "3", "--height", "3", "--cycles", "120",
             "--load", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "simulated cycles/s" in out
        assert "delta cycles" in out

    def test_simulate_cycle_engine(self, capsys):
        assert main(
            ["simulate", "--engine", "cycle", "--width", "2", "--height", "2",
             "--cycles", "60"]
        ) == 0
        assert "cycle engine" in capsys.readouterr().out

    def test_simulate_batch_lanes(self, capsys):
        assert main(
            ["simulate", "--engine", "batch", "--lanes", "3", "--width", "3",
             "--height", "3", "--cycles", "80", "--load", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch engine: 3 lanes" in out
        assert "lane 2:" in out and "drained after" in out

    def test_simulate_lanes_need_batch_engine(self, capsys):
        assert main(["simulate", "--lanes", "2", "--cycles", "10"]) == 2
        assert "--lanes requires --engine batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, needs",
        [
            # Tiles run in lockstep in one process: these flags are gone,
            # and argparse refuses them before any path is chosen.
            ("--transport process", "unrecognized arguments: --transport"),
            ("--link-latency 2", "unrecognized arguments: --link-latency"),
            (
                "--engine batch --scheduler roundrobin",
                "--scheduler requires --engine sequential --kernel python "
                "or --partitions K",
            ),
            (
                "--scheduler roundrobin",  # the compiled engine has one order
                "--scheduler requires --engine sequential --kernel python "
                "or --partitions K",
            ),
            ("--fast-forward", "--fast-forward requires --engine batch"),
            (
                "--engine batch --stream --fast-forward",
                "--fast-forward requires --engine batch without --stream",
            ),
            ("--chunk 7", "--chunk requires --stream"),
        ],
        ids=["transport", "link-latency", "scheduler", "scheduler-compiled",
             "fast-forward", "fast-forward+stream", "chunk"],
    )
    def test_simulate_refuses_a_flag_its_path_ignores(self, capsys, flags, needs):
        """A flag the chosen path never reads is a usage error naming
        what it needs — not a silent run of the default path."""
        try:
            rc = main(["simulate", "--cycles", "10"] + flags.split())
        except SystemExit as exc:  # argparse: an unknown flag
            rc = exc.code
        assert rc == 2
        captured = capsys.readouterr()
        assert needs in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("simulate --cycles -5", "--cycles"),
            ("simulate --engine batch --lanes 0", "--lanes"),
            ("simulate --load -0.1", "--load"),
            ("simulate --load 1.5", "--load"),
            ("faults campaign --faults -1", "--faults"),
            ("faults campaign --spacing 0", "--spacing"),
        ],
        ids=["cycles", "lanes", "load-negative", "load-above-one", "faults", "spacing"],
    )
    def test_out_of_range_number_is_a_usage_error(self, capsys, argv, flag):
        """A number outside its range is refused at parse time: exit 2
        and one error line naming the flag, before anything runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be" in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""

    def test_simulate_streamed_prints_cpu_column_and_rejects_bad_chunk(self, capsys):
        args = ["simulate", "--stream", "--engine", "batch", "--lanes", "2",
                "--width", "3", "--height", "3", "--cycles", "80"]
        assert main(args + ["--chunk", "32"]) == 0
        out = capsys.readouterr().out
        assert "batch engine (streamed): 2 lane(s)" in out and "cpu s" in out
        for chunk in ("0", "-3"):
            assert main(args + ["--chunk", chunk]) == 2
            assert "--chunk must be >= 1" in capsys.readouterr().err

    def test_trace(self, tmp_path, capsys):
        out_file = tmp_path / "trace.vcd"
        assert main(["trace", "--out", str(out_file), "--cycles", "20"]) == 0
        text = out_file.read_text()
        assert "$enddefinitions" in text
        assert "noc.r0" in text

    def test_trace_bad_filter(self, capsys):
        assert main(["trace", "--filter", "zzz_nothing", "--cycles", "5"]) == 1

    def test_experiments_delegation(self, capsys):
        assert main(["experiments", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out


class TestCliExitCodes:
    """Simulation failures must exit nonzero — scripts and CI gate on
    the exit code, not on scraping stderr."""

    def test_simulate_failure_exits_nonzero(self, monkeypatch, capsys):
        from repro.traffic import NetworkOverloadError
        from repro.traffic.stimuli import TrafficDriver

        def bomb(self, cycles):
            raise NetworkOverloadError("source 3 stalled for 1000 cycles")

        monkeypatch.setattr(TrafficDriver, "run", bomb)
        assert main(
            ["simulate", "--width", "3", "--height", "3", "--cycles", "20"]
        ) == 1
        err = capsys.readouterr().err
        assert "simulation failed" in err
        assert "NetworkOverloadError" in err

    @staticmethod
    def _fake_campaign(recovery_rate, recovery_exhausted=False):
        class _Report:
            detected = 10
            undetected = 0

            def render(self):
                return "fake campaign report"

        report = _Report()
        report.recovery_rate = recovery_rate
        report.recovery_exhausted = recovery_exhausted
        report.detection_rate = 1.0
        return report

    def test_faults_below_min_recovery_exits_nonzero(self, monkeypatch, capsys):
        import repro.faults

        monkeypatch.setattr(
            repro.faults, "run_campaign",
            lambda cfg: self._fake_campaign(recovery_rate=0.5),
        )
        assert main(["faults", "campaign", "--faults", "5"]) == 1
        assert "below the --min-recovery threshold" in capsys.readouterr().err

    def test_faults_min_recovery_threshold_is_tunable(self, monkeypatch, capsys):
        import repro.faults

        monkeypatch.setattr(
            repro.faults, "run_campaign",
            lambda cfg: self._fake_campaign(recovery_rate=0.5),
        )
        assert main(
            ["faults", "campaign", "--faults", "5", "--min-recovery", "0.4"]
        ) == 0

    def test_faults_recovery_exhausted_exits_nonzero(self, monkeypatch, capsys):
        import repro.faults

        monkeypatch.setattr(
            repro.faults, "run_campaign",
            lambda cfg: self._fake_campaign(
                recovery_rate=1.0, recovery_exhausted=True
            ),
        )
        assert main(["faults", "campaign", "--faults", "5"]) == 1
        assert "recovery budget exhausted" in capsys.readouterr().err


class TestSimulateReportLines:
    def test_sequential_kernel_request_says_auto_binds_the_body(self, capsys):
        for kernel in ("levelized", "jit"):
            rc = main(["simulate", "--engine", "sequential", "--kernel", kernel,
                       "--cycles", "10"])
            assert rc == 2
            err = capsys.readouterr().err
            assert "supports kernel auto|python" in err
            assert "auto already binds the generated-C body" in err
            assert "--engine batch" not in err

    def test_sequential_engine_prints_its_kernel_lines(self, request, capsys):
        """The default engine says which statement of the method runs,
        how it was driven, and counts the same deltas either way — the
        Python model under either scheduler included."""
        from repro.kernels import probe_backends

        args = ["simulate", "--width", "3", "--height", "3", "--cycles", "150"]

        def run(extra):
            assert main(args + extra) == 0
            lines = capsys.readouterr().out.splitlines()
            (deltas,) = [ln for ln in lines if ln.startswith("delta cycles:")]
            (ran,) = [ln for ln in lines if ln.startswith("kernel run: ")]
            return lines[0], ran, deltas

        first, ran, deltas = run([])
        if probe_backends()["cffi"] == "ok":
            assert first == "kernel: jit (generated C); traffic: C scan"
            assert ran.startswith("kernel run: chunked; activity: ")
        for extra in (["--kernel", "python"],
                      ["--kernel", "python", "--scheduler", "roundrobin"]):
            first, ran, model_deltas = run(extra)
            assert first.startswith(
                "kernel: python (Python model; kernel='python' requested); "
            )
            assert ran == (
                "kernel run: stepping per cycle "
                "(the engine has no generated-C body)"
            )
            assert model_deltas == deltas
        request.getfixturevalue("no_cc")
        first, _, model_deltas = run([])
        assert first.startswith("kernel: python (Python model; no C compiler found")
        assert model_deltas == deltas

    @pytest.mark.parametrize("pin", ["env", "flag"])
    def test_kernel_line_names_the_body_that_runs(self, request, capsys, pin):
        """A host without a C compiler and ``--kernel python`` run golden
        lanes: same per-lane lines, and the ``kernel:`` line says so.  Without a compiler a named C tier is refused, not swapped."""
        args = ["simulate", "--engine", "batch", "--lanes", "2", "--width", "3",
                "--height", "3", "--cycles", "80"]
        assert main(args) == 0
        reference = capsys.readouterr().out
        if pin == "env":
            request.getfixturevalue("no_cc")
            assert main(args + ["--kernel", "levelized"]) == 2
            assert "--kernel levelized: " in capsys.readouterr().err
            assert main(args) == 0
        else:
            assert main(args + ["--kernel", "python"]) == 0
        pinned = capsys.readouterr().out
        assert "(golden lanes" in pinned.splitlines()[0]
        lanes = [line for line in reference.splitlines() if "  lane " in line]
        assert len(lanes) == 2
        assert lanes == [line for line in pinned.splitlines() if "  lane " in line]

    def test_kernel_line_says_where_the_traffic_is_generated(self, request, capsys):
        """A driver set that falls back to per-packet Python generation
        is printed, with the reason, not guessed."""
        from repro.kernels import probe_backends

        args = ["simulate", "--engine", "batch", "--lanes", "2", "--width", "3",
                "--height", "3", "--cycles", "60"]
        if probe_backends()["cffi"] == "ok":
            for extra in ([], ["--stream"]):
                assert main(args + extra) == 0
                first = capsys.readouterr().out.splitlines()[0]
                assert first == "kernel: jit (generated C); traffic: C scan"
            assert main(args[:3] + args[5:]) == 0  # one lane rides them too
            out = capsys.readouterr().out.splitlines()
            assert out[0] == "kernel: jit (generated C); traffic: C scan"
            assert out[1].startswith("batch engine: 1 lanes x ")
        request.getfixturevalue("no_cc")
        assert main(args) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("kernel: python (golden lanes; no C compiler found")
        assert first.endswith(
            "traffic: Python generators (the engine has no generated-C body)"
        )


    RUN_ARGS = ["simulate", "--engine", "batch", "--lanes", "2", "--width", "3",
                "--height", "3", "--cycles", "80"]

    def run_line(self, capsys, args):
        assert main(args) == 0
        self.lines = lines = capsys.readouterr().out.splitlines()
        (line,) = [line for line in lines if line.startswith("kernel run: ")]
        return line

    def test_run_line_says_chunked_with_the_activity_factor(self, capsys):
        import re

        from repro.kernels import probe_backends

        if probe_backends()["cffi"] != "ok":
            pytest.skip("no generated-C body")
        for extra in ([], ["--stream"]):
            line = self.run_line(capsys, self.RUN_ARGS + extra)
            match = re.fullmatch(
                r"kernel run: chunked; activity: (\d+) % of router-cycles evaluated"
                r"; body: (\d+) ns per stepped lane-cycle"
                r"; windows: (\d+) \(mean (\d+) cycles, (\d+) flits\)"
                r"; drain: (\d+) cycles in C"
                r"; host: (-?\d+) µs a window outside the body", line
            )
            assert match and 0 < int(match.group(1)) < 100
            # the body's host time over the lane-cycles it stepped
            assert int(match.group(2)) > 0
            # the simulation period, as section 5.3 states it: this run
            # is one window unstreamed, one per 128 cycles streamed
            windows, cycles, flits = map(int, match.group(3, 4, 5))
            assert (windows, cycles) == (1, 80) and 0 < flits < 8192
            # the drain ran inside the body too: the slowest lane's count
            drained = re.findall(r"drained after (\d+) extra", "\n".join(self.lines))
            assert int(match.group(6)) == max(map(int, drained)) > 0
            # the loop's wall around the body's own time
            assert int(match.group(7)) >= 0

    def test_run_line_reports_the_host_time_a_window(self, capsys):
        # the window loops' and the drain's wall, less the body's own
        # seconds, over the windows: the host's work around the body
        from repro.cli import _report_run
        from repro.engines import BatchEngine, drain_batched, run_batched
        from repro.kernels import probe_backends
        from repro.noc import NetworkConfig
        from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

        if probe_backends()["cffi"] != "ok":
            pytest.skip("no generated-C body")
        net = NetworkConfig(4, 4, topology="torus")
        engine = BatchEngine(net, lanes=3)
        drivers = [
            TrafficDriver(
                engine.lane(i),
                be=BernoulliBeTraffic(net, 0.25, uniform_random(net), seed=5 + i),
            )
            for i in range(3)
        ]
        run_batched(engine, drivers, 1200)
        looped = engine.kernel_loop_seconds
        assert looped > engine.kernel_seconds > 0
        drain_batched(engine, drivers)
        assert engine.kernel_loop_seconds > looped  # the drain's call counts too
        _report_run(engine, drivers)
        (line,) = capsys.readouterr().out.splitlines()
        host = (engine.kernel_loop_seconds - engine.kernel_seconds) / engine.kernel_windows
        assert engine.kernel_windows > 1
        assert line.endswith(f"; host: {1e6 * host:.0f} µs a window outside the body")

    def test_run_line_counts_the_calls_replayed_in_cycle_order(self, capsys):
        # a clean run's line has no replays part (the fullmatch above); a
        # call whose lane 1 meets a head to nowhere runs again
        from repro.cli import _report_run
        from repro.engines import BatchEngine, run_batched
        from repro.kernels import probe_backends
        from repro.noc import NetworkConfig
        from repro.noc.flit import Flit, FlitType, Header
        from repro.traffic import TrafficDriver

        if probe_backends()["cffi"] != "ok":
            pytest.skip("no generated-C body")
        engine = BatchEngine(NetworkConfig(3, 3, topology="torus"), lanes=2, kernel="jit")
        drivers = [TrafficDriver(engine.lane(i)) for i in range(2)]
        dw = engine.cfg.router.data_width
        words = [Header(dest_x=9, dest_y=9).head_flit().encode(dw), Flit(FlitType.TAIL, 0).encode(dw)]
        drivers[1].queues.append(4, engine.cfg.router.be_vcs[0], words, 5, 0)
        with pytest.raises(IndexError):
            run_batched(engine, drivers, 40)
        _report_run(engine, drivers)
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("kernel run: chunked; ") and line.endswith("; replays: 1")

    def test_run_line_says_why_a_run_steps_per_cycle(self, request, capsys):
        from repro.kernels import probe_backends

        if probe_backends()["cffi"] == "ok":
            # one lane is no reason: it rides whole chunks like any other
            line = self.run_line(capsys, self.RUN_ARGS[:3] + self.RUN_ARGS[5:])
            assert line.startswith("kernel run: chunked; activity: ")
        request.getfixturevalue("no_cc")
        line = self.run_line(capsys, self.RUN_ARGS)
        # no body ran, so there is no activity factor to print
        assert line == "kernel run: stepping per cycle (the engine has no generated-C body)"

    def test_analysis_line_names_the_body_that_matched(self, request, capsys):
        """Phase five reports its own path on a line of its own, in the
        runs that build a tracker: plain and streamed (a batch run
        without ``--stream`` measures no latency)."""
        from repro.kernels import probe_backends

        tracked = (["simulate", "--width", "3", "--height", "3", "--cycles", "80"],
                   self.RUN_ARGS + ["--stream"])

        def analysis(args):
            assert main(args) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if line.startswith("analysis: ")]

        for args in tracked:
            (line,) = analysis(args)
            if probe_backends()["cffi"] == "ok":
                assert line == "analysis: C pass"
            else:
                assert line.startswith("analysis: NumPy (no generated-C tier (")
        assert analysis(self.RUN_ARGS) == []
        request.getfixturevalue("no_cc")
        for args in tracked:
            (line,) = analysis(args)
            assert line.startswith("analysis: NumPy (no generated-C tier (no C compiler")


def _documented_invocations():
    """Every ``python -m repro.cli ...`` / ``$ repro ...`` command line
    in the fenced code blocks of the README and the verify notes."""
    import os
    import re
    import shlex

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the command, after any prompt and VAR=value prefixes
    command = re.compile(
        r"(?:python -m repro\.cli|^\$ (?:\w+=\S* )*repro) +(.*)"
    )
    found = []
    for name in ("README.md", os.path.join(".claude", "skills", "verify", "SKILL.md")):
        path = os.path.join(root, name)
        if not os.path.exists(path):  # e.g. an sdist without the notes
            continue
        with open(path) as stream:
            text = stream.read().replace("\\\n", " ")
        for block in re.findall(r"```\w*\n(.*?)```", text, flags=re.S):
            for line in block.splitlines():
                match = command.search(line)
                if match:
                    found.append((name, shlex.split(match.group(1), comments=True)))
    return found


class TestDocumentedCommands:
    """A deleted subcommand or flag must not linger in the docs."""

    def test_every_documented_invocation_parses(self):
        from repro.cli import build_parser

        invocations = _documented_invocations()
        assert len(invocations) >= 10
        parser = build_parser()
        for source, argv in invocations:
            if argv == ["--help"]:
                continue  # argparse exits 0 after printing
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{source}: `repro {' '.join(argv)}` no longer parses")

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestEnvironmentSurface:
    """The environment knobs are a counted, documented set — and the
    sweep/engine import path stays free of process machinery."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_repro_env_vars_are_exactly_the_documented_three(self):
        import re

        read = set()
        for folder, _dirs, files in os.walk(os.path.join(self.ROOT, "src")):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as stream:
                        read.update(re.findall(r"\bREPRO_[A-Z_]+\b", stream.read()))
        assert read == {
            "REPRO_SCALE",
            "REPRO_WORKERS",
            "REPRO_KERNEL_CACHE",
        }
        with open(os.path.join(self.ROOT, "README.md")) as stream:
            readme = stream.read()
        assert not [name for name in sorted(read) if name not in readme]

    def test_sweep_and_engine_imports_load_no_process_machinery(self):
        import subprocess
        import sys

        probe = (
            "import repro.experiments.fig1, repro.pipeline, repro.engines, sys\n"
            "print([m for m in sys.modules if m.startswith(("
            "'repro.farm', 'repro.partition', 'multiprocessing', 'concurrent'))])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(self.ROOT, "src"))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestSourceAudit:
    """The HBR cycle is stated once: no block of code lives in two files,
    and the partitioner reaches the evaluator only through its phases."""

    SRC = os.path.join(TestEnvironmentSurface.ROOT, "src", "repro")

    def _sources(self, folder=""):
        for here, _dirs, files in os.walk(os.path.join(self.SRC, folder)):
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(here, name)) as stream:
                        yield os.path.join(here, name), stream.read()

    def test_no_eight_line_block_appears_in_two_files(self):
        import ast

        owner = {}
        shared = set()
        for path, text in self._sources():
            docstrings = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef)
                ) and ast.get_docstring(node, clean=False):
                    first = node.body[0]
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
            code = [
                " ".join(line.split())
                for number, line in enumerate(text.splitlines(), 1)
                if number not in docstrings
            ]
            # comments and short lines (brackets, field-name lists) are not code
            code = [ln for ln in code if len(ln) >= 12 and not ln.startswith("#")]
            for start in range(len(code) - 7):
                window = "\n".join(code[start:start + 8])
                if owner.setdefault(window, path) != path:
                    shared.add((owner[window], path))
        assert not shared

    def test_the_fast_path_names_no_per_packet_object(self):
        """Traffic crosses the chunk boundary as columns: the chunk
        kernel, the traffic kernel and the pipeline's loop construct no
        packet, submit record or stimuli entry, and the dict-of-lists
        window format's helpers are gone from ``src/`` — as are stage
        and chunk classes around the loop, and the sweeps' stage
        profiler."""
        import ast
        import re

        built = re.compile(r"\b(Packet|SubmitRecord|StimuliEntry)\(")
        fast = ("kernels/batchlevel.py", "kernels/trafficgen.py", "pipeline/runner.py")
        found = {
            (name, match)
            for name in fast
            for path, text in self._sources()
            if path.endswith(os.path.join(*name.split("/")))
            for match in built.findall(text)
        }
        assert not found
        sources = [path for path, _ in self._sources()]
        assert all(any(p.endswith(name) for p in sources) for name in fast)
        gone = re.compile(r"encode_window|window_entries|scan_window|StageProfiler|sweep_stage")
        assert not [
            path for path, text in self._sources() if gone.search(text)
        ]
        wrappers = [
            node.name
            for _path, text in self._sources("pipeline")
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Stage", "Chunk"))
        ]
        assert not wrappers

    def test_analysis_turns_no_column_into_a_list(self):
        """Events, submits and samples stay integer arrays from the log
        to the statistics: the tracker, the pipeline's loop and the
        submit hand-over never call ``.tolist()``."""
        import inspect

        from repro.traffic.stimuli import Stimuli

        columnar = ("stats/latency.py", "pipeline/runner.py")
        texts = {
            name: text
            for name in columnar
            for path, text in self._sources()
            if path.endswith(os.path.join(*name.split("/")))
        }
        assert sorted(texts) == sorted(columnar)
        texts["Stimuli.submit_columns"] = inspect.getsource(Stimuli.submit_columns)
        assert not [name for name, text in texts.items() if "tolist" in text]

    #: the Python model's memo layers and fast-path switches
    INTERNALS = (
        r"\b(_eval_sig|_pending|_read_wids|_room_cache|_out_cache"
        r"|_quiesc_cache|_evaluate_unit_fast|_fault_free_cycle)\b"
    )

    def test_partition_names_no_fast_path_internal(self):
        import re

        found = {
            (os.path.basename(path), name)
            for path, text in self._sources("partition")
            for name in re.findall(self.INTERNALS, text)
        }
        assert not found

    def test_process_machinery_stays_in_the_sweep_pool(self):
        """Only the sweep fan-out starts processes, and the partitioner
        keeps no trace of its removed process transport or boundary
        switch."""
        import re

        process = re.compile(
            r"^\s*(import|from)\s+(multiprocessing|concurrent\.futures)\b", re.M
        )
        assert [
            os.path.relpath(path, self.SRC)
            for path, text in self._sources()
            if process.search(text)
        ] == [os.path.join("experiments", "parallel.py")]
        assert not os.path.exists(os.path.join(self.SRC, "farm"))
        removed = re.compile(
            r"link_latency|BoundarySwitch|transport|ProcessWorkerPool"
        )
        assert not {
            (os.path.basename(path), name)
            for path, text in self._sources("partition")
            for name in removed.findall(text)
        }

    def test_the_router_step_lives_in_the_models_and_the_kernels(self):
        """The batch engine steps golden lanes, not a router step of its
        own: its NumPy sweeps are gone, and outside ``kernels/`` only the
        golden model (``noc/``) and the HBR model (``seqsim/``) state the
        step — its allocation scan, or the architectural errors every
        statement of it raises."""
        import re

        (batch,) = [
            text
            for path, text in self._sources("engines")
            if os.path.basename(path) == "batch.py"
        ]
        sweeps = r"\bdef (_step_numpy|_allocation_sweep|_stimuli_update|_rr_pick|_ctz)\b"
        assert not re.findall(sweeps, batch)
        step = re.compile(
            r"upstream ignored room|GT head on non-GT VC"
            r"|def (allocation_decisions|room_mask|output_words)\b"
        )
        stated = {
            os.path.relpath(path, self.SRC).split(os.sep)[0]
            for path, text in self._sources()
            if step.search(text)
        }
        assert "noc" in stated and stated - {"kernels"} <= {"noc", "seqsim"}

    def test_the_sequential_engine_names_no_memo_layer(self):
        """Compiled or fallen back to the model, the engine module
        reaches into none of the model's memos."""
        import re

        (text,) = [
            text
            for path, text in self._sources("engines")
            if os.path.basename(path) == "sequential.py"
        ]
        assert not re.findall(self.INTERNALS, text)

    def test_the_hbr_write_rule_is_stated_in_exactly_three_places(self):
        """"A changed write un-stabilises the reader if it had read the
        old value" is the one decision of section 4.2; whoever tests a
        wire's HBR bit states it.  That is ``LinkMemory.write_wire``, the
        model's one inlined fault-free copy, and the generated body's
        accounting pass — a fourth would be a fork."""
        import re

        rule = re.compile(r"\bif\b[^\n]*\bhbr\[")
        stated = {
            os.path.relpath(path, self.SRC): len(rule.findall(text))
            for path, text in self._sources()
            if rule.search(text)
        }
        assert stated == {
            os.path.join("seqsim", "linkmem.py"): 1,
            os.path.join("seqsim", "sequential.py"): 1,
            os.path.join("kernels", "batchlevel.py"): 1,
        }

    def test_the_window_budget_is_stated_once(self):
        """A traffic window is a stimuli buffer's worth of flits: one
        constant, read where a window source is built, and no
        cycle-length chunk constant left on ``run_batched``'s path (the
        pipeline's window length is its own, in ``pipeline/runner.py``)."""
        import re

        named = re.compile(r"\bFLIT_BUDGET\b(?! flits)(?!`)")
        code = {
            os.path.relpath(path, self.SRC): [
                line.strip()
                for line in text.splitlines()
                if named.search(line) and not line.lstrip().startswith(("#", ":", "*"))
            ]
            for path, text in self._sources()
        }
        ((path, (stated, read)),) = [
            (path, lines) for path, lines in code.items() if lines
        ]
        assert path == os.path.join("traffic", "stimuli.py")
        assert re.fullmatch(r"FLIT_BUDGET = \d+", stated)
        assert read == "self.budget = FLIT_BUDGET"
        chunk = re.compile(r"^_?[A-Z_]*(CHUNK|CYCLES)[A-Z_]*\s*=\s*\d", re.M)
        on_path = ("engines/batch.py", "kernels/trafficgen.py",
                   "kernels/batchlevel.py", "traffic/stimuli.py")
        texts = {
            name: text
            for name in on_path
            for path, text in self._sources()
            if path.endswith(os.path.join(*name.split("/")))
        }
        assert sorted(texts) == sorted(on_path)
        assert not [name for name, text in texts.items() if chunk.search(text)]

    #: definitions in ``src/repro`` that no file under ``src/``, ``bench/``
    #: or ``examples/`` calls, and why each stays.  The list only shrinks:
    #: a name here that gains a caller, or goes, fails the audit too.
    _REFERENCE = "reference for tests"
    _PROBE = "introspection the tests read the model through"
    _TEST_HOOK = "hook the test harness drives"
    ONLY_TESTS_CALL = {
        "BitVector.popcount": "bit-vector value type: word operations",
        "BitVector.reversed_bits": "bit-vector value type: word operations",
        "BitVector.signed": "bit-vector value type: word operations",
        "BitVector.trunc": "bit-vector value type: word operations",
        "BitVector.with_bit": "bit-vector value type: word operations",
        "BitVector.with_field": "bit-vector value type: word operations",
        "BitVector.zext": "bit-vector value type: word operations",
        "StructLayout.offset_of": "paper statement (Table 1 field offsets)",
        "CircuitManager.teardown": "paper statement (section 4.1 circuit set-up)",
        "StaticScheduleEngine": _REFERENCE + ": the section 4.1 static schedule",
        "Table1Result.exact": "paper statement (Table 1)",
        "Table2Result.exact": "paper statement (Table 2)",
        "FpgaDevice.clbs": "paper statement (Table 2 device capacity)",
        "MemoryMap": "paper statement (Figs. 6/7 address map)",
        "MemoryMap.transfer_words": "paper statement (Figs. 6/7 address map)",
        "MemoryMap.output_entry_address": "paper statement (Figs. 6/7 address map)",
        "MemoryMap.region_of": "paper statement (Figs. 6/7 address map)",
        "MemoryMap.stimuli_entry_address": "paper statement (Figs. 6/7 address map)",
        "ResourceReport.fits": "paper statement (Table 2: 256 routers fit)",
        "kernel_versions": _PROBE + ": the C tier's ingredients",
        "fabric_threads": _TEST_HOOK + ": no fabric thread outlives a test",
        "jobs_in_flight": _TEST_HOOK + ": no fabric job outlives a test",
        "NetworkConfig.is_heterogeneous": _PROBE,
        "decode_link_word": _REFERENCE + ": the link word format",
        "encode_link_word": _REFERENCE + ": the link word format",
        "link_word_type": _REFERENCE + ": the link word format",
        "Network.current_inputs": _PROBE,
        "Reassembler": _REFERENCE + ": per-packet oracle of the columnar match",
        "Reassembler.open_vcs": _REFERENCE + ": per-packet oracle of the columnar match",
        "GtReservationTable.max_link_sharing": "paper statement (Fig. 1 GT streams)",
        "Router.eval": "paper statement (Fig. 4b: H(x))",
        "route_port": _REFERENCE + ": dimension-order routing",
        "Topology.connected_ports": _PROBE,
        "PartitionedEngineFactory": "picklable engine_cls for the process-pool sweeps",
        "crosscheck_overlap": _REFERENCE + ": modelled against measured overlap",
        "CyclicBuffer.free": "paper statement (section 5.3 cyclic buffers)",
        "CyclicBuffer.try_read": "paper statement (section 5.3 cyclic buffers)",
        "CyclicBuffer.try_write": "paper statement (section 5.3 cyclic buffers)",
        "Module.all_signals": _PROBE + ": the RTL kernel",
        "Module.local_signals": _PROBE + ": the RTL kernel",
        "Simulator.find_signal": _PROBE + ": the RTL kernel",
        "trace_to_string": _PROBE + ": the RTL kernel",
        "ArrayState.packed_dtypes": _TEST_HOOK + ": the packed-dtype gate",
        "assert_packed": _TEST_HOOK + ": the packed-dtype gate",
        "DynamicBlockSimulator.state_of": _PROBE + ": the Fig. 5 block model",
        "DynamicBlockSimulator.wire_value": _PROBE + ": the Fig. 5 block model",
        "LinkMemory.all_stable": _PROBE + ": the section 4.2 link memory",
        "LinkMemory.read_inputs": _PROBE + ": the section 4.2 link memory",
        "LinkMemory.total_bits": _PROBE + ": the section 4.2 link memory",
        "LinkMemory.unit_hbr_group": _PROBE + ": the section 4.2 link memory",
        "DeltaMetrics.summary": _PROBE + ": delta-cycle counts",
        "SequentialNetwork.inject_state_fault": _TEST_HOOK + ": state-memory SEUs",
        "PackedStateMemory.current_bank": _PROBE + ": the packed state memory",
        "PackedStateMemory.total_bits": _PROBE + ": the packed state memory",
        "EnergyProbe.run_instrumented": _PROBE + ": energy events",
        "PacketLatencyTracker.open_vcs": _PROBE + ": latency tracking",
        "ThroughputStats.in_flight": _PROBE + ": flit conservation",
        "GtStreamTraffic.load_per_stream": _PROBE + ": GT stream load",
        "SoftwareRand": "paper statement (section 8: the ARM rand() the LFSR replaces)",
    }

    def test_every_src_definition_has_a_caller_outside_tests(self):
        """Code that only tests reach cannot grow back: every top-level
        function, class and method in ``src/repro`` is named somewhere in
        ``src/``, ``bench/`` or ``examples/`` beyond its own definition,
        or is on the allowlist with a reason."""
        import ast

        root = TestEnvironmentSurface.ROOT
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        referenced = set()
        defined = {}
        for folder in ("src", "bench", "examples"):
            for here, _dirs, files in os.walk(os.path.join(root, folder)):
                for name in files:
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(here, name)
                    with open(path) as stream:
                        tree = ast.parse(stream.read())
                    exports = {  # an ``__all__`` entry is no caller
                        id(node)
                        for assign in ast.walk(tree)
                        if isinstance(assign, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in assign.targets)
                        for node in ast.walk(assign.value)
                    }
                    for node in ast.walk(tree):
                        if isinstance(node, ast.Name):
                            referenced.add(node.id)
                        elif isinstance(node, ast.Attribute):
                            referenced.add(node.attr)
                        elif (
                            isinstance(node, ast.Constant)
                            and isinstance(node.value, str)
                            and id(node) not in exports
                        ):  # dotted targets, e.g. bench/trace.py's
                            referenced.update(node.value.split("."))
                    if path.startswith(self.SRC):
                        for top in tree.body:
                            if not isinstance(top, kinds):
                                continue
                            defined[top.name] = top.name
                            if isinstance(top, ast.ClassDef):
                                for sub in top.body:
                                    if isinstance(sub, kinds):
                                        defined[f"{top.name}.{sub.name}"] = sub.name
        uncalled = {
            qualified
            for qualified, name in defined.items()
            if name not in referenced and not name.startswith("__")
        }
        assert sorted(uncalled - set(self.ONLY_TESTS_CALL)) == []
        assert sorted(set(self.ONLY_TESTS_CALL) - uncalled) == []
        assert all(reason.strip() for reason in self.ONLY_TESTS_CALL.values())
