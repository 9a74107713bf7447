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
            ("--transport process", "--transport requires --partitions K"),
            ("--link-latency 2", "--link-latency requires --partitions K"),
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
        assert main(["simulate", "--cycles", "10"] + flags.split()) == 2
        captured = capsys.readouterr()
        assert needs in captured.err and captured.out == ""

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


@pytest.mark.farm_smoke
class TestFarmCli:
    def test_farm_run_then_cache_hit(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "farm", "run", "--width", "3", "--height", "3", "--cycles", "40",
            "--load", "0.05", "--workers", "2", "--cache", cache,
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "completed" in first and "farm report" in first

        assert main(args) == 0  # identical batch: served from cache
        assert "via cache" in capsys.readouterr().out

        assert main(["farm", "status", "--cache", cache]) == 0
        assert "1 entries" in capsys.readouterr().out

        assert main(["farm", "cache", "--cache", cache, "--verify"]) == 0
        assert "entries" in capsys.readouterr().out

    def test_farm_cache_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["farm", "run", "--width", "3", "--height", "3", "--cycles", "30",
             "--workers", "1", "--cache", cache]
        ) == 0
        assert main(["farm", "cache", "--cache", cache, "--clear"]) == 0
        assert "cleared 1 cache entries" in capsys.readouterr().out

    def test_farm_smoke_self_check(self, capsys):
        assert main(["farm", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "farm smoke: OK" in out

    def test_sequential_kernel_request_says_auto_binds_the_body(self, capsys):
        for kernel in ("levelized", "jit"):
            rc = main(["simulate", "--engine", "sequential", "--kernel", kernel,
                       "--cycles", "10"])
            assert rc == 2
            err = capsys.readouterr().err
            assert "supports kernel auto|python" in err
            assert "auto already binds the generated-C body" in err
            assert "--engine batch" not in err

    def test_sequential_engine_prints_its_kernel_lines(self, monkeypatch, capsys):
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
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        first, _, model_deltas = run([])
        assert first.startswith("kernel: python (Python model; REPRO_KERNELS=numpy)")
        assert model_deltas == deltas

    @pytest.mark.parametrize("pin", ["env", "flag"])
    def test_kernel_line_names_the_body_that_runs(self, monkeypatch, capsys, pin):
        """``REPRO_KERNELS=numpy`` and ``--kernel python`` run the NumPy
        sweeps whatever label was requested: same per-lane lines, and the
        ``kernel:`` line says so."""
        args = ["simulate", "--engine", "batch", "--lanes", "2", "--width", "3",
                "--height", "3", "--cycles", "80"]
        assert main(args + ["--kernel", "levelized"]) == 0
        reference = capsys.readouterr().out
        if pin == "env":
            monkeypatch.setenv("REPRO_KERNELS", "numpy")
            assert main(args + ["--kernel", "levelized"]) == 0
        else:
            assert main(args + ["--kernel", "python"]) == 0
        pinned = capsys.readouterr().out
        assert "(NumPy sweeps" in pinned.splitlines()[0]
        lanes = [line for line in reference.splitlines() if "  lane " in line]
        assert len(lanes) == 2
        assert lanes == [line for line in pinned.splitlines() if "  lane " in line]

    def test_kernel_line_says_where_the_traffic_is_generated(self, monkeypatch, capsys):
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
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert main(args) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("kernel: python (NumPy sweeps")
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
                r"; windows: (\d+) \(mean (\d+) cycles, (\d+) flits\)"
                r"; drain: (\d+) cycles in C", line
            )
            assert match and 0 < int(match.group(1)) < 100
            # the simulation period, as section 5.3 states it: this run
            # is one window unstreamed, one per 128-cycle ring slot streamed
            windows, cycles, flits = map(int, match.group(2, 3, 4))
            assert (windows, cycles) == (1, 80) and 0 < flits < 8192
            # the drain ran inside the body too: the slowest lane's count
            drained = re.findall(r"drained after (\d+) extra", "\n".join(self.lines))
            assert int(match.group(5)) == max(map(int, drained)) > 0

    def test_run_line_says_why_a_run_steps_per_cycle(self, monkeypatch, capsys):
        from repro.kernels import probe_backends

        if probe_backends()["cffi"] == "ok":
            # one lane is no reason: it rides whole chunks like any other
            line = self.run_line(capsys, self.RUN_ARGS[:3] + self.RUN_ARGS[5:])
            assert line.startswith("kernel run: chunked; activity: ")
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        line = self.run_line(capsys, self.RUN_ARGS)
        # no body ran, so there is no activity factor to print
        assert line == "kernel run: stepping per cycle (the engine has no generated-C body)"

    def test_analysis_line_names_the_body_that_matched(self, monkeypatch, capsys):
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
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        for args in tracked:
            assert analysis(args) == ["analysis: NumPy (REPRO_KERNELS=numpy)"]


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

    def test_repro_env_vars_are_exactly_the_documented_five(self):
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
            "REPRO_KERNELS",
            "REPRO_KERNEL_CACHE",
            "REPRO_FARM_CACHE",
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
        kernel, the traffic kernel and the pipeline stages construct no
        packet, submit record or stimuli entry, and the dict-of-lists
        window format's helpers are gone from ``src/``."""
        import re

        built = re.compile(r"\b(Packet|SubmitRecord|StimuliEntry)\(")
        fast = ("kernels/batchlevel.py", "kernels/trafficgen.py", "pipeline/stages.py")
        found = {
            (name, match)
            for name in fast
            for path, text in self._sources()
            if path.endswith(os.path.join(*name.split("/")))
            for match in built.findall(text)
        }
        assert not found
        gone = re.compile(r"encode_window|window_entries|scan_window")
        assert not [
            path for path, text in self._sources() if gone.search(text)
        ]

    def test_analysis_turns_no_column_into_a_list(self):
        """Events, submits and samples stay integer arrays from the log
        to the statistics: the tracker, the pipeline stages and the
        submit hand-over never call ``.tolist()``."""
        import inspect

        from repro.traffic.stimuli import Stimuli

        columnar = ("stats/latency.py", "pipeline/stages.py")
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
        pipeline's ring-slot size is its own, in ``pipeline/runner.py``)."""
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
