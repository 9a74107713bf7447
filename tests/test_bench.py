"""CI smoke test for the Table-3 speed benchmark (``repro bench``).

Runs the benchmark at a tiny cycle budget on the two sequential rows
(the cheap ones) and checks the JSON document shape end to end — the
same document the committed ``BENCH_table3.json`` at the repo root
holds, whose well-formedness is also asserted here.
"""

import json
import os

import pytest

from repro.experiments import bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBenchDocument:
    def test_smoke_document_shape(self, tmp_path):
        doc = bench.run(
            cycles=40, engines=("sequential", "sequential-baseline"), rounds=1
        )
        assert doc["benchmark"] == "table3_engine_speed"
        assert doc["workload"]["be_load"] == bench.LOAD
        seq = doc["engines"]["sequential"]
        base = doc["engines"]["sequential-baseline"]
        assert seq["cycles"] == 40 and base["cycles"] == 40
        assert seq["cps"] > 0 and seq["seconds"] > 0
        # The optimisations never change the delta schedule, only its cost.
        assert seq["total_deltas"] == base["total_deltas"]
        assert doc["pre_pr"]["sequential_cps"] == bench.PRE_PR_SEQUENTIAL_CPS
        assert doc["speedup_vs_reference_loop"] > 0

        out = tmp_path / "bench.json"
        path = bench.write(doc, str(out))
        assert path == str(out)
        assert json.loads(out.read_text()) == doc

        rendered = bench.render(doc)
        assert "sequential" in rendered and "cycles/s" in rendered

    def test_cli_bench_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_table3.json"
        rc = main(
            ["bench", "--scale", "0.1", "--out", str(out), "--rounds", "1"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        expected = {
            "rtl",
            "cycle",
            "sequential",
            "sequential-baseline",
            "sequential-levelized",
            "batch",
            "pipeline",
            "sequential-16x16",
            "partitioned-2",
            "partitioned-4",
        }
        # The compiled rows are present exactly when a compiled backend
        # exists on this machine; otherwise each is skipped with a reason.
        if "batch-jit" in doc["engines"]:
            expected.add("batch-jit")
            assert doc["engines"]["batch-jit"]["backend"] == "jit"
            assert doc["speedup_batch_jit_vs_batch"] > 0
        else:
            assert "batch-jit" in doc["kernels"]["skipped"]
        if "batch-levelized" in doc["engines"]:
            expected.add("batch-levelized")
            assert doc["engines"]["batch-levelized"]["backend"].startswith(
                "levelized"
            )
            if "batch-jit" in doc["engines"]:
                assert doc["speedup_batch_levelized_vs_batch_jit"] > 0
        else:
            assert "batch-levelized" in doc["kernels"]["skipped"]
        assert set(doc["engines"]) == expected
        for row in doc["engines"].values():
            assert row["host_cores"] >= 1
        assert doc["kernels"]["backends"]["numpy"] == "ok"
        batch = doc["engines"]["batch"]
        assert batch["lanes"] == bench.BATCH_LANES
        assert batch["per_lane_cps"] > 0
        assert batch["backend"] == "python"
        assert doc["engines"]["sequential-levelized"]["backend"] is not None
        assert doc["speedup_levelized_vs_fixed_point"] > 0
        assert doc["speedup_batch_vs_sequential"] > 0
        pipe = doc["engines"]["pipeline"]
        assert pipe["lanes"] == len(bench.PIPELINE_LOADS)
        assert pipe["speedup_vs_serial"] > 0
        assert set(pipe["phase_seconds"]) == {
            "generate", "load", "simulate", "retrieve", "analyze",
        }
        part = doc["engines"]["partitioned-4"]
        assert part["partitions"] == 4
        assert part["transport"] in ("process", "local")
        assert part["network"].startswith("16x16")
        assert part["mean_boundary_rounds"] >= 1.0
        assert 0.0 <= part["boundary_sync_fraction"] <= 1.0
        assert doc["speedup_partitioned_vs_monolithic"] > 0
        assert doc["host"]["cores"] >= 1
        assert str(out) in capsys.readouterr().out

    def test_cli_bench_smoke_flag(self, tmp_path, capsys):
        """``repro bench --smoke`` exercises every row but writes nothing."""
        from repro.cli import main

        out = tmp_path / "BENCH_table3.json"
        rc = main(["bench", "--smoke", "--out", str(out)])
        assert rc == 0
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "pipeline" in printed and "left untouched" in printed

    def test_committed_artifact_well_formed(self):
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        assert os.path.exists(path), "BENCH_table3.json missing from repo root"
        with open(path) as stream:
            doc = json.load(stream)
        assert doc["benchmark"] == "table3_engine_speed"
        assert doc["pre_pr"]["sequential_cps"] > 0
        assert doc["engines"]["sequential"]["cps"] > 0
        # The headline acceptance number: the recorded run beat the
        # pre-overhaul sequential speed by at least 3x on the
        # reference machine.
        assert doc["pre_pr"]["speedup"] >= 3.0

    def test_committed_batch_row_floors(self):
        """Regression guard on the recorded batch-engine speedup.

        Skips when the artifact is absent (fresh checkouts regenerate it
        with ``repro bench``); once committed, the batch row must hold
        the acceptance floor: >= 3x the sequential engine's aggregate
        rate at >= 8 lanes.
        """
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_table3.json to validate")
        with open(path) as stream:
            doc = json.load(stream)
        if "batch" not in doc["engines"]:
            pytest.skip("committed benchmark predates the batch engine")
        batch = doc["engines"]["batch"]
        assert batch["lanes"] >= 8
        assert batch["per_lane_cps"] > 0
        assert batch["cps"] == pytest.approx(
            batch["lanes"] * batch["cycles"] / batch["seconds"]
        )
        assert doc["speedup_batch_vs_sequential"] >= 3.0

    @pytest.mark.kernel_smoke
    def test_committed_kernel_row_floors(self):
        """Acceptance floors on the recorded compiled-kernel speedups.

        The levelized fused body must have beaten the fixed-point
        reference loop by >= 1.5x on the bench config, and at least one
        engine/kernel pair must have recorded a >= 2x aggregate win
        (the batch generated-C kernel over the NumPy sweeps).
        """
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_table3.json to validate")
        with open(path) as stream:
            doc = json.load(stream)
        if "sequential-levelized" not in doc["engines"]:
            pytest.skip("committed benchmark predates the kernel rows")
        lev = doc["engines"]["sequential-levelized"]
        assert lev["backend"] == "levelized fused body"
        assert doc["speedup_levelized_vs_fixed_point"] >= 1.5
        # the recorded 2x+ engine/kernel pair of the acceptance criteria
        if "batch-jit" in doc["engines"]:
            assert doc["engines"]["batch-jit"]["backend"] == "jit"
            assert doc["speedup_batch_jit_vs_batch"] >= 2.0
        else:
            assert doc["speedup_levelized_vs_fixed_point"] >= 2.0, (
                "no jit row recorded: the levelized row alone must then "
                "carry the 2x acceptance floor"
            )

    @pytest.mark.kernel_smoke
    def test_committed_batch_levelized_row_floors(self):
        """Acceptance floors on the recorded fused-chunk kernel speedup.

        The batch-levelized row must have beaten the per-cycle
        generated-C kernel by >= 1.5x aggregate, and the whole compiled
        ladder must put the recorded aggregate rate >= 10x the pre-PR
        sequential baseline.
        """
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_table3.json to validate")
        with open(path) as stream:
            doc = json.load(stream)
        if "batch-levelized" not in doc["engines"]:
            pytest.skip("committed benchmark predates the batch-levelized row")
        row = doc["engines"]["batch-levelized"]
        assert row["backend"].startswith("levelized")
        assert row["lanes"] >= 8
        assert row["host_cores"] >= 1
        assert doc["speedup_batch_levelized_vs_batch_jit"] >= 1.5
        assert row["cps"] >= 10 * doc["pre_pr"]["sequential_cps"]

    def test_committed_pipeline_row_floors(self):
        """Acceptance floor on the recorded streamed-sweep speedup.

        The streamed fig1 sweep must have beaten the strictly serial
        per-point sequential sweep by >= 1.5x end to end on the
        reference machine, with all five phases measured.
        """
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_table3.json to validate")
        with open(path) as stream:
            doc = json.load(stream)
        if "pipeline" not in doc["engines"]:
            pytest.skip("committed benchmark predates the pipeline row")
        pipe = doc["engines"]["pipeline"]
        assert pipe["lanes"] == len(bench.PIPELINE_LOADS)
        assert pipe["speedup_vs_serial"] >= 1.5
        assert pipe["serial_sweep_seconds"] > pipe["seconds"]
        assert 0.0 <= pipe["overlap_efficiency"] <= 1.0
        phases = pipe["phase_seconds"]
        assert set(phases) == {
            "generate", "load", "simulate", "retrieve", "analyze",
        }
        assert all(v >= 0 for v in phases.values())

    def test_committed_partitioned_row_floors(self):
        """Acceptance floor on the recorded partitioned speedup.

        The partitioned rows shard the 16x16 workload across tile
        worker processes; ``speedup_partitioned_vs_monolithic`` is a
        *parallel* speedup, so the >= 1.5x floor at 4 partitions is
        asserted only when the recording host had cores to parallelise
        over.  A single-core bench host records the honest (sub-1x)
        number plus its core count, and the floor is skipped — the
        boundary protocol adds work (re-converging boundary readers,
        ~3 rounds/cycle) that only parallel execution can buy back.
        """
        path = os.path.join(REPO_ROOT, "BENCH_table3.json")
        if not os.path.exists(path):
            pytest.skip("no committed BENCH_table3.json to validate")
        with open(path) as stream:
            doc = json.load(stream)
        if "partitioned-4" not in doc["engines"]:
            pytest.skip("committed benchmark predates the partitioned rows")
        part = doc["engines"]["partitioned-4"]
        mono = doc["engines"]["sequential-16x16"]
        assert part["partitions"] == 4
        assert part["network"].startswith("16x16")
        assert mono["network"].startswith("16x16")
        assert part["mean_boundary_rounds"] >= 1.0
        assert 0.0 <= part["boundary_sync_fraction"] <= 1.0
        speedup = doc["speedup_partitioned_vs_monolithic"]
        assert speedup == pytest.approx(
            part["cps"] / mono["cps"], rel=0.01
        )
        cores = (doc.get("host") or {}).get("cores", 1)
        if cores < 2:
            pytest.skip(
                f"bench host had {cores} core(s): parallel-speedup floor "
                "needs a multi-core recording host"
            )
        assert speedup >= 1.5

    def test_write_merges_prior_document(self, tmp_path):
        """A partial rerun merges into the existing artifact: rows it
        did not measure and the ``pre_pr`` reference survive; corrupt
        or foreign prior files are ignored."""
        path = tmp_path / "BENCH_table3.json"
        prior = {
            "benchmark": "table3_engine_speed",
            "engines": {"rtl": {"name": "rtl", "cps": 1.0}},
            "pre_pr": {"sequential_cps": 933.0},
        }
        path.write_text(json.dumps(prior))
        new = {
            "benchmark": "table3_engine_speed",
            "engines": {"sequential": {"name": "sequential", "cps": 5.0}},
        }
        bench.write(new, str(path))
        merged = json.loads(path.read_text())
        assert set(merged["engines"]) == {"rtl", "sequential"}
        assert merged["pre_pr"]["sequential_cps"] == 933.0

        path.write_text("{not json")
        bench.write(new, str(path))
        assert set(json.loads(path.read_text())["engines"]) == {"sequential"}

        path.write_text(json.dumps({"benchmark": "other", "engines": {"x": {}}}))
        bench.write(new, str(path))
        assert set(json.loads(path.read_text())["engines"]) == {"sequential"}


class TestArtifactResilience:
    """A corrupt committed artifact (torn write, truncation, garbage)
    must be quarantined — renamed ``.corrupt-<ts>`` so the evidence
    survives — and the document rebuilt; the merge never crashes and
    never silently overwrites the corpse."""

    NEW = {
        "benchmark": "table3_engine_speed",
        "engines": {"sequential": {"name": "sequential", "cps": 5.0}},
    }

    @pytest.mark.parametrize(
        "damage",
        [
            "",  # empty file: a torn create
            '{"benchmark": "table3_engine_speed", "engi',  # truncated write
            "\x00\x01 binary garbage",  # not JSON at all
            "[1, 2, 3]",  # JSON but not an object
        ],
        ids=["empty", "truncated", "garbage", "non-object"],
    )
    def test_corrupt_prior_is_quarantined_and_rebuilt(self, tmp_path, damage):
        path = tmp_path / "BENCH_table3.json"
        path.write_text(damage)
        out = bench.write(dict(self.NEW), str(path))
        assert out == str(path)
        rebuilt = json.loads(path.read_text())
        assert set(rebuilt["engines"]) == {"sequential"}
        corpses = [p for p in os.listdir(tmp_path) if ".corrupt-" in p]
        assert len(corpses) == 1
        assert (tmp_path / corpses[0]).read_text() == damage

    def test_foreign_document_is_ignored_not_quarantined(self, tmp_path):
        path = tmp_path / "BENCH_table3.json"
        foreign = {"benchmark": "someone_elses", "engines": {"x": {}}}
        path.write_text(json.dumps(foreign))
        bench.write(dict(self.NEW), str(path))
        assert set(json.loads(path.read_text())["engines"]) == {"sequential"}
        assert not [p for p in os.listdir(tmp_path) if ".corrupt-" in p]

    def test_missing_prior_is_not_an_error(self, tmp_path):
        path = tmp_path / "BENCH_table3.json"
        bench.write(dict(self.NEW), str(path))
        assert json.loads(path.read_text())["engines"]["sequential"]["cps"] == 5.0
        assert not [p for p in os.listdir(tmp_path) if ".corrupt-" in p]


@pytest.mark.bench_smoke
class TestBenchSmokeMarker:
    """A deliberately tiny batched benchmark point: two lanes, fifty
    cycles — cheap enough for every CI pass, selectable standalone with
    ``pytest -m bench_smoke``."""

    def test_tiny_batched_point(self):
        point = bench.measure("batch", cycles=50, rounds=1, lanes=2)
        assert point.name == "batch"
        assert point.lanes == 2
        assert point.cycles == 50
        assert point.per_lane_cps > 0
        assert point.cps == pytest.approx(2 * point.cycles / point.seconds)


def test_benchmark_trace_targets_resolve(monkeypatch):
    """The repo benchmark (``bench/``, which a perf PR may not edit)
    wraps ``owner.__dict__[name]`` of every entry of ``TARGETS``; an
    attribute that moved to a base class or vanished would leave the
    traced pass blind, so every target must resolve on its owner."""
    monkeypatch.syspath_prepend(REPO_ROOT)
    from bench import trace

    assert len(trace.TARGETS) >= 13
    for span, module, path, _note in trace.TARGETS:
        owner, name, current = trace.resolve(module, path)
        assert callable(current), (span, module, path)
        assert owner.__dict__[name] is current
    # the two tiers of the one generated body are traced under their own names
    from repro.kernels.batchlevel import CompiledBatchLevel
    from repro.kernels.batchstep import CompiledBatchStep

    assert issubclass(CompiledBatchStep, CompiledBatchLevel)
    assert "step" in vars(CompiledBatchStep)
    assert {"stage", "run_chunk"} <= set(vars(CompiledBatchLevel))

