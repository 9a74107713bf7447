"""The benchmark's own smoke test: ``python3 -m pytest bench -q`` (~40 s).

Not part of the tier-1 suite (``testpaths = tests``): it measures nothing,
it checks that the harness still reports what ``BENCHMARK.json`` declares.
"""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import compare, harness, trace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke_run(name: str):
    out = os.path.join(harness.OUT, name)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out) as stream:
        return json.load(stream), proc.stdout


@pytest.fixture(scope="module")
def runs():
    return smoke_run("smoke-test-a.json"), smoke_run("smoke-test-b.json")


def test_contract_file_is_well_formed():
    doc = harness.contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in doc["end_to_end"] if m["name"] == "setup_s"
    ).items()


def test_every_declared_metric_is_reported_with_its_unit(runs):
    declared = harness.contract()
    (doc, stdout), _ = runs
    assert list(doc["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, workload in doc["workloads"].items():
        assert workload["failed"] == 0, workload["errors"]
        for kind in ("end_to_end", "per_layer"):
            reported = {m: v["unit"] for m, v in workload[kind].items()}
            assert reported == {m["name"]: m["unit"] for m in declared[kind]}, (name, kind)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s.*{re.escape(metric['unit'])}", stdout, re.M)


def test_digests_repeat_across_runs(runs):
    (a, _), (b, _) = runs
    for name in a["workloads"]:
        assert a["workloads"][name]["sim_digest"] == b["workloads"][name]["sim_digest"]
    assert not [r for r in compare.compare(a, b, harness.contract()["end_to_end"]) if r["metric"] == "sim_digest"]


def test_compare_calls_a_digest_change_and_a_slowdown_regressed(runs):
    (a, _), _ = runs
    metrics = harness.contract()["end_to_end"]
    slower = copy.deepcopy(a)
    cps = slower["workloads"]["be16_fused"]["end_to_end"]["sim_cps"]
    cps["values"] = [v / 2 for v in cps["values"]]
    cps["median"] /= 2
    slower["workloads"]["sparse_ff"]["sim_digest"] = "0" * 64
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in compare.compare(a, slower, metrics)}
    assert verdicts["be16_fused", "sim_cps"] == "regressed"
    assert verdicts["sparse_ff", "sim_digest"] == "regressed"
    assert verdicts["seq_hbr_6x6", "sim_cps"] == "unchanged"
    slower["host"]["noisy"] = True
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in compare.compare(a, slower, metrics)}
    assert verdicts["be16_fused", "sim_cps"] == "unresolved"


def test_spread_wider_than_the_bound_is_unresolved():
    assert compare.verdict([100, 80, 120, 101], [90, 70, 118, 95], "higher", 0.10) == "unresolved"
    assert compare.verdict([100, 101, 99], [80, 81, 79], "higher", 0.10) == "regressed"
    assert compare.verdict([100, 101, 99], [120, 121, 119], "higher", 0.10) == "improved"
    assert compare.verdict([1.0, 1.01], [1.05, 1.04], "lower", 0.10) == "unchanged"


def test_tracer_puts_every_wrapped_attribute_back():
    import repro.engines

    originals = [trace.resolve(module, path)[2] for _, module, path, _ in trace.TARGETS]
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert all(
            trace.resolve(module, path)[2] is not original
            for (_, module, path, _), original in zip(trace.TARGETS, originals)
        )
        assert hasattr(repro.engines.run_batched, "__wrapped__")
    finally:
        tracer.restore()
    assert tracer.restored
    for (_, module, path, _), original in zip(trace.TARGETS, originals):
        assert trace.resolve(module, path)[2] is original
    assert not hasattr(repro.engines.run_batched, "__wrapped__")
