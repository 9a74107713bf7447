"""Determinism contract of the sweep fan-out.

:func:`repro.experiments.parallel.parallel_map` promises results in
submission order, byte-identical to the serial loop, on supervised farm
workers — with the same results when worker processes cannot be used
(no ``fork``, unpicklable payload, a worker killed mid-sweep) and *no*
swallowing of real experiment failures.  These tests pin each clause,
then assert byte equality on the real sweeps built on top of it
(Figure-1 load sweep, traffic-pattern sweep, multi-seed fault
campaigns).
"""

import os
import signal
import time

import pytest

from repro.experiments import fig1, patterns
from repro.experiments.parallel import WORKERS_ENV, parallel_map, resolve_workers
from repro.farm import FarmJobError
from repro.faults import CampaignConfig


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"point {x} failed")


def die_once(item):
    """SIGKILL the worker running point 2 — the first time only (the
    sentinel file remembers the attempt across processes)."""
    x, sentinel = item
    if x == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@pytest.fixture
def farm_reports(monkeypatch):
    """Every :class:`FarmReport` the sweeps under test produce."""
    from repro.farm import client

    reports = []
    real = client.submit_jobs

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(client, "submit_jobs", spy)
    return reports


class TestParallelMap:
    def test_order_preserved_serial(self):
        assert parallel_map(square, range(10), workers=1) == [
            x * x for x in range(10)
        ]

    def test_order_preserved_parallel(self):
        assert parallel_map(square, range(10), workers=4) == [
            x * x for x in range(10)
        ]

    def test_empty_and_single(self):
        assert parallel_map(square, [], workers=4) == []
        assert parallel_map(square, [7], workers=4) == [49]

    def test_unpicklable_fn_falls_back_to_serial(self, farm_reports):
        # A lambda cannot cross a process boundary: the points run
        # in-process, no farm batch is ever submitted.
        result = parallel_map(lambda x: x + 1, range(6), workers=4)
        assert result == list(range(1, 7))
        assert farm_reports == []

    def test_no_fork_degrades_to_inline(self, monkeypatch, farm_reports):
        from repro.farm import process

        def no_fork():
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(process, "_context", no_fork)
        assert parallel_map(square, range(6), workers=2) == [
            x * x for x in range(6)
        ]
        (report,) = farm_reports
        assert report.mode == "inline"
        assert "farm report (inline)" in report.render()

    def test_worker_killed_mid_sweep_matches_serial(self, tmp_path, farm_reports):
        items = [(x, str(tmp_path / "killed")) for x in range(5)]
        assert parallel_map(die_once, items, workers=2) == [
            x * x for x in range(5)
        ]
        (report,) = farm_reports
        if report.mode != "processes":
            pytest.skip("no process spawning in this environment")
        assert os.path.exists(items[0][1])
        (retried,) = [o for o in report.completed if o.failures]
        assert [f.kind for f in retried.failures] == ["worker-died"]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="failed"):
            parallel_map(boom, range(4), workers=1)

    def test_point_exception_is_one_attempt_and_names_the_error(self, farm_reports):
        started = time.perf_counter()
        with pytest.raises(FarmJobError, match="ValueError: point 0 failed") as info:
            parallel_map(boom, [0, 1], workers=2)
        # a deterministic failure is final: no retries, no backoff
        assert [f.kind for f in info.value.failures] == ["exception"]
        assert all(
            len(o.failures) == 1 for o in farm_reports[0].outcomes.values()
        )
        assert time.perf_counter() - started < 5.0


class TestResolveWorkers:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_floor_of_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "abc")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'abc'"):
            resolve_workers(None)


class TestSweepDeterminism:
    """Serial and parallel runs of the real sweeps are byte-identical."""

    def test_fig1_serial_equals_parallel(self, farm_reports):
        # the points are functools.partial objects: they must reach
        # real worker processes, not be refused or run in-process
        loads = (0.0, 0.06, 0.12)
        serial = fig1.run(loads, cycles=120, workers=1)
        parallel = fig1.run(loads, cycles=120, workers=4)
        assert serial.points == parallel.points
        (report,) = farm_reports
        assert len(report.completed) == 3
        assert report.mode == "inline" or all(
            o.worker is not None for o in report.completed
        )

    def test_patterns_serial_equals_parallel(self, farm_reports):
        names = ("uniform", "transpose")
        serial = patterns.run(names, cycles=100, workers=1)
        parallel = patterns.run(names, cycles=100, workers=4)
        assert serial.points == parallel.points
        assert len(farm_reports) == 1 and len(farm_reports[0].completed) == 2

    def test_callable_object_engine_cls_crosses_the_process_boundary(self):
        from repro.partition import PartitionedEngineFactory

        loads = (0.0, 0.04)
        part = fig1.run(
            loads, cycles=60, engine_cls=PartitionedEngineFactory(2), workers=2
        )
        assert part.points == fig1.run(loads, cycles=60, workers=1).points

    def test_campaign_sweep_deterministic(self):
        from repro.experiments.resilience import run_sweep

        base = CampaignConfig(
            width=3, height=3, n_faults=6, include_flap=False, spacing=3
        )
        serial = run_sweep([1, 2], base=base, workers=1)
        parallel = run_sweep([1, 2], base=base, workers=2)
        assert [r.config.seed for r in serial] == [1, 2]
        assert serial == parallel


class TestLaneBatching:
    """Wide default sweeps run on the batch engine's lane axis; the
    numbers must match the process path point for point."""

    def test_threshold(self):
        from repro.experiments.parallel import (
            LANE_BATCH_THRESHOLD,
            lane_batchable,
        )

        assert not lane_batchable(LANE_BATCH_THRESHOLD - 1)
        assert lane_batchable(LANE_BATCH_THRESHOLD)
        # an explicit worker count always keeps the process path
        assert not lane_batchable(LANE_BATCH_THRESHOLD + 4, workers=1)
        assert not lane_batchable(LANE_BATCH_THRESHOLD + 4, workers=4)

    def test_fig1_lane_sweep_matches_process_sweep(self):
        from dataclasses import asdict

        loads = (0.0, 0.04, 0.08, 0.12)
        process = fig1.run(loads, cycles=120, workers=1)
        laned = fig1.run(loads, cycles=120)  # 4 points, workers=None
        for p, l in zip(process.points, laned.points):
            dp, dl = asdict(p), asdict(l)
            # only the delta accounting differs: the batch engine runs
            # exactly three bulk-synchronous sweeps per cycle.
            dp.pop("extra_delta_fraction")
            assert dl.pop("extra_delta_fraction") == 2.0
            assert dp == dl

    def test_patterns_lane_sweep_matches_process_sweep(self):
        names = patterns.PATTERNS  # 4 patterns -> lane path by default
        process = patterns.run(names, cycles=100, workers=1)
        laned = patterns.run(names, cycles=100)
        assert process.points == laned.points

    def test_lane_sweep_profiled(self, monkeypatch):
        # four loads and no worker count: one lane-batched run, no farm
        calls = []
        real = fig1.run_fig1_workloads_batched

        def spy(loads, *args, **kwargs):
            calls.append(tuple(loads))
            return real(loads, *args, **kwargs)

        monkeypatch.setattr(fig1, "run_fig1_workloads_batched", spy)
        monkeypatch.setattr(fig1, "parallel_map", None)
        loads = (0.0, 0.04, 0.08, 0.12)
        assert len(fig1.run(loads, cycles=60).points) == 4
        assert calls == [loads]
