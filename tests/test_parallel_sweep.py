"""Determinism contract of the sweep fan-out.

:func:`repro.experiments.parallel.parallel_map` promises results in
submission order, byte-identical to the serial loop, on a process pool
— with the same results when worker processes cannot be used (no
``fork``, unpicklable payload) or one is killed mid-sweep, and *no*
swallowing of real experiment failures.  These tests pin each clause,
then assert byte equality on the real sweeps built on top of it
(Figure-1 load sweep, traffic-pattern sweep, multi-seed fault
campaigns).
"""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.experiments import fig1, patterns
from repro.experiments.parallel import WORKERS_ENV, parallel_map, resolve_workers
from repro.faults import CampaignConfig


def square(x):
    return x * x


def square_and_pid(x):
    return x * x, os.getpid()


def pid_after_nap(x):
    time.sleep(0.2)  # long enough that every worker gets a point
    return os.getpid()


def boom(x):
    raise ValueError(f"point {x} failed")


def boom_logged(item):
    """Raise for every point, noting each attempt in a log file."""
    x, log = item
    with open(log, "a") as stream:
        stream.write(f"{x}\n")
    raise ValueError(f"point {x} failed")


def die_once(item):
    """SIGKILL the worker running point 2 — the first time only (the
    sentinel file remembers the attempt across processes)."""
    x, sentinel = item
    if x == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def die_always(x):
    """SIGKILL the worker running point 2, on every attempt."""
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@pytest.fixture
def submitted(monkeypatch):
    """The argument tuple of every point handed to a process pool."""
    points = []
    real = ProcessPoolExecutor.submit

    def spy(self, fn, *args, **kwargs):
        points.append(args)
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    return points


def no_context(monkeypatch, error):
    """Make every process-context lookup raise ``error``."""

    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


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

    def test_points_run_in_worker_processes(self):
        # a silent fall-back to the serial loop would run every point
        # in the caller
        pids = parallel_map(pid_after_nap, range(4), workers=2)
        assert os.getpid() not in pids
        assert len(set(pids)) >= 2

    def test_unpicklable_fn_falls_back_to_serial(self, monkeypatch, submitted):
        # A lambda cannot cross a process boundary: the points run
        # in-process, no process context is even asked for.
        no_context(monkeypatch, AssertionError("a process context was requested"))
        result = parallel_map(lambda x: (x + 1, os.getpid()), range(6), workers=4)
        assert result == [(x + 1, os.getpid()) for x in range(6)]
        assert submitted == []

    def test_no_fork_degrades_to_inline(self, monkeypatch, submitted):
        no_context(monkeypatch, ValueError("cannot find context for 'fork'"))
        assert parallel_map(square_and_pid, range(6), workers=2) == [
            (x * x, os.getpid()) for x in range(6)
        ]
        assert submitted == []

    def test_worker_killed_mid_sweep_matches_serial(self, tmp_path):
        items = [(x, str(tmp_path / "killed")) for x in range(5)]
        assert parallel_map(die_once, items, workers=2) == [
            x * x for x in range(5)
        ]
        assert os.path.exists(items[0][1])

    def test_worker_killed_on_every_attempt_names_the_point(self):
        with pytest.raises(
            BrokenProcessPool, match=r"died twice running sweep points \[.*\b2\b"
        ):
            parallel_map(die_always, range(5), workers=2)

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="failed"):
            parallel_map(boom, range(4), workers=1)

    def test_point_exception_is_one_attempt_and_names_the_error(self, tmp_path):
        log = str(tmp_path / "attempts")
        started = time.perf_counter()
        with pytest.raises(ValueError, match="^point 0 failed$"):
            parallel_map(boom_logged, [(0, log), (1, log)], workers=2)
        # a deterministic failure is final: no retries, no backoff
        with open(log) as stream:
            attempts = stream.read().split()
        assert attempts.count("0") == 1 and attempts.count("1") <= 1
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

    def test_fig1_serial_equals_parallel(self, submitted):
        # the points are functools.partial objects: they must reach
        # the process pool, not be refused and run in-process
        loads = (0.0, 0.06, 0.12)
        serial = fig1.run(loads, cycles=120, workers=1)
        parallel = fig1.run(loads, cycles=120, workers=4)
        assert serial.points == parallel.points
        assert len(submitted) == 3

    def test_patterns_serial_equals_parallel(self, submitted):
        names = ("uniform", "transpose")
        serial = patterns.run(names, cycles=100, workers=1)
        parallel = patterns.run(names, cycles=100, workers=4)
        assert serial.points == parallel.points
        assert len(submitted) == 2

    def test_callable_object_engine_cls_crosses_the_process_boundary(self, submitted):
        from functools import partial

        from repro.engines import SequentialEngine

        loads = (0.0, 0.04)
        model = fig1.run(
            loads, cycles=60, engine_cls=partial(SequentialEngine, kernel="python"),
            workers=2,
        )
        assert len(submitted) == 2
        assert model.points == fig1.run(loads, cycles=60, workers=1).points

    def test_campaign_sweep_deterministic(self):
        from repro.faults import run_campaigns

        base = CampaignConfig(
            width=3, height=3, n_faults=6, include_flap=False, spacing=3
        )
        configs = [replace(base, seed=seed) for seed in (1, 2)]
        serial = run_campaigns(configs, workers=1)
        parallel = run_campaigns(configs, workers=2)
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
        # four loads and no worker count: one lane-batched run, no pool
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
