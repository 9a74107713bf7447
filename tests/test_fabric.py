"""The fabric thread: each streamed window's chunk body runs on a thread
of the generated C while the caller generates, books and analyses its
neighbours (:mod:`repro.pipeline.runner`).

Held here: the threaded run equals the serial loop, ``run_batched`` and
the golden engine on every path the pipeline drives; no Python writes
what a job in flight owns; an error ends a threaded run exactly where the
serial loop ends, and the process runs on; the caller generates each
window while the one before it is in flight; the fabric thread leaves
the caller's CPU where a second one is allowed, so the caller's wait is
shorter than the fabric's work; and the degraded hosts (one core, no
compiler) give the same numbers.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.engines import (
    BatchEngine,
    CycleEngine,
    SequentialEngine,
    drain_batched,
    run_batched,
)
from repro.experiments.common import run_fig1_workload, run_fig1_workloads_batched
from repro.kernels.batchlevel import _STATE_FIELDS, FabricJob, jobs_in_flight
from repro.kernels.trafficgen import BatchedBeGenerator
from repro.noc import Port
from repro.noc.reservation import GtStream
from repro.noc.router import ProtocolError
from repro.pipeline import run_pipeline, stream_fig1_sweep
from repro.traffic import GtStreamTraffic
from repro.traffic.stimuli import NetworkOverloadError
from tests.test_batch_levelized import full_digest, make_drivers, needs_jit, torus
from tests.test_pipeline import (
    assert_engines_equal,
    classic_run,
    lane_drivers,
    make_traffic,
    small_net,
    stream_fig1_set,
)

pytestmark = needs_jit

#: a short Fig. 1 sweep: four of the loads, 65 warm-up cycles
LOADS, CYCLES, WARMUP, SEED = (0.0, 0.04, 0.08, 0.14), 200, 65, 7


def points(swept):
    return [dataclasses.astuple(point) for point in swept.points]


class TestThreadedEqualsSerialBatchedAndGolden:
    def test_fig1_sweep(self):
        sized = dict(seed=SEED, warmup=WARMUP)
        threaded = stream_fig1_sweep(LOADS, CYCLES, **sized)
        serial = stream_fig1_sweep(LOADS, CYCLES, threaded=False, **sized)
        assert threaded.report.profiler.threaded and not serial.report.profiler.threaded
        assert threaded.points == serial.points == run_fig1_workloads_batched(
            LOADS, CYCLES, **sized
        )
        assert threaded.report.done_cycles == serial.report.done_cycles
        assert [d.submits for d in threaded.drivers] == [d.submits for d in serial.drivers]
        for lane in (0, len(LOADS) - 1):
            golden = run_fig1_workload(LOADS[lane], CYCLES, engine_cls=CycleEngine, **sized)
            # extra_delta_fraction is the engine's own accounting, not a result
            assert dataclasses.replace(
                threaded.points[lane], extra_delta_fraction=None
            ) == dataclasses.replace(golden, extra_delta_fraction=None)

    def test_pattern_sweep(self):
        from repro.experiments.patterns import PATTERNS, run_patterns_batched
        from repro.pipeline import stream_pattern_sweep

        threaded = stream_pattern_sweep(PATTERNS, 300)
        serial = stream_pattern_sweep(PATTERNS, 300, threaded=False)
        assert threaded.points == serial.points == run_patterns_batched(PATTERNS, 300)
        assert (
            threaded.report.analyze.eject_router_counts
            == serial.report.analyze.eject_router_counts
        ).all()
        assert threaded.report.done_cycles == serial.report.done_cycles

    def test_quarantined_link_engine(self):
        net, cycles, load = torus(4, 4), 300, 0.15

        def engine():
            built = BatchEngine(net, lanes=3)
            built.quarantine_link(5, Port.EAST)
            built.quarantine_link(10, Port.SOUTH)
            return built

        reference = engine()
        drivers = make_drivers(reference, load)
        traffic = [(copy.deepcopy(d.be), None) for d in drivers]
        run_batched(reference, drivers, cycles)
        for driver in drivers:
            driver.be = None
        done = drain_batched(reference, drivers)
        want = full_digest(reference, drivers)
        for threaded in (True, False):
            streamed = engine()
            drivers = lane_drivers(streamed, copy.deepcopy(traffic))
            report = run_pipeline(streamed, drivers, cycles, chunk=40, threaded=threaded)
            assert streamed.fault_resident and report.done_cycles == list(done)
            lanes, cycle, deltas = full_digest(streamed, drivers)
            assert [lane[:3] for lane in lanes] == [lane[:3] for lane in want[0]]
            assert (cycle, deltas) == want[1:]

    def test_hbr_sequential_engine(self):
        net, cycles = small_net(), 300
        be, gt = make_traffic(net, with_gt=True)
        classic = SequentialEngine(net)
        _, tracker, done = classic_run(classic, copy.deepcopy(be), copy.deepcopy(gt), cycles)
        golden = CycleEngine(net)
        classic_run(golden, copy.deepcopy(be), copy.deepcopy(gt), cycles)
        for threaded in (True, False):
            engine = SequentialEngine(net)
            drivers = lane_drivers(engine, [copy.deepcopy((be, gt))])
            report = run_pipeline(engine, drivers, cycles, chunk=48, threaded=threaded)
            assert engine.kernel_reason is None  # the compiled HBR body ran
            assert_engines_equal(engine, classic)
            assert_engines_equal(engine, golden)
            # the HBR pass's delta column was booked before the next launch
            assert engine.metrics.per_cycle == classic.metrics.per_cycle
            assert report.done_cycles == [done]
            assert report.trackers[0].samples == tracker.samples


def test_no_python_writes_what_a_job_in_flight_owns(monkeypatch):
    """Between the launch and the wait, the engine's state arrays, the
    staged rows, the job's event buffers and the call scratch are
    read-only to Python: the threaded run goes through untouched."""
    want = stream_fig1_set(150, chunk=40, threaded=False)[2]
    frozen = []
    real_start, real_wait = FabricJob.start, FabricJob.wait

    def owned(job):
        body, state = job.body, job.body.engine.state
        return [
            *(getattr(state, name) for name in _STATE_FIELDS),
            *(body._buffers[name] for name in ("q", "e", "deltas")),
            *body._scratch.values(),
            *(job._events[name] for name in ("sent", "ej")),
        ]

    def start(job):
        job = real_start(job)
        if job.threaded:
            for array in owned(job):
                array.flags.writeable = False
            frozen.append(job)
        return job

    def wait(job):
        if job in frozen:
            frozen.remove(job)
            for array in owned(job):
                array.flags.writeable = True
            owned_jobs.append(job)
        return real_wait(job)

    owned_jobs = []
    monkeypatch.setattr(FabricJob, "start", start)
    monkeypatch.setattr(FabricJob, "wait", wait)
    _, report, got, _ = stream_fig1_set(150, chunk=40)
    assert got == want
    assert len(owned_jobs) == report.profiler.items["simulate"] and not frozen


def overload_run():
    """Saturated depth-1 queues: lane 0 overloads at cycle 63, window 3."""
    engine = BatchEngine(torus(queue_depth=1), lanes=2)
    return engine, make_drivers(engine, 0.8, stall_limit=20)


def protocol_run():
    """A GT stream reserved on a BE VC: its first head, at cycle 46, is
    refused by the router that buffers it (window 2)."""
    engine = BatchEngine(torus(4, 4), lanes=2)
    net = engine.cfg
    stream = GtStream(src=5, dest=6, vc=net.router.be_vcs[0], links=((5, Port.EAST),))
    drivers = make_drivers(engine, 0.05)
    drivers[0].gt = GtStreamTraffic(net, [stream], period=97)
    return engine, drivers


@pytest.mark.parametrize("scenario", [overload_run, protocol_run], ids=["overload", "protocol"])
def test_an_error_ends_a_threaded_run_where_the_serial_loop_ends(scenario):
    def run(threaded):
        engine, drivers = scenario()
        with pytest.raises((NetworkOverloadError, ProtocolError)) as err:
            run_pipeline(engine, drivers, 400, chunk=16, threaded=threaded)
        assert jobs_in_flight() == 0
        return type(err.value), str(err.value), engine.cycle, full_digest(engine, drivers)

    threaded = run(True)
    assert threaded == run(False)
    kind, _, cycle, _ = threaded
    assert cycle // 16 >= 2 and kind is (
        NetworkOverloadError if scenario is overload_run else ProtocolError
    )
    # and the process runs on: the next streamed run is the serial one
    want = stream_fig1_set(100, chunk=30, threaded=False)[2]
    assert stream_fig1_set(100, chunk=30)[2] == want


#: where one CPU is allowed the caller and the fabric thread take turns
one_cpu = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
    reason="one CPU: the caller and the fabric thread take turns",
)


@one_cpu
def test_the_fabric_thread_leaves_the_callers_cpu(monkeypatch):
    """The thread the caller opens drops the caller's CPU from its own
    mask (read at each landing, while the thread runs); the caller's
    mask stays as it was."""
    before = os.sched_getaffinity(0)
    masks = []
    real_wait = FabricJob.wait

    def wait(job):
        landing = job.body._in_flight is job
        ret = real_wait(job)
        if landing:
            opener, tid = job.body.fabric_placement()
            masks.append((opener, os.sched_getaffinity(tid)))
        return ret

    monkeypatch.setattr(FabricJob, "wait", wait)
    swept = stream_fig1_sweep(LOADS, CYCLES, seed=SEED, warmup=WARMUP)
    assert os.sched_getaffinity(0) == before
    prof = swept.report.profiler
    assert len(masks) == prof.items["simulate"]
    for opener, mask in masks:
        assert opener == prof.caller_cpu and mask == before - {opener}
    assert prof.fabric_cpus and prof.caller_cpu not in prof.fabric_cpus
    assert prof.calls_on_caller_cpu == 0
    assert "windows on it" in prof.render()


def test_the_fabric_overlaps_the_caller(monkeypatch):
    """The caller generates every window after the first while the one
    before it is in flight on the fabric thread — the overlap, read from
    events rather than clocks, so a loaded host cannot fail it (the
    speed the overlap buys is the ``stream_fig1`` bench row's)."""
    in_flight = []
    real_generate = BatchedBeGenerator.generate_window

    def generate_window(self, start, limit):
        in_flight.append(jobs_in_flight())
        return real_generate(self, start, limit)

    monkeypatch.setattr(BatchedBeGenerator, "generate_window", generate_window)
    swept = stream_fig1_sweep(LOADS, 1000, seed=SEED, warmup=WARMUP)
    prof = swept.report.profiler
    assert prof.threaded and len(in_flight) == prof.items["generate"] > 2
    assert in_flight == [0] + [1] * (len(in_flight) - 1)


@one_cpu
def test_the_caller_waits_less_than_the_fabric_works(monkeypatch):
    """While a window simulates the caller books, analyses and generates
    its neighbours, so it waits for less than the fabric works (the
    best of three runs: a loaded host may lend the second CPU away)."""
    fabric = []
    real_land = FabricJob.land

    def land(job):
        if job.threaded and not job._landed:
            job.wait()
            fabric.append(job.seconds)
        return real_land(job)

    monkeypatch.setattr(FabricJob, "land", land)
    for _ in range(3):
        fabric.clear()
        swept = stream_fig1_sweep(LOADS, 1000, seed=SEED, warmup=WARMUP)
        waited = swept.report.profiler.wait_seconds["simulate"]
        assert len(fabric) == swept.report.profiler.items["simulate"]
        if waited < sum(fabric):
            break
    assert waited < sum(fabric)


#: the threaded and serial short sweep, points as JSON, run pinned to one
#: CPU when the host can pin; then the pinned CPU and the fabric thread's
#: mask at each landing
ONE_CPU = """
import dataclasses, json, os, sys
from repro.kernels.batchlevel import FabricJob
pinned = []
if hasattr(os, "sched_setaffinity"):
    pinned = [min(os.sched_getaffinity(0))]
    os.sched_setaffinity(0, set(pinned))
masks, real_wait = [], FabricJob.wait
def wait(job):
    landing = job.body._in_flight is job
    ret = real_wait(job)
    if landing and pinned:
        masks.append(sorted(os.sched_getaffinity(job.body.fabric_placement()[1])))
    return ret
FabricJob.wait = wait
from repro.pipeline import stream_fig1_sweep
loads = (0.0, 0.04, 0.08, 0.14)
runs = [stream_fig1_sweep(loads, 200, seed=7, warmup=65, threaded=threaded)
        for threaded in (True, False)]
print(json.dumps([[dataclasses.astuple(p) for p in run.points] for run in runs]))
print(json.dumps([pinned, masks]))
"""


def test_one_cpu_runs_the_threaded_sweep_bit_identically():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-c", ONE_CPU], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    runs, placed = done.stdout.splitlines()
    threaded, serial = json.loads(runs)
    want = points(stream_fig1_sweep(LOADS, CYCLES, seed=SEED, warmup=WARMUP, threaded=False))
    assert threaded == serial == json.loads(json.dumps(want))
    # a one-CPU mask is the fabric thread's too: there is no other CPU to take
    pinned, masks = json.loads(placed)
    assert all(mask == pinned for mask in masks)
    assert masks or not pinned


def test_no_compiler_runs_the_threaded_sweep_bit_identically(request):
    want = stream_fig1_sweep(LOADS, CYCLES, seed=SEED, warmup=WARMUP).points
    request.getfixturevalue("no_cc")
    starts = []
    real_start = FabricJob.start
    request.getfixturevalue("monkeypatch").setattr(
        FabricJob, "start", lambda job: starts.append(job) or real_start(job)
    )
    swept = stream_fig1_sweep(LOADS, CYCLES, seed=SEED, warmup=WARMUP)
    # stepped per cycle in the caller: no fabric thread was started
    assert swept.points == want and starts == []
