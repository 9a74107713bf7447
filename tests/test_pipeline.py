"""Tests for the streaming five-phase pipeline (:mod:`repro.pipeline`).

The load-bearing property is *equivalence*: streaming the five phases —
the simulation on the fabric thread or in the caller, any chunk size, on
the chunk kernel or stepping per cycle — must produce byte-identical
engine state, logs, driver state, drain counts and statistics to the
monolithic :class:`~repro.traffic.stimuli.TrafficDriver` /
``run_batched`` loop it wraps.
"""

from __future__ import annotations

import copy
import sys
import warnings

import pytest

from repro.engines import (
    BatchEngine,
    CycleEngine,
    SequentialEngine,
    drain_batched,
    lane_views,
    run_batched,
)
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels.batchlevel import CompiledBatchLevel, jobs_in_flight
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.packet import segment
from repro.pipeline import run_pipeline
from repro.stats import PacketLatencyTracker
from repro.traffic import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    TrafficDriver,
    uniform_random,
)
from repro.traffic.stimuli import FLIT_BUDGET, FlitEncoder, NetworkOverloadError
from tests.test_batch_levelized import (
    FIG1_LANE_LOADS,
    capture_generator,
    fig1_driver,
    fig1_lane_digest,
    full_digest,
    make_drivers,
    needs_jit,
    run_fig1_batched,
    torus,
)


def small_net(queue_depth: int = 4) -> NetworkConfig:
    return NetworkConfig(
        4, 4, topology="torus", router=RouterConfig(queue_depth=queue_depth)
    )


def make_traffic(net, load=0.08, seed=0xA5, with_gt=False):
    be = BernoulliBeTraffic(net, load, uniform_random(net), seed=seed)
    gt = None
    if with_gt:
        table = fig1_gt_streams(net)
        gt = GtStreamTraffic(net, table.streams, period=200)
    return be, gt


def lane_drivers(engine, traffic, **kwargs):
    """One plain driver per lane view over ``traffic``'s ``(be, gt)``
    pairs: what :func:`run_pipeline` takes."""
    return [
        TrafficDriver(view, be=be, gt=gt, **kwargs)
        for view, (be, gt) in zip(lane_views(engine), traffic)
    ]


def classic_run(engine, be, gt, cycles):
    """The monolithic reference loop: TrafficDriver run + drain."""
    driver = TrafficDriver(engine, be=be, gt=gt)
    tracker = PacketLatencyTracker(engine.cfg)
    driver.attach_tracker(tracker)
    driver.run(cycles)
    driver.be = None
    driver.gt = None
    done = driver.drain()
    tracker.collect(engine)
    return driver, tracker, done


def assert_engines_equal(a, b):
    assert a.cycle == b.cycle
    assert a.snapshot() == b.snapshot()
    assert list(a.injections) == list(b.injections)
    assert list(a.ejections) == list(b.ejections)


def spy_paths(monkeypatch, flits=None):
    """Count the two ways a batch engine can advance: whole windows (one
    call of the chunk body each, in the caller or on the fabric thread:
    the window lengths; their flit counts go to ``flits``) and single
    ``BatchEngine.step``s."""
    chunks, steps = [], []
    real_prepare, real_step = CompiledBatchLevel.prepare, BatchEngine.step

    def prepare(self, drivers, k, window=None, done=None):
        if done is None:  # a window, not a drain
            chunks.append((k, window is not None))
            if flits is not None:
                flits.append(window.flits.shape[1])
        return real_prepare(self, drivers, k, window, done)

    def step(self):
        steps.append(self.cycle)
        return real_step(self)

    monkeypatch.setattr(CompiledBatchLevel, "prepare", prepare)
    monkeypatch.setattr(BatchEngine, "step", step)
    return chunks, steps


def fig1_traffic():
    """The Fig. 1 driver set of ``test_batch_levelized`` as ``(be, gt)``
    pairs: 36 GT streams per lane, loads 0.0-0.14 on a shared seed, a
    zero-load lane and a ``be=None`` lane."""
    net = fig1_network()
    streams = fig1_gt_streams(net).streams
    sources = [fig1_driver(CycleEngine(net), load, streams) for load in FIG1_LANE_LOADS]
    return [(d.be, d.gt) for d in sources]


def stream_fig1_set(cycles, **kwargs):
    """Stream the Fig. 1 set; one digest per lane, comparable to
    :func:`fig1_lane_digest` (the trackers are the report's), and the
    drivers."""
    engine = BatchEngine(fig1_network(), lanes=len(FIG1_LANE_LOADS))
    traffic = fig1_traffic()
    drivers = lane_drivers(engine, traffic)
    report = run_pipeline(engine, drivers, cycles, **kwargs)
    digests = []
    for lane, (be, gt) in enumerate(traffic):
        view, driver = engine.lane(lane), drivers[lane]
        digests.append(
            (
                view.snapshot(),
                [r.__dict__ for r in view.injections],
                [r.__dict__ for r in view.ejections],
                repr(driver.submits),
                report.trackers[lane].samples,
                None if be is None else (be.rng.state, be.rng.words_read, list(be._seq)),
                list(gt._seq),
                list(driver._be_vc_toggle),
                dict(driver._stall),
                report.done_cycles[lane],
            )
        )
    return engine, report, digests, drivers


@pytest.fixture(scope="module")
def fig1_reference():
    """``run_batched`` + ``drain_batched`` over the Fig. 1 set (itself
    equal to the solo golden engine: re-checked here on two lanes)."""
    cycles = 300
    engine, lanes = run_fig1_batched("auto", cycles)
    streams = fig1_gt_streams(fig1_network()).streams
    for lane in (2, 3):  # be=None and the heaviest load
        golden = CycleEngine(fig1_network())
        driver = fig1_driver(golden, FIG1_LANE_LOADS[lane], streams)
        be, gt = driver.be, driver.gt
        driver.run(cycles)
        driver.be = driver.gt = None
        drained = driver.drain()
        golden.run(engine.cycle - golden.cycle)
        assert lanes[lane] == fig1_lane_digest(golden, driver, be, gt, drained)
    return cycles, engine.cycle, lanes


class TestChunkedGenerators:
    def test_bernoulli_chunks_match_per_cycle(self):
        net = small_net()
        be_chunked, _ = make_traffic(net, load=0.12, seed=3)
        be_serial = copy.deepcopy(be_chunked)
        serial = [be_serial.packets_for_cycle(c) for c in range(500)]
        chunked = []
        lo = 0
        while lo < 500:  # deliberately odd chunk boundary
            hi = min(lo + 37, 500)
            chunked.extend(be_chunked.packets_for_cycles(lo, hi))
            lo = hi
        assert chunked == serial
        # the internal state advanced identically: the next packets agree
        assert be_chunked.packets_for_cycles(500, 510) == [
            be_serial.packets_for_cycle(c) for c in range(500, 510)
        ]

    def test_gt_chunks_match_per_cycle(self):
        net = small_net()
        _, gt_chunked = make_traffic(net, with_gt=True)
        gt_serial = copy.deepcopy(gt_chunked)
        serial = [gt_serial.packets_for_cycle(c) for c in range(450)]
        chunked = []
        lo = 0
        while lo < 450:
            hi = min(lo + 41, 450)
            chunked.extend(gt_chunked.packets_for_cycles(lo, hi))
            lo = hi
        assert chunked == serial


class TestFlitEncoder:
    def test_words_match_segment_encode(self):
        net = small_net()
        be, gt = make_traffic(net, load=0.15, seed=11, with_gt=True)
        encoder = FlitEncoder(net)
        dw = net.router.data_width
        packets = []
        for cycle in range(200):
            packets.extend(p for p, _vc in gt.packets_for_cycle(cycle))
            packets.extend(be.packets_for_cycle(cycle))
        assert packets
        for packet in packets:
            expected = tuple(f.encode(dw) for f in segment(packet, net))
            assert encoder.words(packet) == expected
            # cache-hit path returns the same words again
            assert encoder.words(packet) == expected


class TestPipelineEquivalence:
    @pytest.mark.parametrize("engine_cls", [SequentialEngine, CycleEngine])
    def test_streamed_matches_classic_driver(self, engine_cls):
        net = small_net()
        cycles = 400
        be, gt = make_traffic(net, with_gt=True)
        classic_engine = engine_cls(net)
        driver, classic_tracker, done = classic_run(
            classic_engine, copy.deepcopy(be), copy.deepcopy(gt), cycles
        )

        streamed_engine = engine_cls(net)
        (streamed,) = drivers = lane_drivers(streamed_engine, [(be, gt)])
        report = run_pipeline(streamed_engine, drivers, cycles, chunk=64)
        assert_engines_equal(streamed_engine, classic_engine)
        assert report.done_cycles == [done]
        assert report.trackers[0].samples == classic_tracker.samples
        assert report.trackers[0].stats() == classic_tracker.stats()
        # the pipeline ran the caller's driver: same state left behind
        assert streamed.flits_generated == driver.flits_generated
        assert streamed._stall == driver._stall
        assert list(streamed._be_vc_toggle) == list(driver._be_vc_toggle)
        assert list(streamed.queues) == list(driver.queues)
        assert report.analyze.submit_counts == [len(driver.submits)]
        assert streamed.submits == driver.submits and streamed.tracker is None

    @pytest.mark.parametrize("kernel", ["python", "auto"])
    def test_every_submit_is_noted_once(self, kernel):
        # golden lanes step each span cycle by cycle, the compiled body
        # runs windows: either way each submit is noted once, and a
        # drained run leaves none unmatched
        net = small_net()
        engine = BatchEngine(net, lanes=2, kernel=kernel)
        traffic = [make_traffic(net, seed=seed, with_gt=True) for seed in (3, 4)]
        drivers = lane_drivers(engine, traffic)
        report = run_pipeline(engine, drivers, 300, chunk=32)
        for tracker, driver in zip(report.trackers, drivers):
            assert tracker.pending() == []
            assert len(tracker.samples) == len(driver.submits) > 20
        assert report.analyze.submit_counts == [len(d.submits) for d in drivers]

    def test_batch_lanes_match_classic_batched(self):
        net = small_net()
        cycles, lanes = 300, 4
        seeds = [0xA5 + i for i in range(lanes)]
        classic_engine = BatchEngine(net, lanes=lanes)
        drivers = [
            TrafficDriver(
                classic_engine.lane(i),
                be=BernoulliBeTraffic(
                    net, 0.08, uniform_random(net), seed=seeds[i]
                ),
            )
            for i in range(lanes)
        ]
        trackers = [PacketLatencyTracker(net) for _ in range(lanes)]
        for driver, tracker in zip(drivers, trackers):
            driver.attach_tracker(tracker)
        run_batched(classic_engine, drivers, cycles)
        for driver in drivers:
            driver.be = None
        done = drain_batched(classic_engine, drivers)
        for i, tracker in enumerate(trackers):
            tracker.collect(classic_engine.lane(i))

        streamed_engine = BatchEngine(net, lanes=lanes)
        traffic = [
            (BernoulliBeTraffic(net, 0.08, uniform_random(net), seed=s), None)
            for s in seeds
        ]
        report = run_pipeline(
            streamed_engine, lane_drivers(streamed_engine, traffic), cycles, chunk=64
        )
        assert streamed_engine.snapshot() == classic_engine.snapshot()
        assert report.done_cycles == list(done)
        for i in range(lanes):
            assert list(streamed_engine.lane_injections(i)) == list(
                classic_engine.lane_injections(i)
            )
            assert list(streamed_engine.lane_ejections(i)) == list(
                classic_engine.lane_ejections(i)
            )
            assert report.trackers[i].samples == trackers[i].samples

    def test_serial_fallback_identical_to_threaded(self):
        net = small_net()
        cycles = 300
        be, gt = make_traffic(net, with_gt=True)
        threaded_engine = SequentialEngine(net)
        (threaded_driver,) = drivers = lane_drivers(
            threaded_engine, [(copy.deepcopy(be), copy.deepcopy(gt))]
        )
        threaded = run_pipeline(threaded_engine, drivers, cycles)
        serial_engine = SequentialEngine(net)
        (serial_driver,) = drivers = lane_drivers(serial_engine, [(be, gt)])
        serial = run_pipeline(serial_engine, drivers, cycles, threaded=False)
        assert_engines_equal(threaded_engine, serial_engine)
        assert threaded.done_cycles == serial.done_cycles
        assert threaded_driver.flits_generated == serial_driver.flits_generated
        assert threaded.trackers[0].samples == serial.trackers[0].samples
        assert threaded.profiler.threaded and not serial.profiler.threaded

    @pytest.mark.parametrize("chunk", [32, 128, 1000])
    def test_chunk_size_invariance(self, chunk):
        net = small_net()
        cycles = 200
        be, _ = make_traffic(net)
        reference_engine = SequentialEngine(net)
        _, ref_tracker, _ = classic_run(
            reference_engine, copy.deepcopy(be), None, cycles
        )
        engine = SequentialEngine(net)
        report = run_pipeline(
            engine, lane_drivers(engine, [(be, None)]), cycles, chunk=chunk
        )
        assert_engines_equal(engine, reference_engine)
        assert report.trackers[0].samples == ref_tracker.samples

    @needs_jit
    @pytest.mark.parametrize("threaded", [True, False], ids=["threaded", "serial"])
    @pytest.mark.parametrize("chunk", [1, 7, 50, 128, 200])
    def test_streamed_fig1_set_equals_batched_and_solo_golden(
        self, fig1_reference, monkeypatch, chunk, threaded
    ):
        cycles, end_cycle, reference = fig1_reference
        flits = []
        chunks, steps = spy_paths(monkeypatch, flits)
        engine, report, streamed, drivers = stream_fig1_set(
            cycles, chunk=chunk, threaded=threaded
        )
        assert engine.kernel == "jit" and engine.cycle == end_cycle
        assert streamed == reference
        assert report.analyze.submit_counts == [
            lane[3].count("SubmitRecord(") for lane in reference
        ]
        # path accounting: one call of the body per window, every window
        # handed over encoded; the drain is one more call into the body
        # and BatchEngine.step never runs.  A window is `chunk` cycles,
        # or as many of them as its flit budget allows (this set stages
        # 100-170 flits a cycle: 40-65 cycles); the next starts where it
        # ended.
        lengths = [k for k, _ in chunks]
        assert all(encoded for _, encoded in chunks) and sum(lengths) == cycles
        assert all(
            k == chunk or held >= FLIT_BUDGET for k, held in zip(lengths[:-1], flits)
        )
        if chunk <= 7:
            full, rest = divmod(cycles, chunk)
            assert lengths == [chunk] * full + [rest] * bool(rest)
        else:
            assert lengths[0] == 49 and max(lengths) <= min(chunk, 65)
        assert steps == [] and engine.kernel_drain_cycles == end_cycle - cycles
        assert end_cycle - cycles == max(report.done_cycles)
        assert sum(d.flits_generated for d in drivers) == sum(report.analyze.inj_counts)
        assert not any(d.overloaded for d in drivers)

    @needs_jit
    def test_streamed_batch_run_builds_no_record(self, monkeypatch):
        # test_event_log's zero-records guard, extended to retrieve +
        # analyze — and to the way in: no packet, submit record or
        # stimuli entry either (the Fig. 1 GT + BE set, and BE alone)
        from repro.noc.packet import Packet
        from repro.traffic.stimuli import StimuliEntry, SubmitRecord

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the streamed path")

        for be_only in (False, True):
            traffic = fig1_traffic()
            if be_only:
                traffic = [(be, None) for be, _ in traffic]
            with monkeypatch.context() as patch:
                for cls in (InjectionRecord, EjectionRecord, Packet, SubmitRecord, StimuliEntry):
                    patch.setattr(cls, "__init__", forbidden)
                engine = BatchEngine(fig1_network(), lanes=len(FIG1_LANE_LOADS))
                drivers = lane_drivers(engine, traffic)
                report = run_pipeline(engine, drivers, 200, chunk=64)
            assert sum(report.analyze.ej_counts) > (300 if be_only else 1000)
            assert sum(len(t.samples) for t in report.trackers) > (40 if be_only else 100)
            assert report.analyze.submit_counts == [len(d.submits) for d in drivers]
            assert report.analyze.inj_counts == [
                len(engine.lane_injections(i)) for i in range(engine.lanes)
            ]
            routers = [r.router for r in engine.lane_ejections(3)]
            assert report.analyze.eject_router_counts[3].tolist() == [
                routers.count(router) for router in range(engine.cfg.n_routers)
            ]

    @needs_jit
    def test_generate_ahead_never_touches_the_simulate_side(self):
        # window k+1 is generated, and window k-1 booked and analysed,
        # while window k simulates on the fabric thread: were either to
        # touch the queues, the state arrays or the call buffers, staging
        # would see a changing store / the runs would diverge
        cycles = 96
        serial = stream_fig1_set(cycles, chunk=8, threaded=False)[2]
        for _ in range(20):
            threaded = stream_fig1_set(cycles, chunk=8)[2]
            assert threaded == serial

    @needs_jit
    def test_numpy_env_streams_per_cycle_bit_identically(
        self, fig1_reference, monkeypatch, request
    ):
        cycles, end_cycle, reference = fig1_reference
        chunks, steps = spy_paths(monkeypatch)
        request.getfixturevalue("no_cc")
        engine, _, streamed, _ = stream_fig1_set(cycles, chunk=50)
        assert engine.kernel == "python" and engine._compiled is None
        assert chunks == [] and steps == list(range(end_cycle))
        assert streamed == reference

    @needs_jit
    def test_hooked_engine_steps_through_the_drivers_generators(
        self, fig1_reference, monkeypatch
    ):
        # an opaque hook makes chunk_decline object: the serial loop of
        # run_batched steps every cycle, each lane generating it itself
        from repro.kernels.trafficgen import BatchedBeGenerator

        cycles, end_cycle, reference = fig1_reference
        chunks, steps = spy_paths(monkeypatch)
        generated, scanned = [], []
        real_generate = TrafficDriver.generate
        monkeypatch.setattr(
            TrafficDriver,
            "generate",
            lambda driver, cycle: (generated.append(cycle), real_generate(driver, cycle))[1],
        )
        monkeypatch.setattr(
            BatchedBeGenerator, "generate_window", lambda *args: scanned.append(args)
        )
        engine = BatchEngine(fig1_network(), lanes=len(FIG1_LANE_LOADS))
        engine.pre_step_hooks.append(lambda e: None)
        drivers = lane_drivers(engine, fig1_traffic())
        report = run_pipeline(engine, drivers, cycles, chunk=50)
        assert chunks == [] and len(steps) == end_cycle and scanned == []
        assert generated == [c for c in range(cycles) for _ in FIG1_LANE_LOADS]
        for lane, want in enumerate(reference):
            assert engine.lane_snapshot(lane) == want[0]
            assert report.trackers[lane].samples == want[4]
            assert drivers[lane]._stall == want[8]

    def test_incremental_stats_match_end_of_run(self):
        net = small_net()
        be, gt = make_traffic(net, with_gt=True)
        engine = SequentialEngine(net)
        report = run_pipeline(engine, lane_drivers(engine, [(be, gt)]), 300, chunk=64)
        # the analysis's counters equal the full logs they never held
        assert report.analyze.inj_counts[0] == len(engine.injections)
        assert report.analyze.ej_counts[0] == len(engine.ejections)
        hist = report.analyze.histograms[0]
        samples = report.trackers[0].samples
        assert hist.total == len(samples)
        throughput = report.analyze.throughput(0, engine.cycle)
        assert throughput.flits_injected == len(engine.injections)
        assert throughput.flits_ejected == len(engine.ejections)


class TestPipelineErrors:
    def test_overload_root_cause_survives_abort(self):
        # a per-cycle engine: each span steps cycle by cycle through the
        # driver's own generators, and stops where the classic driver
        # loop stops
        net = small_net(queue_depth=1)
        be = BernoulliBeTraffic(net, 0.95, uniform_random(net), seed=1)
        classic_engine = CycleEngine(net)
        classic = TrafficDriver(classic_engine, be=copy.deepcopy(be), stall_limit=50)
        with pytest.raises(NetworkOverloadError) as want:
            classic.run(2000)
        engine = CycleEngine(net)
        (streamed,) = drivers = lane_drivers(engine, [(be, None)], stall_limit=50)
        with pytest.raises(NetworkOverloadError) as got:
            run_pipeline(engine, drivers, 2000, chunk=64)
        assert str(got.value) == str(want.value)
        assert engine.cycle == classic_engine.cycle and engine.cycle % 64
        assert_engines_equal(engine, classic_engine)
        assert streamed.overloaded and streamed.submits == classic.submits
        assert streamed.flits_generated == classic.flits_generated
        assert {k: list(q) for k, q in streamed.queues.items()} == {
            k: list(q) for k, q in classic.queues.items()
        }
        assert list(streamed.queues) == list(classic.queues)
        assert streamed._stall == classic._stall
        assert (be.rng.state, be.rng.words_read, be._seq) == (
            classic.be.rng.state, classic.be.rng.words_read, classic.be._seq
        )
        assert streamed._be_vc_toggle == classic._be_vc_toggle

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_chunk_must_be_positive(self, chunk):
        net = small_net()
        be, _ = make_traffic(net)
        engine = SequentialEngine(net)
        with pytest.raises(ValueError, match="chunk must be >= 1"):
            run_pipeline(engine, lane_drivers(engine, [(be, None)]), 50, chunk=chunk)
        assert engine.cycle == 0

    def test_driver_with_a_tracker_is_refused(self):
        # the report's trackers do the analysis: a second one would see
        # every submit twice over two matching bodies
        net = small_net()
        be, _ = make_traffic(net)
        engine = BatchEngine(net, lanes=2)
        drivers = lane_drivers(engine, [(be, None), (None, None)])
        drivers[1].attach_tracker(PacketLatencyTracker(net))
        with pytest.raises(ValueError, match="lane 1's driver has a tracker"):
            run_pipeline(engine, drivers, 50)
        assert engine.cycle == 0 and jobs_in_flight() == 0

    @needs_jit
    def test_mid_chunk_overload_raises_the_reference_message(self):
        # at the landing, with the reference's diagnostic, cycle, fabric
        # state, events, metrics, stall counters — and driver state: the
        # generate side ran a window ahead, and the failing window's
        # source rewound it (queues, submits, RNG, seq)
        reference = BatchEngine(torus(queue_depth=1), lanes=2, kernel="python")
        ref_drivers = make_drivers(reference, 0.8, stall_limit=20)
        with pytest.raises(NetworkOverloadError) as want:
            run_batched(reference, ref_drivers, 2000)
        assert [d.overloaded for d in ref_drivers] == [True, False]

        # chunk=16: the overload (cycle 63) is chunks behind the generator
        engine = BatchEngine(torus(queue_depth=1), lanes=2)
        drivers = make_drivers(engine, 0.8, stall_limit=20)
        with pytest.raises(NetworkOverloadError) as got:
            run_pipeline(engine, drivers, 2000, chunk=16)
        assert str(got.value) == str(want.value)
        assert engine.cycle == reference.cycle and engine.cycle % 16
        assert full_digest(engine, drivers) == full_digest(reference, ref_drivers)

        # every call in the caller, 50-cycle windows: the overload flag
        # is the drivers' own
        engine = BatchEngine(torus(queue_depth=1), lanes=2)
        drivers = make_drivers(engine, 0.8, stall_limit=20)
        with pytest.raises(NetworkOverloadError):
            run_pipeline(engine, drivers, 2000, chunk=50, threaded=False)
        assert [d.overloaded for d in drivers] == [d.overloaded for d in ref_drivers]
        assert full_digest(engine, drivers) == full_digest(reference, ref_drivers)

    def test_traffic_lane_mismatch(self):
        net = small_net()
        be, _ = make_traffic(net)
        engine = BatchEngine(net, lanes=3)
        with pytest.raises(ValueError, match="lanes"):
            run_pipeline(engine, [TrafficDriver(engine.lane(0), be=be)], 50)


class TestStreamedExperimentSweeps:
    def test_fig1_stream_param_matches_batched(self):
        from repro.experiments import fig1

        loads = (0.0, 0.04, 0.08, 0.12)
        streamed = fig1.run(loads=loads, cycles=150, stream=True)
        batched = fig1.run(loads=loads, cycles=150, stream=False)
        assert streamed.points == batched.points

    def test_patterns_stream_param_matches_batched(self):
        from repro.experiments import patterns

        streamed = patterns.run(cycles=250, stream=True)
        batched = patterns.run(cycles=250, stream=False)
        assert streamed.points == batched.points

    @needs_jit
    def test_pattern_sweep_is_scanned_in_c_and_chunks(self, monkeypatch):
        from repro.experiments.patterns import PATTERNS, run_patterns_batched
        from repro.pipeline import stream_pattern_sweep

        made = capture_generator(monkeypatch)
        chunks, steps = spy_paths(monkeypatch)
        swept = stream_pattern_sweep(PATTERNS, 300, chunk=128)
        # transpose/hotspot: the C scan, one run_chunk per chunk
        assert len(made) == 1
        assert chunks == [(128, True), (128, True), (44, True)]
        assert steps == [] and max(swept.report.done_cycles) > 0  # drained in C
        chunks.clear()
        assert swept.points == run_patterns_batched(PATTERNS, 300)
        assert chunks and all(window for _, window in chunks)

    @pytest.mark.parametrize("host", ["cc", "no_cc"])
    def test_the_batched_analysis_reads_the_logs_by_table(self, host, request, monkeypatch):
        """The one analysis pass of a batched Fig. 1 sweep names every
        lane's events by the packed logs' block tables: no lane view,
        log piece or per-lane block list is built on the compiled path,
        and the points are the solo golden engine's.  A host without a
        compiler runs golden lanes, whose record logs the NumPy body
        matches, to the same points."""
        import dataclasses

        import repro.engines
        from repro.engines import CycleEngine, eventlog
        from repro.experiments.common import run_fig1_workload, run_fig1_workloads_batched

        def refused(*args, **kwargs):
            raise AssertionError("the analysis read a log lane by lane")

        loads, sized = (0.0, 0.06, 0.14), dict(seed=7, warmup=65)
        # extra_delta_fraction is the engine's own accounting, not a result
        golden = [
            dataclasses.replace(
                run_fig1_workload(load, 150, engine_cls=CycleEngine, **sized),
                extra_delta_fraction=None,
            )
            for load in loads
        ]
        if host == "no_cc":
            request.getfixturevalue("no_cc")
        else:
            for owner, name in (
                (eventlog.LaneView, "blocks"),
                (eventlog.PackedLog, "pieces"),
                (eventlog, "log_blocks"),
            ):
                monkeypatch.setattr(owner, name, refused)
        swept, run_batched = [], repro.engines.run_batched
        monkeypatch.setattr(
            repro.engines,
            "run_batched",
            lambda engine, drivers, cycles: (swept.append(drivers), run_batched(engine, drivers, cycles))[1],
        )
        points = run_fig1_workloads_batched(loads, 150, **sized)
        (drivers,) = swept
        body = "numpy" if host == "no_cc" else "c"
        assert [driver.tracker.kernel for driver in drivers] == [body] * len(loads)
        assert [dataclasses.replace(p, extra_delta_fraction=None) for p in points] == golden
        assert points[-1].be_packets > 20

    @pytest.mark.parametrize("host", ["cc", "no_cc"])
    def test_batched_sweeps_hand_each_driver_its_lanes_tracker(
        self, host, request, monkeypatch
    ):
        """After the one analysis pass each driver the sweep ran holds
        its lane's tracker, with exactly the samples of the streamed
        sweep (Fig. 1) or of the process path (patterns)."""
        import repro.engines
        from repro.experiments import patterns
        from repro.experiments.common import run_fig1_workloads_batched
        from repro.pipeline import stream_fig1_sweep
        from repro.stats import PacketLatencyTracker

        if host == "no_cc":
            request.getfixturevalue("no_cc")
        swept, run_batched = [], repro.engines.run_batched
        monkeypatch.setattr(
            repro.engines,
            "run_batched",
            lambda engine, drivers, cycles: (swept.append(drivers), run_batched(engine, drivers, cycles))[1],
        )
        loads = (0.0, 0.04, 0.08, 0.12)
        run_fig1_workloads_batched(loads, 150, warmup=65)
        streamed = stream_fig1_sweep(loads, 150, warmup=65).report.trackers
        solo, collect = [], PacketLatencyTracker.collect
        monkeypatch.setattr(
            PacketLatencyTracker,
            "collect",
            lambda tracker, engine: (solo.append(tracker), collect(tracker, engine))[1],
        )
        patterns.run_patterns_batched(patterns.PATTERNS, 200)
        assert solo == []  # the batched sweep's pass collects no lane alone
        for name in patterns.PATTERNS:
            patterns.run_pattern(name, 200)
        body = "numpy" if host == "no_cc" else "c"
        for drivers, want in zip(swept, (streamed, solo)):
            assert len(drivers) == len(want)
            for driver, tracker in zip(drivers, want):
                assert driver.tracker.kernel == tracker.kernel == body
                assert driver.tracker.samples == tracker.samples
                assert driver.tracker.pending() == tracker.pending()
        assert all(len(d.tracker.samples) > 20 for d in swept[1])

    #: the Fig. 1 sweep at 1/20 size, unstreamed and streamed (serial,
    #: threaded): which body matched the packets, and the points.
    ANALYSIS_PROBE = """
import dataclasses, json
from repro.experiments.common import run_fig1_workloads_batched
from repro.kernels.trafficgen import PacketMatch
from repro.pipeline import stream_fig1_sweep
from repro.stats import PacketLatencyTracker

calls = {"c": 0, "numpy": 0}

def count(owner, name, body):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[body] += 1
        return real(*args, **kwargs)

    setattr(owner, name, spy)

count(PacketMatch, "lanes", "c")
count(PacketLatencyTracker, "_match_numpy", "numpy")
loads, sized = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14), dict(seed=7, warmup=65)
runs = [run_fig1_workloads_batched(loads, 100, **sized)] + [
    stream_fig1_sweep(loads, 100, threaded=threaded, **sized).points
    for threaded in (False, True)
]
print(json.dumps([calls, [[dataclasses.astuple(p) for p in run] for run in runs]]))
"""

    @needs_jit
    def test_fig1_analysis_path_accounting(self, tmp_path):
        """With the kernel bound phase five never enters the NumPy body;
        on a host whose PATH holds no C compiler it never calls C; same
        points."""
        import json
        import os
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

        def probe(path):
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PATH=path)
            env.pop("CC", None)
            done = subprocess.run(
                [sys.executable, "-c", self.ANALYSIS_PROBE],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return json.loads(done.stdout)

        bound, points = probe(os.environ["PATH"])
        degraded, same_points = probe(str(tmp_path))  # a PATH without cc
        # 8 lanes: unstreamed, one pass for every lane after the drain;
        # streamed, one a window (two of 128 cycles and the drain) for
        # every lane at once, serial and threaded
        assert bound["numpy"] == 0 and bound["c"] == 1 + 2 * 3
        assert degraded["c"] == 0 and degraded["numpy"] >= bound["c"]
        assert points == same_points and points[0] == points[1] == points[2]


class TestOverlapCrosscheck:
    def _controller_report(self):
        from repro.platform import SimulationController

        net = small_net()
        be = BernoulliBeTraffic(net, 0.05, uniform_random(net), seed=7)
        controller = SimulationController(SequentialEngine(net), be=be)
        return controller.run(256)

    def test_modeled_overlap_accumulates(self):
        report = self._controller_report()
        assert report.modeled_overlap_seconds > 0
        assert 0.0 <= report.modeled_overlap_efficiency <= 1.0

    def test_crosscheck_warns_on_divergence(self):
        from repro.platform import PipelineProfiler, crosscheck_overlap

        report = self._controller_report()
        assert report.modeled_overlap_efficiency > 0.2  # workload premise

        # a pipeline run that realised no overlap at all: diverges
        stalled = PipelineProfiler()
        stalled.busy_seconds = {"simulate": 1.0, "generate": 1.0}
        stalled.wall_seconds = 2.0
        with pytest.warns(RuntimeWarning, match="diverges"):
            divergence = crosscheck_overlap(report, stalled)
        assert divergence == pytest.approx(report.modeled_overlap_efficiency)
        assert report.overlap_divergence == divergence
        assert report.measured_overlap_seconds == 0.0

        # a pipeline run matching the model: no warning
        agreeing = PipelineProfiler()
        agreeing.busy_seconds = {"simulate": 1.0, "generate": 1.0}
        agreeing.wall_seconds = 2.0 - report.modeled_overlap_efficiency
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert crosscheck_overlap(report, agreeing) == pytest.approx(0.0)


    def test_overlap_uses_cpu_seconds_when_recorded(self):
        from repro.platform import PipelineProfiler

        prof = PipelineProfiler()
        prof.busy_seconds = {"simulate": 1.0, "generate": 1.0}  # incl. lock waits
        prof.wall_seconds = 1.2
        assert prof.overlap_efficiency() == pytest.approx(0.8)
        prof.cpu_seconds = {"simulate": 0.8, "generate": 0.4}
        assert prof.serial_seconds == pytest.approx(1.2)
        assert prof.overlap_efficiency() == pytest.approx(0.0)  # wall == CPU cost
        with prof.busy("analyze"):
            sum(range(20000))
        assert 0.0 < prof.cpu_seconds["analyze"] <= prof.busy_seconds["analyze"] * 1.5
        assert "cpu s" in prof.render()


@pytest.mark.pipeline_smoke
class TestPipelineSmoke:
    """A deliberately tiny two-chunk streamed run — cheap enough for
    every CI pass, selectable standalone with ``-m pipeline_smoke``."""

    def test_two_chunk_streamed_run(self):
        net = small_net()
        be, _ = make_traffic(net, load=0.06, seed=9)
        engine = SequentialEngine(net)
        report = run_pipeline(engine, lane_drivers(engine, [(be, None)]), 64, chunk=32)
        prof = report.profiler
        assert prof.items["simulate"] == 2
        assert prof.items["generate"] == 2
        assert report.analyze.inj_counts[0] > 0
        assert report.analyze.ej_counts[0] > 0
        assert engine.cycle >= 64  # measured cycles plus drain
        assert prof.wall_seconds > 0
        assert set(prof.wait_seconds) <= {"simulate"}  # the caller waits on the fabric only
        stages = {"generate", "simulate", "retrieve", "analyze"}  # the scan loads
        assert set(prof.cpu_seconds) == set(prof.busy_seconds) == stages
        assert all(seconds >= 0.0 for seconds in prof.cpu_seconds.values())
        assert prof.cpu_seconds["simulate"] > 0.0


class TestAbortCleanup:
    """Aborting mid-stream — KeyboardInterrupt, watchdog, overload —
    must take the window on the fabric thread back before the run
    unwinds.  The conftest leak fixture re-checks it after each test;
    this makes the abort path explicit."""

    def test_keyboard_interrupt_mid_stream_joins_all_stages(self, monkeypatch):
        from repro.pipeline.runner import Analysis

        calls = []
        original = Analysis.add

        def bomb(analysis, *window):
            calls.append(window)
            if len(calls) == 2:  # window 1's analysis, window 2 on the fabric
                raise KeyboardInterrupt("operator hit ctrl-c")
            return original(analysis, *window)

        monkeypatch.setattr(Analysis, "add", bomb)
        net = small_net()
        be, _ = make_traffic(net)
        engine = SequentialEngine(net)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(
                engine, lane_drivers(engine, [(copy.deepcopy(be), None)]), 300, chunk=32
            )
        assert jobs_in_flight() == 0
        # the window on the fabric was landed and booked on the way out
        assert engine.cycle == 3 * 32
        reference = SequentialEngine(net)
        TrafficDriver(reference, be=be).run(engine.cycle)
        assert_engines_equal(engine, reference)
