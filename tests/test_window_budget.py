"""A traffic window is a flit budget, and the LFSR scan looks ahead.

Two contracts of the generate phase (DESIGN section 10):

* ``WindowSource.scan(start, limit)`` ends a window at the first cycle
  boundary at which it holds ``FLIT_BUDGET`` flits.  Where the cuts fall
  is invisible in every simulated result: one-flit windows, the default
  and a budget no run reaches give the same snapshots, event columns,
  submit logs, tracker samples, stall counters and per-cycle delta
  columns, all equal to the golden cycle engine — through an overload
  that rewinds a cut window, and with fast-forward on or off.
* ``repro_gen_be`` reads the next four words of an LFSR state at once
  and takes them all when none is a hit.  Word for word it is the serial
  scan on :class:`~repro.traffic.rng.HardwareLfsr`: a hit at any block
  position, back-to-back hits, rejection-sampled destinations, fabrics
  whose source count is no multiple of four, in generate and probe mode.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, CycleEngine, SequentialEngine, lane_views
from repro.engines.batch import drain_batched, run_batched, window_source
from repro.engines.eventlog import record_block
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels import trafficgen
from repro.kernels.batchlevel import CompiledBatchLevel
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.stats.latency import PacketLatencyTracker
from repro.traffic import stimuli
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    hotspot,
    transpose,
    uniform_random,
)
from repro.traffic.rng import LOOKAHEAD, HardwareLfsr, lfsr_jump, lookahead_tables
from repro.traffic.stimuli import (
    P_CYCLE,
    P_DEST,
    P_LANE,
    P_SRC,
    NetworkOverloadError,
    TrafficDriver,
)

from tests.test_batch_levelized import (
    PlannedFault,
    capture_generator,
    full_digest,
    make_drivers,
    needs_jit,
    spy_skips,
)

#: a budget no run below reaches: every run is one window.
UNBOUNDED = 10**6


# --------------------------------------------------------------------------
# (a) the look-ahead scan against the serial one
# --------------------------------------------------------------------------

#: fabrics by source count: 4 is one block, the others leave a tail
SHAPES = {4: (2, 2), 6: (3, 2), 9: (3, 3), 36: (6, 6), 100: (10, 10)}
PERIOD = 2**32 - 1
#: a Bernoulli threshold of 4096: hits only where a test plants one
RARE = 2**-20
#: the word before 0xFFFFFFFF, and the probability that makes it a hit:
#: its destination draw then starts on a rejected word
BEFORE_ONES = lfsr_jump(0xFFFFFFFF, PERIOD - 32)
RETRY = (BEFORE_ONES + 1) / 2**32


def seed_reading(word: int, reads: int) -> int:
    """The LFSR state whose ``reads``-th next word is ``word``."""
    return lfsr_jump(word, PERIOD - 32 * reads)


def scan_drivers(n_src, probabilities, seeds):
    """One BE driver per lane drawing at ``probabilities[lane]`` from
    ``seeds[lane]`` (``None``: no BE stream), and the C scan over them."""
    width, height = SHAPES[n_src]
    cfg = NetworkConfig(width, height, topology="torus")
    engine = BatchEngine(cfg, lanes=len(probabilities), kernel="python")
    drivers = []
    for lane, (probability, seed) in enumerate(zip(probabilities, seeds)):
        be = None
        if probability is not None:
            be = BernoulliBeTraffic(cfg, 0.5, uniform_random(cfg), seed=seed)
            be.packet_probability = probability
        drivers.append(TrafficDriver(engine.lane(lane), be=be))
    generator, reason = trafficgen.batched_be_generator(drivers)
    assert reason is None, reason
    return drivers, generator


def serial_rngs(probabilities, seeds):
    return [
        (HardwareLfsr(seed), int(probability * 2**32))
        for probability, seed in zip(probabilities, seeds)
        if probability
    ]


def serial_scan(rngs, n_src, cycles):
    """Generate mode, one ``next_u32`` at a time: ``(live lane, cycle,
    src, dest)`` of every hit."""
    hits = []
    for cycle in range(cycles):
        for lane, (rng, threshold) in enumerate(rngs):
            for src in range(n_src):
                if rng.next_u32() < threshold:
                    dest = rng.next_below(n_src - 1)
                    hits.append((lane, cycle, src, dest + (dest >= src)))
    return hits


def serial_probe(rngs, n_src, limit):
    """Probe mode: the hit-free cycles from here, at most ``limit``;
    a cycle holding a hit is drawn by no lane."""
    for cycle in range(limit):
        before = [(rng.state, rng.words_read) for rng, _ in rngs]
        for rng, threshold in rngs:
            if any(rng.next_u32() < threshold for _ in range(n_src)):
                for (rng, _), state in zip(rngs, before):
                    rng.state, rng.words_read = state
                return cycle
    return limit


def scanned_hits(generator, cycles):
    """Every packet of ``[0, cycles)`` as ``(lane, cycle, src, dest)``,
    window after window."""
    hits, start = [], 0
    while start < cycles:
        window = generator.scan(start, cycles)
        assert start < window.stop <= cycles
        hits += zip(*window.packets[[P_LANE, P_CYCLE, P_SRC, P_DEST]].tolist())
        start = window.stop
    return sorted(hits)


def rng_states(drivers):
    return [
        (d.be.rng.state, d.be.rng.words_read)
        for d in drivers
        if d.be is not None and d.be.packet_probability
    ]


def assert_scan_is_serial(n_src, probabilities, seeds, cycles):
    drivers, generator = scan_drivers(n_src, probabilities, seeds)
    rngs = serial_rngs(probabilities, seeds)
    live = [lane for lane, p in enumerate(probabilities) if p]
    want = sorted(
        (live[lane], cycle, src, dest)
        for lane, cycle, src, dest in serial_scan(rngs, n_src, cycles)
    )
    assert scanned_hits(generator, cycles) == want
    assert rng_states(drivers) == [(rng.state, rng.words_read) for rng, _ in rngs]
    return want, drivers


def assert_probe_is_serial(n_src, probabilities, seeds, limit):
    drivers, generator = scan_drivers(n_src, probabilities, seeds)
    rngs = serial_rngs(probabilities, seeds)
    idle = serial_probe(rngs, n_src, limit)
    assert generator.skip_idle(0, limit) == idle
    assert rng_states(drivers) == [(rng.state, rng.words_read) for rng, _ in rngs]
    return idle


@needs_jit
class TestLookaheadScan:
    def test_table_rows_are_successive_reads(self):
        tables = lookahead_tables()
        assert tables.shape == (LOOKAHEAD, 4, 256) and tables.dtype == np.uint32
        assert not tables.flags.writeable and lookahead_tables() is tables
        rng = HardwareLfsr(0xC0FFEE)
        state = rng.state
        for row in tables:
            image = 0
            for position, table in enumerate(row.tolist()):
                image ^= table[(state >> (8 * position)) & 0xFF]
            assert image == rng.next_u32()

    @pytest.mark.parametrize("n_src", sorted(SHAPES))
    def test_a_hit_at_every_block_position_is_the_serial_hit(self, n_src):
        # lane 0 and lane 2 each meet one planted word below the
        # threshold, a dead lane between them; every position of a full
        # block, the tail past the last block and cycle 1 are covered
        positions = sorted({*range(min(n_src, 2 * LOOKAHEAD + 1)), n_src - 1})
        for position in positions:
            for cycle, lane in ((0, 0), (1, 2), (1, 0)):
                seeds = [0xBEE, 0xBEE, 0xFEED]
                seeds[lane] = seed_reading(7, cycle * n_src + position + 1)
                probabilities = (RARE, None, RARE)
                hits, _ = assert_scan_is_serial(n_src, probabilities, seeds, 3)
                assert [hit[:3] for hit in hits] == [(lane, cycle, position)]
                idle = assert_probe_is_serial(n_src, probabilities, seeds, 3)
                assert idle == cycle

    @pytest.mark.parametrize("n_src", sorted(SHAPES))
    def test_back_to_back_hits_and_a_rejected_destination_word(self, n_src):
        # every word a hit: a packet per source, none taken by a block
        hits, drivers = assert_scan_is_serial(n_src, (1.0, 0.0, 1.0), (5, 6, 7), 2)
        assert len(hits) == 2 * 2 * n_src
        # the first word is a hit and the next reads 0xFFFFFFFF: past the
        # rejection span of every fabric but the 9-source one (bound 8)
        seed = seed_reading(BEFORE_ONES, 1)
        hits, drivers = assert_scan_is_serial(n_src, (RETRY,), (seed,), 1)
        assert hits[0][:3] == (0, 0, 0)
        words = drivers[0].be.rng.words_read
        assert words == n_src + len(hits) + (n_src != 9)

    @given(
        n_src=st.sampled_from(sorted(SHAPES)),
        probabilities=st.lists(
            st.sampled_from((None, 0.0, RARE, 0.02, 0.3, RETRY, 1.0)),
            min_size=1, max_size=4,
        ).filter(lambda ps: any(ps)),
        seeds=st.lists(
            st.integers(min_value=1, max_value=PERIOD), min_size=4, max_size=4
        ),
        cycles=st.integers(min_value=1, max_value=5),
        planted=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_scan_and_probe_equal_the_serial_lfsr(
        self, n_src, probabilities, seeds, cycles, planted
    ):
        # the first live lane reads a hit (7 is below every threshold
        # here) as its `planted`-th word, wherever that falls
        live = next(lane for lane, p in enumerate(probabilities) if p)
        seeds = list(seeds)
        seeds[live] = seed_reading(7, planted + 1)
        assert_scan_is_serial(n_src, probabilities, seeds, cycles)
        assert_probe_is_serial(n_src, probabilities, seeds, cycles + 2)


# --------------------------------------------------------------------------
# (b) where the budget cuts is invisible
# --------------------------------------------------------------------------

def event_columns(log, record):
    """Every field of every event of ``log``, one row per field."""
    arrays = getattr(log, "arrays", None)
    if arrays is not None:
        return arrays(0, len(log)).tolist()
    names = [field.name for field in dataclasses.fields(record)]
    return record_block(log, names).tolist()


def lane_columns(view, driver, drained):
    """One lane (or one solo engine) after run + drain + collect: state,
    event columns, submit log, samples, generators, stall counters."""
    driver.tracker.collect(view)
    be, gt = driver.sources
    return (
        view.snapshot(),
        event_columns(view.injections, InjectionRecord),
        event_columns(view.ejections, EjectionRecord),
        repr(driver.submits),
        driver.tracker.samples,
        None if be is None else (be.rng.state, be.rng.words_read, list(be._seq)),
        None if gt is None else list(gt._seq),
        list(driver._be_vc_toggle),
        dict(driver._stall),
        driver.flits_generated,
        drained,
    )


def tracked(driver):
    driver.attach_tracker(PacketLatencyTracker(driver.net))
    driver.sources = (driver.be, driver.gt)
    return driver


def be16_lane(target, lane):
    net = target.cfg
    return TrafficDriver(
        target, be=BernoulliBeTraffic(net, 0.08, uniform_random(net), seed=0xBEE + lane)
    )


#: Fig. 1 in small: shared seed, a zero-load and a BE-less lane, GT
#: streams firing several times in a run
FIG1_LOADS = (0.0, 0.04, None, 0.14, 0.08)


def fig1_lane(target, lane):
    net, load = target.cfg, FIG1_LOADS[lane]
    be = None
    if load is not None:
        be = BernoulliBeTraffic(net, load, uniform_random(net), seed=0x5EED)
    return TrafficDriver(
        target, be=be, gt=GtStreamTraffic(net, fig1_gt_streams(net).streams, period=130)
    )


def hbr_lane(target, lane):
    net = target.cfg
    return TrafficDriver(
        target, be=BernoulliBeTraffic(net, 0.3, uniform_random(net), seed=0xBEE)
    )


def pattern_lane(target, lane):
    net = target.cfg
    pattern = (transpose(net), hotspot(net, target=14, fraction=0.4))[lane]
    return TrafficDriver(
        target,
        be=BernoulliBeTraffic(net, 0.2, pattern, seed=0x7A77),
        gt=GtStreamTraffic(net, fig1_gt_streams(net).streams, period=97),
    )


#: name -> (engine, lanes, lane driver, cycles, windows at the default
#: budget, traffic source)
CASES = {
    "be16": (lambda: BatchEngine(fig1_network(), lanes=16, kernel="levelized"),
             16, be16_lane, 400, 3, "C scan"),
    "fig1": (lambda: BatchEngine(fig1_network(), lanes=5), 5, fig1_lane, 300, 7, "C scan"),
    "hbr": (lambda: SequentialEngine(fig1_network()), 1, hbr_lane, 1000, 2, "C scan"),
    "patterns": (lambda: BatchEngine(fig1_network(), lanes=2), 2, pattern_lane,
                 280, 4, "python"),
}


def run_budgeted(case, budget, monkeypatch):
    """One case under ``budget`` (``None``: the default): per-lane
    columns, the delta column, the engine and the windows it ran."""
    make_engine, lanes, make_lane, cycles, _, source = CASES[case]
    windows = []
    real = CompiledBatchLevel.run_chunk

    def run_chunk(self, drivers, k, window=None):
        windows.append((self.engine.cycle, k, int(window.flits.shape[1])))
        real(self, drivers, k, window)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledBatchLevel, "run_chunk", run_chunk)
        if budget is not None:
            patch.setattr(stimuli, "FLIT_BUDGET", budget)
        engine = make_engine()
        views = lane_views(engine)
        drivers = [tracked(make_lane(view, lane)) for lane, view in enumerate(views)]
        assert (window_source(engine, drivers).reason is None) == (source == "C scan")
        run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = driver.gt = None
    drained = drain_batched(engine, drivers)
    columns = [
        lane_columns(view, driver, done)
        for view, driver, done in zip(views, drivers, drained)
    ]
    return columns, list(engine.metrics.per_cycle), engine, windows


@needs_jit
class TestBudgetWindows:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_flit_default_and_unbounded_windows_equal_the_golden_engine(
        self, case, monkeypatch
    ):
        _, lanes, make_lane, cycles, expected, _ = CASES[case]
        columns, deltas, engine, windows = run_budgeted(case, None, monkeypatch)
        # the default budget cuts this run, at cycle boundaries, each
        # window the first to reach the budget
        assert len(windows) == expected == engine.kernel_windows
        assert [start for start, _, _ in windows] == [
            sum(k for _, k, _ in windows[:i]) for i in range(len(windows))
        ]
        assert sum(k for _, k, _ in windows) == cycles == engine.kernel_window_cycles
        assert all(flits >= stimuli.FLIT_BUDGET for _, _, flits in windows[:-1])
        assert sum(f for _, _, f in windows) == engine.kernel_window_flits

        ones, ones_deltas, _, one_windows = run_budgeted(case, 1, monkeypatch)
        # one flit: a window ends with the first cycle that generated
        assert len(one_windows) > cycles // 3
        assert all(flits > 0 for _, _, flits in one_windows[:-1])
        whole, whole_deltas, _, (one,) = run_budgeted(case, UNBOUNDED, monkeypatch)
        assert one[:2] == (0, cycles)
        assert ones == columns == whole
        assert ones_deltas == deltas == whole_deltas

        total = engine.cycle
        for lane in sorted({0, lanes // 2, lanes - 1}):
            golden = CycleEngine(fig1_network())
            driver = tracked(make_lane(golden, lane))
            driver.run(cycles)
            driver.be = driver.gt = None
            drained = driver.drain()
            golden.run(total - golden.cycle)  # lanes idle until the slowest drained
            assert columns[lane] == lane_columns(golden, driver, drained)
        assert sum(len(lane[1][0]) for lane in columns) > 1000

    def test_a_window_stops_at_the_first_boundary_holding_the_budget(self, monkeypatch):
        # the rule itself, for both sources: against the per-cycle flit
        # counts of one unbounded window
        for make_lane, lanes in ((fig1_lane, 5), (pattern_lane, 2)):
            def source(budget):
                monkeypatch.setattr(stimuli, "FLIT_BUDGET", budget)
                engine = BatchEngine(fig1_network(), lanes=lanes)
                return window_source(
                    engine, [make_lane(engine.lane(i), i) for i in range(lanes)]
                )

            whole = source(UNBOUNDED).generate_window(0, 400)
            assert whole.stop == 400
            per_cycle = np.bincount(whole.flits[stimuli.F_CYCLE], minlength=400)
            for budget in (1, 500, 4000):
                windows, start = source(budget), 0
                while start < 400:
                    window = windows.generate_window(start, 400)
                    held = np.cumsum(per_cycle[start:])
                    reached = int(np.searchsorted(held, budget)) + 1
                    assert window.stop == min(start + reached, 400)
                    assert window.flits.shape[1] == held[window.stop - start - 1]
                    start = window.stop

    def test_the_scan_scratch_is_sized_by_the_budget(self):
        engine = BatchEngine(fig1_network(), lanes=16)
        generator = window_source(engine, make_drivers(engine, 0.08))
        cap = generator._packets.shape[1] // 2
        assert cap == stimuli.FLIT_BUDGET // 3 + 16 * (36 + 1)
        # every lane hitting on every source in the last cycle still fits
        for be in (d.be for d in generator.drivers):
            be.packet_probability = 1.0
        full = window_source(engine, generator.drivers)
        window = full.generate_window(0, 50)
        assert window.stop < 50 and window.packets.shape[1] <= cap
        assert generator._packets.nbytes < 512 * 1024


# --------------------------------------------------------------------------
# (c) an overload inside a cut window
# --------------------------------------------------------------------------

@needs_jit
class TestOverloadInsideACutWindow:
    # the failing lane: a middle one (later lanes have not generated the
    # fatal cycle), the last one
    @pytest.mark.parametrize(
        "pattern, seed, stall_limit, failing",
        [("uniform", 0xBEE, 60, 1), ("transpose", 0x5EED, 40, 2)],
    )
    def test_engine_drivers_and_generators_stop_where_the_reference_stops(
        self, pattern, seed, stall_limit, failing, monkeypatch
    ):
        cfg = NetworkConfig(4, 4, topology="torus", router=RouterConfig(queue_depth=1))
        monkeypatch.setattr(stimuli, "FLIT_BUDGET", 500)
        windows = []
        real = CompiledBatchLevel.run_chunk

        def run_chunk(self, drivers, k, window=None):
            windows.append((self.engine.cycle, self.engine.cycle + k))
            real(self, drivers, k, window)

        monkeypatch.setattr(CompiledBatchLevel, "run_chunk", run_chunk)
        results = {}
        for kernel in ("python", "levelized"):
            engine = BatchEngine(cfg, lanes=3, kernel=kernel)
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(
                        cfg,
                        0.6,
                        uniform_random(cfg) if pattern == "uniform" else transpose(cfg),
                        seed=seed + i,
                    ),
                    stall_limit=stall_limit,
                )
                for i in range(3)
            ]
            source = window_source(engine, drivers)
            with pytest.raises(NetworkOverloadError) as err:
                run_batched(engine, drivers, 2000)
            results[kernel] = (
                str(err.value),
                full_digest(engine, drivers),
                [d.overloaded for d in drivers],
                [
                    (list(d.be._seq), list(d._be_vc_toggle), list(d.queues))
                    for d in drivers
                ],
            )
        assert results["levelized"] == results["python"]
        assert (source.reason is None) == (pattern == "uniform")
        # the fatal window was a later one, cut short by the budget, and
        # the overload fell strictly inside it
        start, stop = windows[-1]
        assert len(windows) > 2 and stop < 2000
        assert start < engine.cycle < stop - 1
        assert results["python"][2].index(True) == failing


# --------------------------------------------------------------------------
# (d) fast-forward across one window of many idle gaps
# --------------------------------------------------------------------------

@needs_jit
class TestFastForwardAcrossALongWindow:
    def test_on_equals_off_in_windows_and_per_cycle(self, monkeypatch):
        cfg, lanes, load, cycles = fig1_network(), 2, 0.0005, 6000
        made = capture_generator(monkeypatch)
        digests = {}
        for name, kernel, fast_forward, hooked in (
            ("reference", "python", False, False),
            ("windows", "levelized", False, False),
            ("windows+ff", "levelized", True, False),
            ("per-cycle+ff", "levelized", True, True),
        ):
            engine = BatchEngine(cfg, lanes=lanes, kernel=kernel)
            drivers = make_drivers(engine, load)
            if hooked:  # dormant to the end: the run steps, and may skip
                engine.pre_step_hooks.append(PlannedFault(cycles, lambda e: None))
            skips = spy_skips(engine)
            run_batched(engine, drivers, cycles, fast_forward=fast_forward)
            digests[name] = full_digest(engine, drivers)
            if name == "windows":
                # one window; its idle gaps are the kernel's to jump
                assert engine.kernel_windows == 1 and not skips
                assert engine.kernel_lane_cycles < lanes * cycles // 2
                packets = sum(len(d.submits) for d in drivers)
                assert packets > 20
            elif name == "windows+ff":
                # the probe fires once, up to the first arrival
                assert len(skips) == 1 and engine.kernel_windows == 1
            elif name == "per-cycle+ff":
                # the probe finds every gap, within its word budget
                assert engine.kernel_windows == 0 and len(skips) > packets // 2
                assert sum(skips) > cycles // 2
                words = made[-1].probe_words
                assert 0 < words <= 2 * lanes * cfg.n_routers * sum(skips)
        assert len(set(map(repr, digests.values()))) == 1
