"""The drain is a chunk: run-to-quiescence inside ``repro_level_chunk``.

``drain_batched`` (and ``TrafficDriver.drain`` on a one-lane compiled
engine) stages the backlogs once and makes one C call; the kernel tests
``done`` where the per-cycle loop tests it — at the top of a cycle,
before the pump: no backlog, nothing buffered, no valid injection
register, a latched eject flag holding nothing back — and returns at the
cycle the last lane was done (DESIGN section 10).  Held here against the
per-cycle ``drain_batched`` of a ``kernel="python"`` engine and against
a solo golden ``CycleEngine`` + ``TrafficDriver.drain`` per lane: the
``done`` list, every snapshot, the event columns with their cycle
stamps, ``engine.cycle``, stall counters and the delta accounting.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, CycleEngine, SequentialEngine, lane_views
from repro.engines.batch import drain_batched, run_batched
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.noc import NetworkConfig, RouterConfig
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    uniform_random,
)
from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver

from tests.helpers import be_packet
from tests.test_batch_levelized import full_digest, make_drivers, needs_jit, torus
from tests.test_window_budget import lane_columns, tracked

pytestmark = needs_jit

#: the Fig. 1 sweep's eight loads on its shared seed, GT firing twice
FIG1_LOADS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14)


def fig1_lane(target, lane):
    net = target.cfg
    return TrafficDriver(
        target,
        be=BernoulliBeTraffic(net, FIG1_LOADS[lane], uniform_random(net), seed=0x5EED),
        gt=GtStreamTraffic(net, fig1_gt_streams(net).streams, period=130),
    )


def be_lane(load):
    def make(target, lane):
        net = target.cfg
        return TrafficDriver(
            target, be=BernoulliBeTraffic(net, load, uniform_random(net), seed=0xBEE + lane)
        )

    return make


def count_steps(monkeypatch):
    """Every ``BatchEngine.step`` from here on: the per-cycle path."""
    steps, real = [], BatchEngine.step

    def step(self):
        steps.append(self.cycle)
        real(self)

    monkeypatch.setattr(BatchEngine, "step", step)
    return steps


def drained_batch(engine, make_lane, cycles, monkeypatch, prepare=None, **limits):
    """Run ``cycles`` (``prepare(engine, {lane: driver})`` first), stop
    the sources, drain: ``(done, per-lane columns, engine cycle, delta
    column)`` and the drain's step count."""
    views = lane_views(engine)
    drivers = [tracked(make_lane(view, lane)) for lane, view in enumerate(views)]
    if prepare is not None:
        prepare(engine, dict(enumerate(drivers)))
    run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = driver.gt = None
    windows = engine.kernel_windows, engine.kernel_window_cycles
    with monkeypatch.context() as patch:
        steps = count_steps(patch)
        done = drain_batched(engine, drivers, **limits)
    assert windows == (engine.kernel_windows, engine.kernel_window_cycles)
    columns = [
        lane_columns(view, driver, at) for view, driver, at in zip(views, drivers, done)
    ]
    return (done, columns, engine.cycle, list(engine.metrics.per_cycle)), len(steps)


def drained_golden(cfg, make_lane, lane, cycles, total, prepare=None):
    """The lane alone on the golden engine, idling — as bulk-synchronous
    lanes do — until the batch's slowest lane drained."""
    golden = CycleEngine(cfg)
    driver = tracked(make_lane(golden, lane))
    if prepare is not None:
        prepare(golden, {lane: driver})
    driver.run(cycles)
    driver.be = driver.gt = None
    done = driver.drain()
    golden.run(total - golden.cycle)
    return lane_columns(golden, driver, done)


def assert_three_ways(cfg, lanes, make_lane, cycles, monkeypatch, prepare=None):
    """Chunked drain == per-cycle drain == solo golden runs."""
    compiled = BatchEngine(cfg, lanes=lanes)
    chunked, steps = drained_batch(compiled, make_lane, cycles, monkeypatch, prepare)
    done, columns, total, _ = chunked
    assert steps == 0 and compiled.kernel_drain_cycles == max(done) == total - cycles
    reference, steps = drained_batch(
        BatchEngine(cfg, lanes=lanes, kernel="python"), make_lane, cycles, monkeypatch, prepare
    )
    assert steps == max(done)
    assert chunked == reference
    for lane in range(lanes):
        assert columns[lane] == drained_golden(cfg, make_lane, lane, cycles, total, prepare)
    return done, compiled


class TestDrainIsAChunk:
    def test_fig1_set_drains_in_one_call(self, monkeypatch):
        done, engine = assert_three_ways(fig1_network(), 8, fig1_lane, 300, monkeypatch)
        # eight lanes, several drain lengths, none of them trivial
        assert len(set(done)) > 3 and min(done) > 0

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("topology", ["mesh", "torus"])
    def test_mesh_and_torus_shallow_and_deep_queues(self, topology, depth, monkeypatch):
        cfg = NetworkConfig(4, 3, topology=topology, router=RouterConfig(queue_depth=depth))
        done, _ = assert_three_ways(cfg, 3, be_lane(0.12), 150, monkeypatch)
        assert len(set(done)) > 1

    def test_lanes_in_every_phase_of_their_last_packet(self, monkeypatch):
        """Ten lanes send the same packet a cycle apart and the sources
        stop while lane 5's tail is ejecting: lanes 0-3 drained long ago
        (done 0), lane 4 drained in the last run cycle and enters with a
        latched eject flag and nothing else (done 0 all the same), lane
        5 ejects its last flit in the drain's first cycle (done 1), the
        rest are in flight."""
        cfg = torus(4, 4)

        def stagger(engine, drivers):
            # lane k's packet is released at cycle k
            for lane, driver in drivers.items():
                packet = be_packet(cfg, 1, 10, nbytes=8)
                driver._submit(packet, cfg.router.be_vcs[0], lane)

        probe = CycleEngine(cfg)
        driver = TrafficDriver(probe)
        stagger(probe, {0: driver})
        flight = driver.drain()  # cycles a packet released at 0 needs
        cycles = flight + 4
        done, engine = assert_three_ways(
            cfg, 10, lambda target, lane: TrafficDriver(target), cycles, monkeypatch, stagger
        )
        assert done == [0, 0, 0, 0, 0, 1, 2, 3, 4, 5]

        # ... and that is what the lanes held at the drain's entry
        entry = BatchEngine(cfg, lanes=10)
        drivers = [TrafficDriver(entry.lane(i)) for i in range(10)]
        stagger(entry, dict(enumerate(drivers)))
        run_batched(entry, drivers, cycles)
        state = entry.state
        assert [state.drained(i) for i in range(10)] == [True] * 5 + [False] * 5
        assert [bool(state.eject_valid[i].any()) for i in range(5)] == [False] * 4 + [True]
        assert state.total_buffered(5) == 1 and not state.inj_valid[5].any()

    def test_backlog_over_an_empty_fabric_and_a_future_release(self, monkeypatch):
        """No cycle has run: lane 0 holds nothing (done 0), lane 1 a
        backlog the pump takes at once, lane 2 one it may not offer
        before cycle 9 — the idle fabric jumps there, the count does
        not."""
        cfg = torus(3, 3)

        def load(engine, drivers):
            for lane, driver in drivers.items():
                for seq in range(3 * (lane > 0)):
                    packet = be_packet(cfg, seq, 8 - seq, seq=seq)
                    driver._submit(packet, cfg.router.be_vcs[0], 9 * (lane == 2))

        done, _ = assert_three_ways(
            cfg, 3, lambda target, lane: TrafficDriver(target), 0, monkeypatch, load
        )
        assert done[0] == 0 < done[1] and done[2] == done[1] + 9

    @given(
        load=st.sampled_from((0.0, 0.02, 0.1, 0.3)),
        seed=st.integers(min_value=1, max_value=2**32 - 8),  # + lane stays 32 bits
        lanes=st.integers(min_value=1, max_value=4),
        cycles=st.integers(min_value=0, max_value=90),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_load_seed_and_lane_count(self, load, seed, lanes, cycles):
        sides = []
        for kernel in ("auto", "python"):
            engine = BatchEngine(torus(), lanes=lanes, kernel=kernel)
            drivers = make_drivers(engine, load, seed=seed)
            run_batched(engine, drivers, cycles)
            for driver in drivers:
                driver.be = None
            sides.append((drain_batched(engine, drivers), full_digest(engine, drivers)))
        assert sides[0] == sides[1]
        assert engine.cycle == cycles + max(sides[0][0])


class TestSequentialEngineDrain:
    """One compiled lane with the HBR pass on: ``TrafficDriver.drain``
    rides the chunk, and the per-cycle delta column is the model's."""

    @staticmethod
    def drained(engine, cycles, burst, **limits):
        net = engine.cfg
        driver = tracked(
            TrafficDriver(engine, be=BernoulliBeTraffic(net, 0.2, uniform_random(net), seed=7))
        )
        driver.run(cycles)
        driver.be = None
        for seq in range(burst):
            driver.send_packet(be_packet(net, 0, 4, nbytes=12, seq=seq), net.router.be_vcs[0])
        done = driver.drain(**limits)
        return lane_columns(engine, driver, done), engine.cycle, list(engine.metrics.per_cycle)

    @pytest.mark.parametrize("cycles, burst", [(200, 0), (0, 12), (40, 12)])
    def test_delta_column_equals_the_model(self, cycles, burst, monkeypatch):
        steps = count_steps(monkeypatch)
        engine = SequentialEngine(torus())
        compiled = self.drained(engine, cycles, burst)
        assert steps == [] and engine.kernel_drain_cycles == engine.cycle - cycles > 0
        assert compiled == self.drained(SequentialEngine(torus(), kernel="python"), cycles, burst)
        if not cycles:
            # no window ever grew the delta plane: the drain outran its
            # capacity and took several calls, invisibly
            capacity = engine._compiled._buffers["deltas"].shape[1]
            assert engine.kernel_drain_cycles > 2 * capacity

    def test_bound_exceeded_keeps_the_drivers_message(self):
        outcomes = []
        for kernel in ("auto", "python"):
            engine = SequentialEngine(torus(), kernel=kernel)
            with pytest.raises(NetworkOverloadError) as err:
                self.drained(engine, 0, 12, max_cycles=50)
            outcomes.append((str(err.value), engine.cycle, engine.snapshot(),
                             list(engine.metrics.per_cycle)))
        assert outcomes[0] == outcomes[1]
        assert re.fullmatch(
            r"lanes \[0\] did not drain within 50 cycles \(\[[1-9]\d*\] flits still queued\)",
            outcomes[0][0],
        )
        assert outcomes[0][1] == 50


class TestDrainErrors:
    @staticmethod
    def loaded(kernel):
        engine = BatchEngine(torus(), lanes=4, kernel=kernel)
        drivers = make_drivers(engine, 0.0)
        # lane k drains k packets' worth of backlog; lane 0 is done at entry
        for lane, driver in enumerate(drivers):
            for seq in range(4 * lane):
                driver.send_packet(
                    be_packet(engine.cfg, 0, 4, nbytes=12, seq=seq), engine.cfg.router.be_vcs[0]
                )
        return engine, drivers

    def test_bound_exceeded_names_the_stuck_lanes(self):
        engine, drivers = self.loaded("auto")
        done = drain_batched(engine, drivers)
        assert done[0] == 0 < done[1] < done[2] < done[3]
        for bound in (0, 1, done[1], done[1] + 1, done[2] + 1, done[3]):
            outcomes = []
            for kernel in ("auto", "python"):
                engine, drivers = self.loaded(kernel)
                with pytest.raises(NetworkOverloadError) as err:
                    drain_batched(engine, drivers, max_cycles=bound)
                outcomes.append((str(err.value), full_digest(engine, drivers)))
            assert outcomes[0] == outcomes[1]
            # a lane done at cycle d is seen done by the test at d, so
            # needs a bound above d
            stuck = [lane for lane in range(4) if done[lane] >= bound]
            queued = [drivers[lane].backlog() for lane in stuck]
            assert outcomes[0][0] == (
                f"lanes {stuck} did not drain within {bound} cycles "
                f"({queued} flits still queued)"
            )
            assert engine.cycle == bound
        engine, drivers = self.loaded("auto")
        assert drain_batched(engine, drivers, max_cycles=done[3] + 1) == done

    def test_stall_limit_overload_inside_the_drain(self):
        outcomes = []
        for kernel in ("auto", "python"):
            engine = BatchEngine(torus(), lanes=3, kernel=kernel)
            drivers = make_drivers(engine, 0.0, stall_limit=6)
            # lanes 1 and 2: every router sends to router 4 at once, which
            # ejects one flit a cycle — the sources wait their turn
            for driver in drivers[1:]:
                for src in (0, 1, 2, 3, 5, 6, 7, 8):
                    for seq in range(3):
                        driver.send_packet(
                            be_packet(engine.cfg, src, 4, nbytes=12, seq=seq),
                            engine.cfg.router.be_vcs[0],
                        )
            with pytest.raises(NetworkOverloadError) as err:
                drain_batched(engine, drivers)
            outcomes.append(
                (str(err.value), full_digest(engine, drivers),
                 [driver.overloaded for driver in drivers])
            )
        assert outcomes[0] == outcomes[1]
        message, (_, cycle, _), overloaded = outcomes[0]
        # the pump's own message, from the first lane it refused long
        # enough (lane 2 never got to pump that cycle), with the cycles
        # before it applied
        assert message.endswith("refused stimuli for 7 cycles — network overloaded")
        assert overloaded == [False, True, False] and cycle > 6
