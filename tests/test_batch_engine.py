"""The batch engine is bit-identical to the engines it vectorizes.

The batch engine replays the golden three-phase cycle as three
bulk-synchronous NumPy array sweeps, so lane 0 must match the
sequential engine and the cycle-based golden model bit for bit — the
same lockstep discipline the sequential simulator itself is held to.
On top of that it carries a lane axis: lane *i* of a multi-lane run
must be byte-identical to a solo run of seed *i*, including the
injection/ejection logs and the drain cycle counts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import (
    BatchEngine,
    CycleEngine,
    drain_batched,
    list_engines,
    make_engine,
    run_batched,
)
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.flit import Header
from repro.seqsim.sequential import SequentialNetwork

from tests.helpers import PacketDriver, be_packet


def torus(width=4, height=4, depth=4, **kw):
    return NetworkConfig(
        width, height, topology="torus",
        router=RouterConfig(queue_depth=depth), **kw,
    )


def random_schedule(cfg, seed, packets=30, horizon=80):
    """(cycle, vc, packet) triples of random BE traffic."""
    rng = random.Random(seed)
    out = []
    for i in range(packets):
        src = rng.randrange(cfg.n_routers)
        dest = rng.randrange(cfg.n_routers)
        out.append(
            (
                rng.randrange(horizon),
                rng.choice(cfg.router.be_vcs),
                be_packet(cfg, src, dest, nbytes=rng.randrange(1, 14), seq=i),
            )
        )
    return out


def lockstep(engines, schedule, cycles):
    """Identical traffic into every engine, snapshots compared every
    cycle and the injection/ejection logs at the end."""
    drivers = [PacketDriver(e) for e in engines]
    by_cycle = {}
    for cycle, vc, packet in schedule:
        by_cycle.setdefault(cycle, []).append((vc, packet))
    for t in range(cycles):
        for vc, packet in by_cycle.get(t, []):
            for driver in drivers:
                driver.send(packet, vc)
        for driver in drivers:
            driver.pump()
        for engine in engines:
            engine.step()
        reference = engines[0].snapshot()
        for engine in engines[1:]:
            assert engine.snapshot() == reference, (
                f"divergence at cycle {t} in {type(engine).__name__}"
            )
    ref_inj = [r.__dict__ for r in engines[0].injections]
    ref_ej = [r.__dict__ for r in engines[0].ejections]
    for engine in engines[1:]:
        assert [r.__dict__ for r in engine.injections] == ref_inj
        assert [r.__dict__ for r in engine.ejections] == ref_ej
    assert ref_ej, "workload too light: nothing was delivered"


class TestRegistry:
    def test_registered(self):
        names = [info.name for info in list_engines()]
        assert "batch" in names

    def test_make_engine_with_lanes(self):
        engine = make_engine("batch", torus(), lanes=3)
        assert isinstance(engine, BatchEngine)
        assert engine.lanes == 3
        assert engine.cycle == 0


class TestLockstep:
    def test_torus(self):
        cfg = torus()
        engines = [SequentialNetwork(cfg), CycleEngine(cfg), BatchEngine(cfg)]
        lockstep(engines, random_schedule(cfg, seed=1), cycles=140)

    def test_mesh(self):
        cfg = NetworkConfig(
            3, 3, topology="mesh", router=RouterConfig(queue_depth=4)
        )
        engines = [SequentialNetwork(cfg), CycleEngine(cfg), BatchEngine(cfg)]
        lockstep(engines, random_schedule(cfg, seed=2), cycles=140)

    def test_heterogeneous_queue_depths(self):
        cfg = torus(
            router_overrides=(
                (5, RouterConfig(queue_depth=8)),
                (7, RouterConfig(queue_depth=2)),
            )
        )
        engines = [SequentialNetwork(cfg), BatchEngine(cfg)]
        lockstep(engines, random_schedule(cfg, seed=3), cycles=140)

    def test_quarantined_links(self):
        """Wire faults (quarantined links + recomputed routes) stay in
        lockstep: both engines detour identically."""
        cfg = torus()
        engines = [SequentialNetwork(cfg), BatchEngine(cfg)]
        for engine in engines:
            engine.quarantine_link(5, 1)
            engine.quarantine_link(10, 3)
        lockstep(engines, random_schedule(cfg, seed=4), cycles=140)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1), packets=st.integers(1, 20))
    def test_lockstep_property(self, seed, packets):
        cfg = NetworkConfig(
            3, 3, topology="torus", router=RouterConfig(queue_depth=2)
        )
        engines = [SequentialNetwork(cfg), BatchEngine(cfg)]
        schedule = random_schedule(
            cfg, seed=seed, packets=packets, horizon=40
        )
        lockstep(engines, schedule, cycles=80)


class TestErrorParity:
    """Protocol violations raise identically on both engines."""

    def offer_head(self, engine, header, vc):
        assert engine.offer(0, vc, header.head_flit())

    def test_out_of_range_coordinates(self):
        cfg = torus()
        bad = Header(dest_x=9, dest_y=9)  # beyond the 4x4 fabric
        messages = []
        for engine in (SequentialNetwork(cfg), BatchEngine(cfg)):
            self.offer_head(engine, bad, cfg.router.be_vcs[0])
            with pytest.raises(IndexError) as err:
                engine.run(4)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "out of range" in messages[0]

    def test_gt_head_on_be_vc(self):
        cfg = torus()
        bad = Header(dest_x=1, dest_y=0, gt=True)
        messages = []
        for engine in (SequentialNetwork(cfg), BatchEngine(cfg)):
            self.offer_head(engine, bad, cfg.router.be_vcs[0])
            with pytest.raises(Exception) as err:
                engine.run(4)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "GT head on non-GT VC" in messages[0]


class TestLaneIsolation:
    """Lane i of a batched run == a solo run seeded i, byte for byte."""

    LANES = 5
    CYCLES = 150
    LOAD = 0.12
    SEED = 0xA5

    def test_lane_matches_solo_run(self):
        from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

        cfg = torus()
        engine = BatchEngine(cfg, lanes=self.LANES)
        drivers = [
            TrafficDriver(
                engine.lane(i),
                be=BernoulliBeTraffic(
                    cfg, self.LOAD, uniform_random(cfg), seed=self.SEED + i
                ),
            )
            for i in range(self.LANES)
        ]
        run_batched(engine, drivers, self.CYCLES)
        for driver in drivers:
            driver.be = None
        done = drain_batched(engine, drivers)
        total = engine.cycle

        for i in range(self.LANES):
            solo = SequentialNetwork(cfg)
            driver = TrafficDriver(
                solo,
                be=BernoulliBeTraffic(
                    cfg, self.LOAD, uniform_random(cfg), seed=self.SEED + i
                ),
            )
            driver.run(self.CYCLES)
            driver.be = None
            assert driver.drain() == done[i]
            # idle the solo run up to the batch's final cycle (the batch
            # keeps stepping until its slowest lane drains)
            while solo.cycle < total:
                driver.pump()
                solo.step()
            assert engine.lane_snapshot(i) == solo.snapshot()
            assert [r.__dict__ for r in engine.lane_injections(i)] == [
                r.__dict__ for r in solo.injections
            ]
            assert [r.__dict__ for r in engine.lane_ejections(i)] == [
                r.__dict__ for r in solo.ejections
            ]

    def test_lane_views_and_guards(self):
        cfg = torus()
        engine = BatchEngine(cfg, lanes=2)
        assert engine.injections == engine.lane_injections(0)
        assert engine.ejections == engine.lane_ejections(0)
        assert engine.snapshot() == engine.lane_snapshot(0)
        with pytest.raises(RuntimeError):
            engine.lane(1).step()
        with pytest.raises(IndexError):
            engine.lane(2)


class TestPackedState:
    """The CI dtype gate: every batched array stays integer-packed."""

    def test_state_arrays_are_packed(self):
        from repro.seqsim.arraystate import assert_packed

        engine = BatchEngine(torus(), lanes=2)
        assert assert_packed(engine.state.packed_dtypes()) == []

    def test_gate_flags_object_dtype(self):
        import numpy as np

        from repro.seqsim.arraystate import assert_packed

        arrays = {
            "good": np.zeros(3, dtype=np.int64).dtype,
            "bad": np.empty(3, dtype=object).dtype,
            "floaty": np.zeros(3, dtype=np.float64).dtype,
        }
        assert assert_packed(arrays) == ["bad", "floaty"]
