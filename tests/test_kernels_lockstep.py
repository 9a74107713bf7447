"""The compiled kernel is bit-identical to the engines it accelerates.

The generated-C body — driven cycle by cycle through a one-lane
``BatchEngine(kernel="levelized")`` — must match the dynamic worklist
engine and the interpreted static schedule snapshot for snapshot, across
random seeds, topologies, heterogeneous configs and a mid-run link
quarantine.  Transient link-memory SEUs have no batch-engine analogue
and stay a worklist-vs-static-sweep comparison.  Likewise the batch
engine's generated-C kernel must match the NumPy reference sweeps lane
for lane.  The ``kernel_smoke``-marked class is the cheap CI subset.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, run_batched
from repro.engines.sequential import StaticScheduleEngine
from repro.kernels import probe_backends
from repro.noc import NetworkConfig, RouterConfig
from repro.seqsim.sequential import SequentialNetwork
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

from tests.helpers import PacketDriver, be_packet

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"no compiled backend: {JIT_REASON}"
)


def torus(width=3, height=3, depth=4, **kw):
    return NetworkConfig(
        width, height, topology="torus",
        router=RouterConfig(queue_depth=depth), **kw,
    )


def random_schedule(cfg, seed, packets=25, horizon=50):
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
                be_packet(cfg, src, dest, nbytes=rng.randrange(1, 12), seq=i),
            )
        )
    return out


def lockstep(engines, schedule, cycles, events=()):
    """Identical traffic into every engine, snapshots compared every
    cycle, injection/ejection logs at the end.  ``events`` is a list of
    ``(cycle, fn)``; ``fn(engine)`` is applied to *every* engine at the
    top of that cycle — the fault-injection hook."""
    drivers = [PacketDriver(e) for e in engines]
    by_cycle = {}
    for cycle, vc, packet in schedule:
        by_cycle.setdefault(cycle, []).append((vc, packet))
    for t in range(cycles):
        for at, fn in events:
            if at == t:
                for engine in engines:
                    fn(engine)
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


def duo(cfg):
    """Reference worklist model (the host of wire faults and
    quarantine) and interpreted static schedule."""
    return [SequentialNetwork(cfg), StaticScheduleEngine(cfg)]


def trio(cfg):
    """The duo plus the generated body over the level schedule: the
    lane-0 surface of a one-lane batch engine (its NumPy sweeps where no
    compiler exists)."""
    kernel = "levelized" if JIT_REASON == "ok" else "python"
    return duo(cfg) + [BatchEngine(cfg, lanes=1, kernel=kernel)]


@pytest.mark.kernel_smoke
class TestKernelSmoke:
    """The tiny always-on CI subset: one levelized lockstep point and
    one jit-vs-python batch point (when a compiler exists)."""

    def test_levelized_lockstep_tiny(self):
        cfg = torus()
        engines = trio(cfg)
        assert (engines[2]._compiled is not None) == (JIT_REASON == "ok")
        lockstep(engines, random_schedule(cfg, seed=7), cycles=60)

    @needs_jit
    def test_batch_jit_matches_python_tiny(self):
        cfg = torus()
        pair = {
            kernel: BatchEngine(cfg, lanes=2, kernel=kernel)
            for kernel in ("python", "jit")
        }
        for kernel, engine in pair.items():
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(
                        cfg, 0.08, uniform_random(cfg), seed=11 + i
                    ),
                )
                for i in range(2)
            ]
            run_batched(engine, drivers, cycles=60)
            assert engine.kernel == kernel
        for lane in range(2):
            assert (
                pair["jit"].lane_snapshot(lane)
                == pair["python"].lane_snapshot(lane)
            )
            assert (
                pair["jit"].lane_injections(lane)
                == pair["python"].lane_injections(lane)
            )
            assert (
                pair["jit"].lane_ejections(lane)
                == pair["python"].lane_ejections(lane)
            )


class TestLevelizedLockstep:
    def test_mesh_lockstep(self):
        cfg = NetworkConfig(3, 5, topology="mesh")
        lockstep(trio(cfg), random_schedule(cfg, seed=3), cycles=70)

    def test_heterogeneous_lockstep(self):
        cfg = torus(
            router_overrides=((4, RouterConfig(queue_depth=8)),)
        )
        lockstep(trio(cfg), random_schedule(cfg, seed=5), cycles=70)

    def test_quarantine_mid_run_lockstep(self):
        """A permanent link fault mid-run rebinds the compiled body's
        tables; results must stay identical through and after the
        transition."""
        cfg = torus(4, 4)
        engines = trio(cfg)
        lockstep(
            engines,
            random_schedule(cfg, seed=9, packets=30, horizon=70),
            cycles=100,
            events=[(35, lambda e: e.quarantine_link(5, 1))],
        )
        assert (5, 1) in engines[2].quarantined_links

    def test_seu_mid_run_lockstep(self):
        """A transient link-memory SEU must perturb the worklist and
        the static sweep identically (no batch analogue: the lane state
        has no link memory to upset)."""
        cfg = torus()
        engines = duo(cfg)
        wire = engines[0].link_wire_names()[5]

        def upset(engine):
            engine.inject_link_fault(wire, bit=2)

        lockstep(
            engines,
            random_schedule(cfg, seed=13),
            cycles=80,
            events=[(25, upset), (26, upset)],
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_lockstep_property_random_seeds(self, seed):
        cfg = torus()
        rng = random.Random(seed)
        events = []
        if rng.random() < 0.5:
            wire, bit = rng.randrange(20), rng.randrange(8)
            events.append(
                (rng.randrange(10, 40),
                 lambda e: e.inject_link_fault(wire, bit=bit))
            )
        lockstep(
            duo(cfg) if events else trio(cfg),
            random_schedule(cfg, seed=seed),
            cycles=60,
            events=events,
        )

    def test_traffic_driver_lockstep(self):
        """The Bernoulli traffic pipeline (the bench workload) drives
        the compiled body and the worklist engine to identical streams."""
        cfg = torus(4, 4)
        worklist, _static, compiled = trio(cfg)
        engines = [worklist, compiled]
        drivers = [
            TrafficDriver(
                e, be=BernoulliBeTraffic(cfg, 0.08, uniform_random(cfg), seed=42)
            )
            for e in engines
        ]
        for t in range(120):
            for driver in drivers:
                driver.step()
            assert engines[0].snapshot() == engines[1].snapshot(), (
                f"divergence at cycle {t}"
            )
        assert engines[0].injections == engines[1].injections
        assert engines[0].ejections == engines[1].ejections


@needs_jit
class TestBatchJitLockstep:
    def run_pair(self, cfg, lanes, cycles, seed0=100, mid=None):
        """Run jit and python engines on identical per-lane streams,
        optionally applying ``mid(engine)`` halfway, and assert lane-
        for-lane identity of snapshots and logs."""
        pair = {}
        for kernel in ("python", "jit"):
            engine = BatchEngine(cfg, lanes=lanes, kernel=kernel)
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(
                        cfg, 0.10, uniform_random(cfg), seed=seed0 + i
                    ),
                )
                for i in range(lanes)
            ]
            run_batched(engine, drivers, cycles // 2)
            if mid is not None:
                mid(engine)
            run_batched(engine, drivers, cycles - cycles // 2)
            assert engine.cycle == cycles
            pair[kernel] = engine
        for lane in range(lanes):
            assert (
                pair["jit"].lane_snapshot(lane)
                == pair["python"].lane_snapshot(lane)
            ), f"lane {lane} diverged"
            assert (
                pair["jit"].lane_injections(lane)
                == pair["python"].lane_injections(lane)
            )
            assert (
                pair["jit"].lane_ejections(lane)
                == pair["python"].lane_ejections(lane)
            )
        return pair

    def test_lane_equality(self):
        self.run_pair(torus(4, 4), lanes=3, cycles=120)

    def test_mesh_lane_equality(self):
        self.run_pair(
            NetworkConfig(3, 4, topology="mesh"), lanes=2, cycles=100
        )

    def test_quarantine_mid_run(self):
        """Quarantining a link mid-run invalidates the compiled step's
        bound tables; the rebind must leave both tiers identical."""
        pair = self.run_pair(
            torus(4, 4),
            lanes=2,
            cycles=120,
            mid=lambda e: e.quarantine_link(5, 1),
        )
        assert (5, 1) in pair["jit"].quarantined_links


class TestEnvFallback:
    def test_numpy_env_forces_python_batch(self, monkeypatch):
        """``REPRO_KERNELS=numpy`` pins the reference path and records
        why, without any warning noise."""
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = BatchEngine(torus(), lanes=2)
        assert engine.kernel == "python"
        assert engine.kernel_reason
        engine.run(30)
        solo = BatchEngine(torus(), lanes=2, kernel="python")
        solo.run(30)
        assert engine.snapshot() == solo.snapshot()

    def test_label_is_presentational_body_decides(self, monkeypatch):
        """The chunk path and the C traffic scan key on the bound body,
        never on the ``jit``/``levelized`` label: a levelized-labelled
        engine pinned to NumPy behaves exactly like ``kernel="python"``."""
        from repro.engines.batch import chunk_kernel, window_source

        def paths(engine):
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(
                        engine.cfg, 0.1, uniform_random(engine.cfg), seed=3 + i
                    ),
                )
                for i in range(engine.lanes)
            ]
            return chunk_kernel(engine, drivers), window_source(engine, drivers).reason

        no_body = (None, "the engine has no generated-C body")
        assert paths(BatchEngine(torus(), lanes=2, kernel="python")) == no_body
        if JIT_REASON == "ok":
            for label in ("levelized", "jit"):
                compiled, reason = paths(BatchEngine(torus(), lanes=2, kernel=label))
                assert compiled is not None and reason is None  # the C scan
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        pinned = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert pinned.kernel == "levelized" and pinned._compiled is None
        assert paths(pinned) == no_body
