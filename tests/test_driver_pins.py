"""Pinned results of the driver surface on every engine.

The sha256 of what ``TrafficDriver.run`` + ``drain`` leave behind on each
engine — the snapshot, both event logs, the submit log, the latency
tracker's samples and the drain's cycle count — and of a hooked,
fast-forwarded two-lane run of the compiled batch engine, its skipped
cycles included.  A change to how a run is driven (which loop steps it,
where the windows come from) must leave every digest as it is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engines import BatchEngine, CycleEngine, RtlEngine, SequentialEngine
from repro.engines.batch import drain_batched, run_batched
from repro.noc import NetworkConfig
from repro.stats import PacketLatencyTracker
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random
from tests.test_batch_levelized import (
    PlannedFault,
    full_digest,
    make_drivers,
    needs_jit,
    spy_skips,
    torus,
)


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def driven(engine, load: float = 0.1, cycles: int = 300):
    """Everything one driver's run and drain leave on ``engine``."""
    net = engine.cfg
    driver = TrafficDriver(
        engine, be=BernoulliBeTraffic(net, load, uniform_random(net), seed=0xD21)
    )
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    driver.run(cycles)
    driver.be = None
    drained = driver.drain()
    tracker.collect(engine)
    return (
        engine.snapshot(),
        [r.__dict__ for r in engine.injections],
        [r.__dict__ for r in engine.ejections],
        repr(driver.submits),
        tracker.samples.columns.tolist(),
        drained,
    )


#: the 4x4 torus's run, on every engine that steps it bit-identically
TORUS = "1b41382828ff42f058259b966ffab8d23f2bf384e100bd444fdf90bc565e1c79"
#: the RTL engine's run, on a 3x3 torus (its snapshot has its own shape)
RTL = "1d22df0267b1cfb90234759e901c64af80e54d19a107c706e125676c5333eeed"
#: the hooked two-lane run: full digest, drain cycles, skips
HOOKED = "547a0806a0c9bbd464a4dfd59f2109119f3971f742975d4dfab107233736b86c"

ENGINES = {
    "cycle": lambda: CycleEngine(NetworkConfig(4, 4, topology="torus")),
    "sequential": lambda: SequentialEngine(NetworkConfig(4, 4, topology="torus")),
    "sequential-python": lambda: SequentialEngine(
        NetworkConfig(4, 4, topology="torus"), kernel="python"
    ),
    "batch-c": lambda: BatchEngine(NetworkConfig(4, 4, topology="torus"), kernel="levelized"),
    "batch-golden": lambda: BatchEngine(NetworkConfig(4, 4, topology="torus"), kernel="python"),
}
COMPILED = ("sequential", "batch-c")


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=needs_jit) if name in COMPILED else name for name in ENGINES],
)
def test_a_driver_run_and_drain_keep_their_results(name):
    result = driven(ENGINES[name]())
    assert len(result[2]) > 400 and result[5] > 0
    assert digest(result) == TORUS


def test_a_driver_run_and_drain_on_the_rtl_engine_keep_their_results():
    result = driven(RtlEngine(NetworkConfig(3, 3, topology="torus")), load=0.25)
    assert len(result[2]) > 400 and result[5] > 0
    assert digest(result) == RTL


@needs_jit
def test_a_hooked_fast_forwarded_run_keeps_its_results_and_skips():
    """Two compiled lanes behind a hook that advertises its next firing:
    the run steps cycle by cycle, and skips the idle stretches the C
    scan's probe proves, up to the firing and on past it."""
    engine = BatchEngine(torus(4, 4), lanes=2, kernel="levelized")
    drivers = make_drivers(engine, 0.01, seed=0xFF)
    hook = PlannedFault(900, lambda e: None)
    engine.pre_step_hooks.append(hook)
    skips = spy_skips(engine)
    run_batched(engine, drivers, 1500, fast_forward=True)
    for driver in drivers:
        driver.be = None
    done = drain_batched(engine, drivers)
    assert hook.fired_at == [900] and (len(skips), sum(skips)) == (33, 780)
    assert sum(len(engine.lane_ejections(i)) for i in range(2)) > 300
    assert digest((full_digest(engine, drivers), done, skips)) == HOOKED
