"""The chunk body's stimuli pump visits queues in the driver's order.

The pump inside the generated body offers the staged queues that are
due in a cycle in ``TrafficDriver.pump``'s order — lane-major, each
lane's queues in slot order — because three things read it: the sticky
per-router ``stalled`` flag (the last offer of a cycle wins), the
per-queue stall counters, and which queue an overload names when
several cross the stall limit in the same cycle.  Each case here runs the compiled body and golden lanes
(one ``Network`` per lane, the Python pump) on the same staged queues
and compares snapshots, logs, stall counters, overload flags and error
text.  The cases are chosen so that a pump visiting due queues in
descending order, or losing a queue that is due again in the next
cycle, fails one of them.
"""

from __future__ import annotations

import pytest

from repro.engines.batch import BatchEngine, drain_batched, run_batched
from repro.kernels import probe_backends
from repro.noc import NetworkConfig, Packet, PacketClass, RouterConfig
from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver, flit_words

pytestmark = pytest.mark.skipif(
    probe_backends()["cffi"] != "ok", reason="no generated-C body"
)

BE_VCS = (2, 3)


def torus(queue_depth: int = 2) -> NetworkConfig:
    return NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=queue_depth))


def stage(driver, src, dest, vc, cycles, nbytes=12):
    """Queue one BE packet at ``src`` on ``vc`` (``nbytes`` of payload:
    2 + nbytes / 2 flits), its flits released at ``cycles`` — a cycle
    per flit, the last one repeated for the rest."""
    net = driver.engine.cfg
    words = flit_words(net, None, Packet(src=src, dest=dest, pclass=PacketClass.BE,
                                         payload=bytes(nbytes)))
    cycles = [cycles] if isinstance(cycles, int) else list(cycles)
    assert len(cycles) <= len(words)
    cycles += cycles[-1:] * (len(words) - len(cycles))
    driver.queues.append(src, vc, words, cycles, 0)


def both(cfg, lanes, setup, run, stall_limit=10_000):
    """``setup(lane, driver)`` then ``run(engine, drivers)`` on the
    compiled body and on golden lanes; everything the two leave behind,
    which must be equal."""
    sides = {}
    for kernel in ("levelized", "python"):
        engine = BatchEngine(cfg, lanes=lanes, kernel=kernel)
        drivers = [TrafficDriver(engine.lane(i), stall_limit=stall_limit) for i in range(lanes)]
        for lane, driver in enumerate(drivers):
            setup(lane, driver)
        try:
            result, error = run(engine, drivers), None
        except NetworkOverloadError as exc:
            result, error = None, str(exc)
        sides[kernel] = (
            result,
            error,
            engine.cycle,
            [d.overloaded for d in drivers],
            [
                (
                    engine.lane_snapshot(i),
                    [r.__dict__ for r in engine.lane_injections(i)],
                    [r.__dict__ for r in engine.lane_ejections(i)],
                    d.queues.stalls(),
                    d.backlog(),
                )
                for i, d in enumerate(drivers)
            ],
        )
    assert sides["levelized"] == sides["python"]
    return sides["python"]


def test_two_vcs_of_one_router_due_together_one_accepted_one_stalled():
    # Both BE VCs of router 4 release a packet at cycle 2.  The
    # interface injects one register a cycle, so from cycle 3 on, in
    # every cycle one VC's next flit is accepted and the other's is
    # refused: the flag the cycle leaves is the later queue's.
    def setup(lane, driver):
        stage(driver, 4, 0, BE_VCS[0], 2)
        stage(driver, 4, 8, BE_VCS[1], 2)

    for cycles in range(1, 12):  # the flag is part of the snapshot
        both(torus(), 1, setup, lambda e, d: run_batched(e, d, cycles))


def test_several_lanes_over_the_stall_limit_in_one_cycle():
    # Every router of every lane floods router 4 on both BE VCs of a
    # depth-1 fabric: the lanes are identical, so they all cross the
    # limit in the same cycle.  The reference names the lowest lane's
    # first queue over the limit.
    def setup(lane, driver):
        for src in range(9):
            if src != 4:
                for vc in BE_VCS:
                    stage(driver, src, 4, vc, 0, nbytes=60)

    _, error, cycle, overloaded, _ = both(
        torus(queue_depth=1), 3, setup, lambda e, d: run_batched(e, d, 400), stall_limit=12
    )
    assert error is not None and "network overloaded" in error
    assert overloaded == [True, False, False]
    assert cycle < 400


def test_a_queue_due_again_in_the_same_cycle_or_the_next():
    # Flits released at 3, 3, 4, then a gap: after each accept the
    # queue's next entry is already due (same cycle), due next cycle,
    # or due later — it must come back in each case.
    schedules = ([3, 3, 4, 9], [3, 4, 4, 5, 9, 9], [3, 3, 3, 4, 5, 6, 7, 30])

    def setup(lane, driver):
        stage(driver, 0, 8, BE_VCS[0], schedules[lane], nbytes=4 + 4 * lane)
        stage(driver, 1, 6, BE_VCS[1], 3, nbytes=20)

    for cycles in (5, 8, 12, 40):
        both(torus(), 3, setup, lambda e, d: run_batched(e, d, cycles))


def test_an_idle_jump_across_a_long_gap_and_a_long_drain():
    # Two queues whose entries are thousands of cycles apart, so the
    # fabric idles between them (the body jumps the gaps to the next
    # arrival), and a drain whose last entry is released 16k cycles in.
    def setup(lane, driver):
        stage(driver, 2, 6, BE_VCS[0], [10, 5_000], nbytes=4)
        stage(driver, 7, 1, BE_VCS[1], [40 + lane, 9_000 + lane], nbytes=8)

    def run(engine, drivers):
        run_batched(engine, drivers, 6_000)
        for driver in drivers:
            stage(driver, 5, 3, BE_VCS[1], engine.cycle + 16_000, nbytes=4)
        return drain_batched(engine, drivers)

    done, error, cycle, _, lanes = both(torus(), 2, setup, run)
    assert error is None and min(done) > 16_000 and cycle > 22_000
    # every flit went in: 4 + 6 staged up front, 4 for the drain
    assert [(len(injections), backlog) for _, injections, _, _, backlog in lanes] == [(14, 0)] * 2
