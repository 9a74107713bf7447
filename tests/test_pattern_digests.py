"""Pinned results of the traffic-pattern runs.

The sha256 of three runs' outputs, recorded once: the pattern sweep on
the 6x6 torus (lane-batched and streamed) and a 4x4-mesh batch engine
whose lanes mix every destination pattern with GT-only and zero-load
lanes.  A change to how traffic windows are generated must leave every
digest as it is.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.engines import BatchEngine
from repro.engines.batch import drain_batched, run_batched
from repro.experiments import patterns
from repro.noc import NetworkConfig
from repro.pipeline import stream_pattern_sweep
from repro.traffic import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    TrafficDriver,
    bit_complement,
    hotspot,
    neighbor_shift,
    transpose,
    uniform_random,
)
from repro.traffic.generators import reserve_shift_streams


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def point_digest(points) -> str:
    return digest([dataclasses.astuple(point) for point in points])


def mesh_mix(cycles: int = 300):
    """Every lane's events, submit log and drain on a 4x4 mesh whose
    lanes carry uniform, transpose, bit-complement, hotspot (target 5)
    and neighbour-shift BE traffic, GT streams alone, and a zero-load
    uniform stream beside GT."""
    net = NetworkConfig(4, 4)
    engine = BatchEngine(net, lanes=7)
    streams = reserve_shift_streams(net, routing=engine.routing).streams
    lanes = [
        (uniform_random(net), 0.10, False),
        (transpose(net), 0.15, False),
        (bit_complement(net), 0.10, True),
        (hotspot(net, target=5, fraction=0.4), 0.20, False),
        (neighbor_shift(net, 1, 1), 0.12, True),
        (None, None, True),
        (uniform_random(net), 0.0, True),
    ]
    drivers = []
    for lane, (pattern, load, gt) in enumerate(lanes):
        be = None
        if pattern is not None:
            be = BernoulliBeTraffic(net, load, pattern, seed=0x7A77 + lane)
        drivers.append(
            TrafficDriver(
                engine.lane(lane),
                be=be,
                gt=GtStreamTraffic(net, streams, period=61) if gt else None,
            )
        )
    run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = driver.gt = None
    done = drain_batched(engine, drivers)
    return [
        (
            [r.__dict__ for r in engine.lane_injections(lane)],
            [r.__dict__ for r in engine.lane_ejections(lane)],
            repr(driver.submits),
            done[lane],
        )
        for lane, driver in enumerate(drivers)
    ]


def test_the_pattern_sweep_keeps_its_points():
    result = patterns.run(cycles=300)
    assert point_digest(result.points) == (
        "6530313c69214e1cc62eb98656fd536f802cc6f29ab187cd1f4aecbec8188ed6"
    )


def test_the_streamed_pattern_sweep_keeps_its_points():
    swept = stream_pattern_sweep(patterns.PATTERNS, 300)
    assert point_digest(swept.points) == (
        "6530313c69214e1cc62eb98656fd536f802cc6f29ab187cd1f4aecbec8188ed6"
    )


def test_a_mesh_pattern_mix_keeps_its_events():
    lanes = mesh_mix()
    assert sum(len(lane[1]) for lane in lanes) > 1000
    assert digest(lanes) == (
        "8863cc7abd9c0513dd8c372e53c5e47b46fd70aea0a63c8f0e96de68da2f6e63"
    )
