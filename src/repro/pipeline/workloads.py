"""Streamed versions of the experiment sweeps.

Each function drives the exact workload of its monolithic counterpart
(:func:`repro.experiments.common.run_fig1_workloads_batched`,
:func:`repro.experiments.patterns.run_patterns_batched`) through
:func:`repro.pipeline.runner.run_pipeline` and assembles the identical
result dataclasses — the streamed-vs-serial equivalence tests assert
equality field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.pipeline.runner import DEFAULT_CHUNK, PipelineReport, run_pipeline
from repro.traffic.stimuli import TrafficDriver


@dataclass
class StreamedSweep:
    """A sweep's points, the pipeline telemetry that produced them and
    the drivers it ran (one a lane, as the run left them)."""

    points: List
    report: PipelineReport
    drivers: List[TrafficDriver]


def stream_fig1_sweep(
    be_loads: Sequence[float],
    cycles: int,
    gt_period: int = 1300,
    seed: int = 0x5EED,
    warmup: Optional[int] = None,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
) -> StreamedSweep:
    """The Figure-1 load sweep, streamed.

    The whole sweep runs on one :class:`~repro.engines.BatchEngine`
    (one lane per load) behind a single pipeline.  Points equal the
    monolithic sweep's.
    """
    from repro.engines import BatchEngine
    from repro.experiments.common import (
        _fig1_point_result,
        fig1_lane_drivers,
        fig1_network,
    )

    net = fig1_network()
    engine = BatchEngine(net, lanes=len(be_loads))
    warmup = gt_period if warmup is None else warmup
    drivers = fig1_lane_drivers(engine, be_loads, gt_period, seed)
    report = run_pipeline(
        engine, drivers, warmup + cycles, chunk=chunk, threaded=threaded
    )
    metrics = getattr(engine, "metrics", None)
    points = [
        _fig1_point_result(
            net,
            report.trackers[lane],
            be_load=be_load,
            gt_period=gt_period,
            cycles=cycles,
            warmup=warmup,
            n_injections=report.analyze.inj_counts[lane],
            done_cycle=warmup + cycles + report.done_cycles[lane],
            extra_delta_fraction=metrics.extra_fraction() if metrics else None,
        )
        for lane, be_load in enumerate(be_loads)
    ]
    return StreamedSweep(points, report, drivers)


def stream_pattern_sweep(
    names: Sequence[str],
    cycles: int,
    load: float = 0.10,
    seed: int = 0x7A77,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
) -> StreamedSweep:
    """The traffic-pattern sweep, streamed on the batch engine's lanes.

    Summaries equal :func:`repro.experiments.patterns.run_patterns_batched`
    (same traffic, same engine semantics) but are assembled from the
    analysis's incremental counters — the full ejection log is never
    rescanned.
    """
    from repro.engines import BatchEngine
    from repro.experiments.patterns import (
        HOTSPOT_XY,
        _pattern_result,
        pattern_lane_drivers,
    )
    from repro.noc import NetworkConfig

    net = NetworkConfig(6, 6, topology="torus")
    engine = BatchEngine(net, lanes=len(names))
    drivers = pattern_lane_drivers(engine, names, load, seed)
    report = run_pipeline(engine, drivers, cycles, chunk=chunk, threaded=threaded)
    target = net.index(*HOTSPOT_XY)
    points = [
        _pattern_result(
            name,
            report.trackers[i],
            report.analyze.ej_counts[i],
            int(report.analyze.eject_router_counts[i, target]),
        )
        for i, name in enumerate(names)
    ]
    return StreamedSweep(points, report, drivers)
