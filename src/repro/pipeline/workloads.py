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


@dataclass
class StreamedSweep:
    """A sweep's points plus the pipeline telemetry that produced them."""

    points: List
    report: PipelineReport


def _fig1_traffic(net, streams, be_load: float, gt_period: int, seed: int):
    """One lane's ``(be, gt)`` pair over the shared reserved ``streams``."""
    from repro.traffic import BernoulliBeTraffic, GtStreamTraffic, uniform_random

    gt = GtStreamTraffic(net, streams, period=gt_period)
    be = BernoulliBeTraffic(net, be_load, uniform_random(net), seed=seed)
    return be, gt


def stream_fig1_sweep(
    be_loads: Sequence[float],
    cycles: int,
    gt_period: int = 1300,
    seed: int = 0x5EED,
    warmup: Optional[int] = None,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
    profiler=None,
) -> StreamedSweep:
    """The Figure-1 load sweep, streamed.

    The whole sweep runs on one :class:`~repro.engines.BatchEngine`
    (one lane per load) behind a single pipeline.  Points equal the
    monolithic sweep's.  ``profiler`` is the experiments'
    :class:`StageProfiler` convention; the pipeline's own
    :class:`~repro.platform.profiler.PipelineProfiler` is
    ``result.report.profiler``.
    """
    from repro.engines import BatchEngine
    from repro.experiments.common import (
        _fig1_point_result,
        fig1_gt_streams,
        fig1_network,
    )
    from repro.experiments.parallel import sweep_stage

    net = fig1_network()
    # one reservation table for every lane and point (streams are immutable)
    streams = fig1_gt_streams(net).streams
    warmup = gt_period if warmup is None else warmup
    with sweep_stage(profiler, points=len(be_loads), streamed=1):
        engine = BatchEngine(net, lanes=len(be_loads))
        traffic = [
            _fig1_traffic(net, streams, load, gt_period, seed)
            for load in be_loads
        ]
        report = run_pipeline(
            engine, traffic, warmup + cycles, chunk=chunk, threaded=threaded
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
    return StreamedSweep(points, report)


def stream_pattern_sweep(
    names: Sequence[str],
    cycles: int,
    load: float = 0.10,
    seed: int = 0x7A77,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
    profiler=None,
) -> StreamedSweep:
    """The traffic-pattern sweep, streamed on the batch engine's lanes.

    Summaries equal :func:`repro.experiments.patterns.run_patterns_batched`
    (same traffic, same engine semantics) but are assembled from the
    analyze stage's incremental counters — the full ejection log is
    never rescanned.
    """
    from repro.engines import BatchEngine
    from repro.experiments.parallel import sweep_stage
    from repro.experiments.patterns import (
        HOTSPOT_XY,
        PatternResult,
        _make_pattern,
    )
    from repro.noc import NetworkConfig
    from repro.stats.latency import S_HOPS
    from repro.traffic import BernoulliBeTraffic

    net = NetworkConfig(6, 6, topology="torus")
    engine = BatchEngine(net, lanes=len(names))
    traffic = [
        (BernoulliBeTraffic(net, load, _make_pattern(name, net), seed=seed), None)
        for name in names
    ]
    with sweep_stage(profiler, points=len(names), streamed=1):
        report = run_pipeline(
            engine, traffic, cycles, chunk=chunk, threaded=threaded
        )

    target = net.index(*HOTSPOT_XY)
    points = []
    for i, name in enumerate(names):
        tracker = report.trackers[i]
        stats = tracker.stats()
        ejections = report.analyze.ej_counts[i]
        to_target = int(report.analyze.eject_router_counts[i, target])
        hops = tracker.samples.columns[S_HOPS]
        points.append(
            PatternResult(
                name=name,
                mean=stats.mean,
                p99=stats.p99,
                max=stats.maximum,
                packets=stats.count,
                mean_hops=int(hops.sum()) / hops.size,
                ejections=ejections,
                to_hotspot_fraction=(
                    to_target / ejections if ejections else 0.0
                ),
            )
        )
    return StreamedSweep(points, report)
