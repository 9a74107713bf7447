"""Streamed versions of the experiment sweeps.

Each function drives the exact workload of its monolithic counterpart
(:func:`repro.experiments.common.run_fig1_workloads_batched`,
:func:`repro.experiments.patterns.run_patterns_batched`, or the
per-point process path) through :func:`repro.pipeline.runner.run_pipeline`
and assembles the identical result dataclasses — the streamed-vs-serial
equivalence tests assert equality field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.pipeline.runner import DEFAULT_CHUNK, PipelineReport, run_pipeline


@dataclass
class StreamedSweep:
    """A sweep's points plus the pipeline telemetry that produced them."""

    points: List
    reports: List[PipelineReport]

    @property
    def report(self) -> PipelineReport:
        """The (single) report of a lane-batched sweep."""
        return self.reports[0]


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
    engine_cls=None,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
    profiler=None,
    stream_profilers: Optional[list] = None,
) -> StreamedSweep:
    """The Figure-1 load sweep, streamed.

    With ``engine_cls=None`` the whole sweep runs on one
    :class:`~repro.engines.BatchEngine` (one lane per load) behind a
    single pipeline; an explicit single-lane engine class streams the
    points one at a time.  Points equal the monolithic sweep's.

    ``profiler`` is the experiments' :class:`StageProfiler` convention;
    ``stream_profilers``, when given a list, receives each pipeline's
    :class:`~repro.platform.profiler.PipelineProfiler`.
    """
    from repro.engines import BatchEngine
    from repro.experiments.common import (
        _fig1_point_result,
        fig1_gt_streams,
        fig1_network,
    )

    net = fig1_network()
    # one reservation table for every lane and point (streams are immutable)
    streams = fig1_gt_streams(net).streams
    warmup = gt_period if warmup is None else warmup
    if profiler is not None:
        profiler.count("points", len(be_loads))
        profiler.count("streamed", 1)

    def finish_points(engine, loads, lane_of, report) -> List:
        metrics = getattr(engine, "metrics", None)
        points = []
        for i, be_load in enumerate(loads):
            lane = lane_of(i)
            points.append(
                _fig1_point_result(
                    net,
                    report.trackers[lane],
                    be_load=be_load,
                    gt_period=gt_period,
                    cycles=cycles,
                    warmup=warmup,
                    n_injections=report.analyze.inj_counts[lane],
                    done_cycle=warmup + cycles + report.done_cycles[lane],
                    extra_delta_fraction=(
                        metrics.extra_fraction() if metrics else None
                    ),
                )
            )
        return points

    def one_run() -> StreamedSweep:
        if engine_cls is None:
            engine = BatchEngine(net, lanes=len(be_loads))
            traffic = [
                _fig1_traffic(net, streams, load, gt_period, seed)
                for load in be_loads
            ]
            report = run_pipeline(
                engine, traffic, warmup + cycles, chunk=chunk, threaded=threaded
            )
            if stream_profilers is not None:
                stream_profilers.append(report.profiler)
            return StreamedSweep(
                finish_points(engine, be_loads, lambda i: i, report), [report]
            )
        points, reports = [], []
        for be_load in be_loads:
            engine = engine_cls(net)
            traffic = [_fig1_traffic(net, streams, be_load, gt_period, seed)]
            report = run_pipeline(
                engine, traffic, warmup + cycles, chunk=chunk, threaded=threaded
            )
            if stream_profilers is not None:
                stream_profilers.append(report.profiler)
            points.extend(finish_points(engine, [be_load], lambda i: 0, report))
            reports.append(report)
        return StreamedSweep(points, reports)

    if profiler is not None:
        with profiler.stage("sweep"):
            return one_run()
    return one_run()


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
    from repro.experiments.patterns import (
        HOTSPOT_XY,
        PatternResult,
        _make_pattern,
    )
    from repro.noc import NetworkConfig
    from repro.traffic import BernoulliBeTraffic

    net = NetworkConfig(6, 6, topology="torus")
    engine = BatchEngine(net, lanes=len(names))
    traffic = [
        (BernoulliBeTraffic(net, load, _make_pattern(name, net), seed=seed), None)
        for name in names
    ]
    if profiler is not None:
        profiler.count("points", len(names))
        profiler.count("streamed", 1)
        with profiler.stage("sweep"):
            report = run_pipeline(
                engine, traffic, cycles, chunk=chunk, threaded=threaded
            )
    else:
        report = run_pipeline(
            engine, traffic, cycles, chunk=chunk, threaded=threaded
        )

    target = net.index(*HOTSPOT_XY)
    points = []
    for i, name in enumerate(names):
        tracker = report.trackers[i]
        stats = tracker.stats()
        ejections = report.analyze.ej_counts[i]
        to_target = report.analyze.eject_router_counts[i].get(target, 0)
        points.append(
            PatternResult(
                name=name,
                mean=stats.mean,
                p99=stats.p99,
                max=stats.maximum,
                packets=stats.count,
                mean_hops=(
                    sum(s.hops for s in tracker.samples) / len(tracker.samples)
                ),
                ejections=ejections,
                to_hotspot_fraction=(
                    to_target / ejections if ejections else 0.0
                ),
            )
        )
    return StreamedSweep(points, [report])
