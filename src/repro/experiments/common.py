"""Shared experiment infrastructure."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.engines import SequentialEngine
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.packet import GT_PAYLOAD_BYTES
from repro.stats import PacketLatencyTracker, gt_guarantee_bound
from repro.stats.latency import S_GT, S_HOPS, S_SUBMIT
from repro.traffic import BernoulliBeTraffic, GtStreamTraffic, TrafficDriver, uniform_random
from repro.noc.reservation import GtReservationTable
from repro.traffic.generators import neighbor_shift


def scale(default: int, env: str = "REPRO_SCALE") -> int:
    """Cycle budgets scale with the REPRO_SCALE env var (default 1.0).

    ``REPRO_SCALE=4`` runs experiments four times longer for tighter
    statistics; CI keeps the cheap default.
    """
    factor = float(os.environ.get(env, "1"))
    return max(1, int(default * factor))


def fig1_network() -> NetworkConfig:
    """Figure 1's configuration: 6x6 torus, queue size 2 flits."""
    return NetworkConfig(6, 6, topology="torus", router=RouterConfig(queue_depth=2))


def fig1_gt_streams(net: NetworkConfig) -> GtReservationTable:
    """One GT stream per node to the node two columns east.

    Every east link then carries exactly two GT streams, which the
    greedy reservation colours onto VCs 0 and 1 — a fully loaded but
    feasible GT configuration, matching the paper's premise of one
    stream per VC per link.
    """
    table = GtReservationTable(net)
    pattern = neighbor_shift(net, dx=2)
    for src in range(net.n_routers):
        dest = pattern(src, None)
        if dest != src:
            table.reserve(src, dest)
    return table


@dataclass
class WorkloadResult:
    """Latency measurements of one (GT + BE) workload run."""

    be_load: float
    gt_period: int
    cycles: int
    gt_mean: Optional[float]
    gt_max: Optional[int]
    be_mean: Optional[float]
    be_max: Optional[int]
    guarantee: int
    gt_packets: int
    be_packets: int
    extra_delta_fraction: Optional[float] = None
    accepted_be_load: Optional[float] = None


def run_fig1_workload(
    be_load: float,
    cycles: int,
    gt_period: int = 1300,
    seed: int = 0x5EED,
    engine_cls=SequentialEngine,
    warmup: Optional[int] = None,
) -> WorkloadResult:
    """One Figure 1 data point: fixed GT traffic plus swept BE load.

    Latency statistics exclude packets submitted during the warm-up
    phase (default: one GT period) so the pipeline is in steady state.
    """
    net = fig1_network()
    engine = engine_cls(net)
    gt_table = fig1_gt_streams(net)
    gt = GtStreamTraffic(net, gt_table.streams, period=gt_period)
    be = BernoulliBeTraffic(net, be_load, uniform_random(net), seed=seed)
    driver = TrafficDriver(engine, be=be, gt=gt)
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    warmup = gt_period if warmup is None else warmup

    driver.run(warmup + cycles)
    driver.be = None
    driver.gt = None
    driver.drain()
    tracker.collect(engine)
    metrics = getattr(engine, "metrics", None)
    return _fig1_point_result(
        net,
        tracker,
        be_load=be_load,
        gt_period=gt_period,
        cycles=cycles,
        warmup=warmup,
        n_injections=len(engine.injections),
        done_cycle=engine.cycle,
        extra_delta_fraction=metrics.extra_fraction() if metrics else None,
    )


def _fig1_point_result(
    net: NetworkConfig,
    tracker,
    be_load: float,
    gt_period: int,
    cycles: int,
    warmup: int,
    n_injections: int,
    done_cycle: int,
    extra_delta_fraction: Optional[float],
) -> WorkloadResult:
    """Assemble one Figure-1 point from a collected latency tracker.

    ``done_cycle`` is the cycle at which *this* run (or lane) finished
    draining — the denominator of the accepted-load figure, so a lane
    of a batched sweep reports the same number as its solo run even
    when other lanes kept the batch stepping longer.
    """
    columns = tracker.samples.columns
    latency = tracker.samples.total_latency()
    measured = columns[S_SUBMIT] >= warmup
    is_gt = columns[S_GT] == 1

    def stats_for(chosen):
        values = latency[chosen & measured]
        if not values.size:
            return None, None, 0
        # an integer sum divided once: the mean the per-sample loop gave
        return int(values.sum()) / values.size, int(values.max()), values.size

    gt_mean, gt_max, gt_n = stats_for(is_gt)
    be_mean, be_max, be_n = stats_for(~is_gt)
    gt_hops = columns[S_HOPS, is_gt]
    max_hops = int(gt_hops.max()) if gt_hops.size else 2
    return WorkloadResult(
        be_load=be_load,
        gt_period=gt_period,
        cycles=cycles,
        gt_mean=gt_mean,
        gt_max=gt_max,
        be_mean=be_mean,
        be_max=be_max,
        guarantee=gt_guarantee_bound(net.router, GT_PAYLOAD_BYTES, max_hops),
        gt_packets=gt_n,
        be_packets=be_n,
        extra_delta_fraction=extra_delta_fraction,
        accepted_be_load=n_injections / (done_cycle * net.n_routers),
    )


def run_fig1_workloads_batched(
    be_loads: Sequence[float],
    cycles: int,
    gt_period: int = 1300,
    seed: int = 0x5EED,
    warmup: Optional[int] = None,
):
    """The whole Figure-1 load sweep on one batch engine, one lane per
    swept load.

    Every lane carries the identical GT streams and seed as its solo
    :func:`run_fig1_workload` run, and the batch engine is bit-identical
    to the sequential engine per lane, so each returned point equals the
    solo result — except ``extra_delta_fraction``, which is exactly 2.0
    by construction (three bulk-synchronous sweeps per cycle against the
    one-sweep-per-router static minimum).
    """
    from repro.engines import BatchEngine, drain_batched, run_batched

    net = fig1_network()
    lanes = len(be_loads)
    engine = BatchEngine(net, lanes=lanes)
    warmup = gt_period if warmup is None else warmup
    drivers = []
    trackers = []
    # one reservation table: the lanes carry identical (immutable) streams
    streams = fig1_gt_streams(net).streams
    for i, be_load in enumerate(be_loads):
        gt = GtStreamTraffic(net, streams, period=gt_period)
        be = BernoulliBeTraffic(net, be_load, uniform_random(net), seed=seed)
        driver = TrafficDriver(engine.lane(i), be=be, gt=gt)
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)
        drivers.append(driver)
        trackers.append(tracker)

    run_batched(engine, drivers, warmup + cycles)
    for driver in drivers:
        driver.be = None
        driver.gt = None
    done = drain_batched(engine, drivers)

    results = []
    for i, be_load in enumerate(be_loads):
        trackers[i].collect(engine.lane(i))
        results.append(
            _fig1_point_result(
                net,
                trackers[i],
                be_load=be_load,
                gt_period=gt_period,
                cycles=cycles,
                warmup=warmup,
                n_injections=len(engine.lane_injections(i)),
                done_cycle=warmup + cycles + done[i],
                extra_delta_fraction=engine.metrics.extra_fraction(),
            )
        )
    return results


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Fixed-width text table for experiment reports."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.1f}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
