"""Pipeline execution: the caller beside one fabric thread, or the serial
loop over the same stages — byte-identical results either way.

Figure 8's split: the paper's ARM generates, loads, retrieves and
analyses while its FPGA simulates.  Here the calling thread is the ARM
and a *fabric thread* of the generated C is the FPGA: it runs one
window's chunk body (:class:`~repro.kernels.batchlevel.FabricJob`) and
never touches Python.  Per window the caller::

    generate + load window k+1      (window k simulating)
    land window k                   (wait; cycles and queues back)
    launch window k+1               (stage it; the fabric starts)
    book, retrieve, analyse window k   (window k+1 simulating)

so only the landing and the staging separate two simulations.  While a
window is on the fabric it owns the engine's state arrays, the staged
rows, the event buffers and the call scratch; the caller touches none of
them (the generate side owns only generator state, and booking and
analysis read what the landing copied out).  An error the body stops
on surfaces at the landing — the window booked first, so the engine,
drivers and generators stand where the serial loop leaves them — and a
run that unwinds with a window on the fabric lands and books it on the
way out.  The fabric thread lives from the first launch to the end of
:func:`run_pipeline`, no longer.

The serial loop (``threaded=False``) runs each call in the caller, in
the same order.  Engines without the generated body (``kernel="python"``,
a pre-step hook) step each window in the caller either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engines.base import lane_views
from repro.noc.config import NetworkConfig
from repro.pipeline.stages import (
    AnalyzeStage,
    GenerateStage,
    LoadStage,
    RetrieveStage,
    SimulateStage,
)
from repro.platform.profiler import PipelineProfiler
from repro.traffic.stimuli import TrafficDriver

#: default cycles per chunk: big enough to amortise per-chunk overhead,
#: small enough that a window and its neighbours stay in cache.
DEFAULT_CHUNK = 128


@dataclass
class PipelineReport:
    """Everything a streamed run produced."""

    cycles: int
    done_cycles: List[int]
    profiler: PipelineProfiler
    analyze: AnalyzeStage
    overloaded: bool = False
    #: flits loaded into the drivers (their ``flits_generated`` summed;
    #: equals the serial drivers' count)
    flits_loaded: int = 0
    #: the per-lane drivers as the run left them (queues, stall
    #: counters, ``flits_generated``; no submit records, no tracker)
    drivers: List[TrafficDriver] = field(default_factory=list)

    @property
    def trackers(self):
        return self.analyze.trackers

    @property
    def histograms(self):
        return self.analyze.histograms


def run_pipeline(
    engine,
    traffic: Sequence[Tuple],
    cycles: int,
    *,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
    stall_limit: int = 10_000,
    histogram_bin: int = 10,
    drain_max_cycles: int = 100_000,
    profiler: Optional[PipelineProfiler] = None,
) -> PipelineReport:
    """Run ``cycles`` of traffic through the five-phase pipeline, then
    drain.

    ``traffic[i]`` is the ``(be, gt)`` generator pair of lane ``i`` —
    one pair for single-lane engines, one per lane for a
    :class:`~repro.engines.batch.BatchEngine`.  Each pair gets a
    tracker-less :class:`~repro.traffic.stimuli.TrafficDriver` on its
    lane; a compiled engine then runs every window as one call of its
    chunk body — on the fabric thread unless ``threaded`` is false — and
    any other engine steps cycle by cycle.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1 cycle (got {chunk})")
    net: NetworkConfig = engine.cfg
    views = lane_views(engine)
    if len(traffic) != len(views):
        raise ValueError(
            f"{len(traffic)} traffic lanes for an engine with "
            f"{len(views)} lanes"
        )
    drivers = [
        TrafficDriver(view, be=be, gt=gt, stall_limit=stall_limit)
        for view, (be, gt) in zip(views, traffic)
    ]
    generate = GenerateStage(engine, drivers)
    load = LoadStage(net)
    simulate = SimulateStage(engine, drivers)
    retrieve = RetrieveStage(engine)
    analyze = AnalyzeStage(net, len(drivers), histogram_bin=histogram_bin)
    prof = profiler if profiler is not None else PipelineProfiler()
    prof.threaded = threaded

    windows = _windows(generate, prof, engine.cycle, engine.cycle + cycles, chunk)

    wall_start = time.perf_counter()
    _run(load, simulate, retrieve, analyze, windows, prof, drain_max_cycles, threaded)
    prof.wall_seconds += time.perf_counter() - wall_start

    done = analyze.done_cycles or [0] * len(drivers)
    return PipelineReport(
        cycles=cycles,
        done_cycles=done,
        profiler=prof,
        analyze=analyze,
        overloaded=simulate.overloaded,
        flits_loaded=sum(driver.flits_generated for driver in drivers),
        drivers=drivers,
    )


def _windows(generate, prof, start: int, end: int, chunk: int):
    """The generate stage over ``[start, end)``: ``chunk`` cycles a
    window — fewer where the source's flit budget ends one, and the next
    starts there."""
    while start < end:
        with prof.busy("generate"):
            stimulus = generate.produce(start, min(start + chunk, end))
        prof.add_items("generate", 1)
        yield stimulus
        start = stimulus.stop


def _run(load, simulate, retrieve, analyze, windows, prof, drain_max, fabric) -> None:
    launched = None  # the window simulating
    try:
        for stimulus in windows:
            with prof.busy("load"):
                loaded = load.process(stimulus)
            prof.add_items("load", 1)
            landed = launched
            if landed is not None:
                _land(simulate, landed, prof)
            with prof.busy("simulate"):
                try:
                    launched = simulate.launch(loaded, fabric)
                finally:  # the landed window's events go to the logs first
                    result = None if landed is None else simulate.book(landed)
            prof.add_items("simulate", 1)
            if result is not None:
                _analyse(retrieve, analyze, result, prof)
        if launched is not None:
            _land(simulate, launched, prof)
            with prof.busy("simulate"):
                result = simulate.book(launched)
            _analyse(retrieve, analyze, result, prof)
        with prof.busy("simulate"):
            final = simulate.drain(max_cycles=drain_max)
        _analyse(retrieve, analyze, final, prof)
    finally:
        simulate.close(launched)


def _land(simulate, launched, prof) -> None:
    with prof.wait("simulate"):
        fabric_s, fabric_cpu = simulate.wait(launched)
    prof.record("simulate", fabric_s, fabric_cpu)
    with prof.busy("simulate"):
        simulate.land(launched)


def _analyse(retrieve, analyze, result, prof) -> None:
    with prof.busy("retrieve"):
        retrieved = retrieve.process(result)
    prof.add_items("retrieve", 1)
    with prof.busy("analyze"):
        analyze.process(retrieved)
    prof.add_items("analyze", 1)
