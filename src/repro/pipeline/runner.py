"""Pipeline execution: threaded stages over rings, or the serial
fallback — byte-identical results either way.

Thread placement mirrors Figure 8: generate, load, retrieve and analyze
each get a worker thread (named ``repro-pipeline-<stage>``) and the
simulation — the paper's FPGA — runs in the calling thread.  Four
rings connect them::

    generate --g2l--> load --l2s--> [simulate] --s2r--> retrieve --r2a--> analyze

Every ring access blocks with a timeout, so the pipeline carries real
backpressure (a slow simulate stalls generate once ``g2l``/``l2s``
fill) and a dead peer surfaces as a pointer-state error, not a hang.
A failing stage aborts every ring, wakes all threads, and the first
exception is re-raised in the caller.

The stages share one :class:`~repro.traffic.stimuli.TrafficDriver` per
lane, split by thread (:mod:`repro.pipeline.stages`): generate and load
run up to ``ring_capacity`` chunks ahead and touch only generator state;
the calling thread owns the queues.  Under the interpreter lock the
worker threads overlap only with the C chunk call, which releases it —
the profiler's ``cpu_seconds`` and CPU-based ``overlap_efficiency`` say
how much that was.

The serial fallback (``threaded=False``) calls the same stage objects
in a plain loop — no rings, no threads — and produces exactly the same
engine state, logs, drain counts and statistics: the stages are
deterministic and the rings only reorder *independent* work.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engines.base import lane_views
from repro.noc.config import NetworkConfig
from repro.pipeline.chunks import END
from repro.pipeline.ring import StageRing
from repro.pipeline.stages import (
    AnalyzeStage,
    GenerateStage,
    LoadStage,
    RetrieveStage,
    SimulateStage,
)
from repro.platform.profiler import PipelineProfiler
from repro.traffic.stimuli import TrafficDriver

#: thread-name prefix; the test suite's leak check keys on it.
THREAD_PREFIX = "repro-pipeline-"

#: default cycles per chunk: big enough to amortise per-chunk overhead,
#: small enough that four in-flight chunks stay far ahead of a stall.
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


class _StageThread(threading.Thread):
    """Worker thread running one stage loop; stores its exception and
    aborts the rings so every peer (and the caller) unblocks at once."""

    def __init__(self, name: str, target, rings) -> None:
        super().__init__(name=THREAD_PREFIX + name, daemon=True)
        self._target_fn = target
        self._rings = rings
        self.error: Optional[BaseException] = None

    def run(self) -> None:  # pragma: no cover - exercised via the runner
        try:
            self._target_fn()
        except BaseException as exc:  # noqa: BLE001 - propagated by caller
            self.error = exc
            for ring in self._rings:
                ring.abort()


def run_pipeline(
    engine,
    traffic: Sequence[Tuple],
    cycles: int,
    *,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
    stall_limit: int = 10_000,
    ring_capacity: int = 4,
    ring_timeout: Optional[float] = 60.0,
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
    lane; a compiled batch engine then runs every chunk as one
    ``run_chunk`` call, any other engine steps cycle by cycle.
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
    if threaded:
        _run_threaded(
            generate, load, simulate, retrieve, analyze, windows,
            prof, ring_capacity, ring_timeout, drain_max_cycles,
        )
    else:
        _run_serial(
            generate, load, simulate, retrieve, analyze, windows,
            prof, drain_max_cycles,
        )
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
    """The generate stage over ``[start, end)``: one window per ring
    slot, ``chunk`` cycles each — fewer where the source's flit budget
    ends one, and the next slot starts there."""
    while start < end:
        with prof.busy("generate"):
            stimulus = generate.produce(start, min(start + chunk, end))
        prof.add_items("generate", 1)
        yield stimulus
        start = stimulus.stop


def _run_serial(
    generate, load, simulate, retrieve, analyze, windows, prof, drain_max
) -> None:
    for stimulus in windows:
        with prof.busy("load"):
            loaded = load.process(stimulus)
        prof.add_items("load", 1)
        with prof.busy("simulate"):
            result = simulate.process(loaded)
        prof.add_items("simulate", 1)
        with prof.busy("retrieve"):
            retrieved = retrieve.process(result)
        prof.add_items("retrieve", 1)
        with prof.busy("analyze"):
            analyze.process(retrieved)
        prof.add_items("analyze", 1)
    with prof.busy("simulate"):
        final = simulate.drain(max_cycles=drain_max)
    with prof.busy("retrieve"):
        retrieved = retrieve.process(final)
    with prof.busy("analyze"):
        analyze.process(retrieved)


def _run_threaded(
    generate, load, simulate, retrieve, analyze, windows,
    prof, ring_capacity, ring_timeout, drain_max,
) -> None:
    g2l = StageRing("g2l", ring_capacity, timeout=ring_timeout)
    l2s = StageRing("l2s", ring_capacity, timeout=ring_timeout)
    s2r = StageRing("s2r", ring_capacity, timeout=ring_timeout)
    r2a = StageRing("r2a", ring_capacity, timeout=ring_timeout)
    rings = (g2l, l2s, s2r, r2a)

    def generate_loop() -> None:
        for stimulus in windows:
            with prof.wait("generate"):
                g2l.put(stimulus.start, stimulus)
        with prof.wait("generate"):
            g2l.close()

    def load_loop() -> None:
        while True:
            with prof.wait("load"):
                item = g2l.get()
            if item is END:
                with prof.wait("load"):
                    l2s.close()
                return
            with prof.busy("load"):
                loaded = load.process(item)
            prof.add_items("load", 1)
            with prof.wait("load"):
                l2s.put(item.start, loaded)

    def retrieve_loop() -> None:
        while True:
            with prof.wait("retrieve"):
                item = s2r.get()
            if item is END:
                with prof.wait("retrieve"):
                    r2a.close()
                return
            with prof.busy("retrieve"):
                retrieved = retrieve.process(item)
            prof.add_items("retrieve", 1)
            with prof.wait("retrieve"):
                r2a.put(item.start, retrieved)

    def analyze_loop() -> None:
        while True:
            with prof.wait("analyze"):
                item = r2a.get()
            if item is END:
                return
            with prof.busy("analyze"):
                analyze.process(item)
            prof.add_items("analyze", 1)

    threads = [
        _StageThread("generate", generate_loop, rings),
        _StageThread("load", load_loop, rings),
        _StageThread("retrieve", retrieve_loop, rings),
        _StageThread("analyze", analyze_loop, rings),
    ]
    for thread in threads:
        thread.start()

    caller_error: Optional[BaseException] = None
    try:
        # The simulation runs here, in the caller's thread.
        while True:
            with prof.wait("simulate"):
                item = l2s.get()
            if item is END:
                break
            with prof.busy("simulate"):
                result = simulate.process(item)
            prof.add_items("simulate", 1)
            with prof.wait("simulate"):
                s2r.put(item.start, result)
        with prof.busy("simulate"):
            final = simulate.drain(max_cycles=drain_max)
        with prof.wait("simulate"):
            s2r.put(final.start, final)
            s2r.close()
    except BaseException as exc:  # noqa: BLE001 - re-raised below
        caller_error = exc
        for ring in rings:
            ring.abort()

    try:
        try:
            for thread in threads:
                thread.join()
        except BaseException as exc:  # noqa: BLE001 - second interrupt
            # Interrupted *during* the join (e.g. a second Ctrl-C while
            # unwinding the first): abort every ring so blocked stages
            # wake, then finish the join — stage threads always exit
            # once their rings are aborted, so this cannot hang.
            if caller_error is None:
                caller_error = exc
            for ring in rings:
                ring.abort()
            for thread in threads:
                thread.join()
    finally:
        for ring, name in zip(rings, ("g2l", "l2s", "s2r", "r2a")):
            prof.rings[name] = ring.stats()
    errors = [t.error for t in threads if t.error is not None]
    if caller_error is not None:
        errors.append(caller_error)
    if errors:
        # Prefer the root cause: an abort wakes every blocked peer with
        # a Buffer{Over,Under}runError, so a non-buffer error (overload,
        # protocol violation, ...) anywhere in the pile is the one that
        # started the collapse.
        from repro.platform.cyclic_buffer import (
            BufferOverrunError,
            BufferUnderrunError,
        )

        for exc in errors:
            if not isinstance(exc, (BufferOverrunError, BufferUnderrunError)):
                raise exc
        raise errors[0]
