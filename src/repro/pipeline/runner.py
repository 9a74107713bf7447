"""The streamed run: the five steps of the paper's control program
(section 5.3, Figure 8) — the serial window loop of
:func:`~repro.engines.batch.run_batched` with each window analysed as it
is booked, and the caller beside one fabric thread, byte-identical.

Figure 8's split: the paper's ARM generates, loads, retrieves and
analyses while its FPGA simulates.  Here the calling thread is the ARM
and a *fabric thread* of the generated C is the FPGA: it runs one
window's chunk body (:class:`~repro.kernels.batchlevel.FabricJob`),
never touches Python and runs off the caller's CPU where another is
allowed (the profiler's ``caller_cpu`` / ``fabric_cpus``).  Per window
the caller::

    generate + load window k+1      (window k simulating)
    land window k                   (wait; cycles and queues back)
    launch window k+1               (stage it; the fabric starts)
    book, retrieve, analyse window k   (window k+1 simulating)

so only the landing and the staging separate two simulations.  What
each step may touch while a window simulates is the whole design:

* **generate + load** (a window ahead) — one call of the C traffic scan
  (the ``scan`` of :func:`~repro.engines.batch.run_plan`), which leaves
  the flit columns loaded.  It owns the generators' LFSR state and
  sequence numbers, the GT emit counters and the drivers' BE-VC
  toggles; never ``driver.queues``.
* **simulate** — the window in flight owns the engine's state arrays,
  the staged rows, its event buffers and the call scratch.  Landing it
  hands each queue's unconsumed tail back to its driver; booking it logs
  its events and books its traffic on the drivers (an overload rewinds
  the generate side through the window's own source, however far ahead
  it ran).
* **retrieve** — :func:`~repro.engines.eventlog.log_span` below the
  log bounds the booked window left: per log, every lane's events of
  the window named by the log's block tables, read in place (a Python
  engine's record lists are packed once).
* **analyze** — :meth:`Analysis.add`: the report's own trackers and
  counters, the window's submits read from the drivers' submit logs.

Every other run — ``threaded=False``, and every run
:func:`~repro.engines.batch.run_plan` gives no chunk body (golden lanes,
a host without ``cc``, an engine with no generated body, a pre-step
hook, drivers the scan does not take) — is the serial loop itself
(:func:`~repro.engines.batch.window_loop`): windows of ``chunk`` cycles,
each one chunk call or ``chunk`` cycles stepped through the drivers' own
generators, in the caller, then retrieved and analysed the same way.
The drain is :func:`~repro.engines.batch.drain_batched` on every engine.

An error the body stops on surfaces at the landing — the window booked
first, so the engine, drivers and generators stand where the serial
loop leaves them — and a run that unwinds with a window on the fabric
lands and books it on the way out.  The fabric thread lives from the
first launch to the end of :func:`run_pipeline`, no longer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.engines.base import lane_views
from repro.engines.batch import drain_batched, run_plan, window_loop
from repro.engines.eventlog import lane_lengths, log_span
from repro.noc.config import NetworkConfig
from repro.platform.profiler import PipelineProfiler
from repro.stats.histogram import Histogram
from repro.stats.latency import PacketLatencyTracker, collect_lanes
from repro.stats.throughput import ThroughputStats
from repro.traffic.stimuli import TrafficDriver

#: default cycles per chunk: big enough to amortise per-chunk overhead,
#: small enough that a window and its neighbours stay in cache.
DEFAULT_CHUNK = 128

#: bin width, in cycles, of :attr:`Analysis.histograms`
HISTOGRAM_BIN = 10


class Analysis:
    """Step 5's running statistics, per lane, folded in window by window
    — no full run's log is ever held."""

    def __init__(self, net: NetworkConfig, lanes: int) -> None:
        self.net = net
        self.trackers = [PacketLatencyTracker(net) for _ in range(lanes)]
        self.inj_counts = [0] * lanes
        self.ej_counts = [0] * lanes
        self.submit_counts = [0] * lanes
        #: per lane: ejected flits per sink router (hotspot accounting)
        self.eject_router_counts = np.zeros((lanes, net.n_routers), dtype=np.int64)

    def add(self, drivers, injections, ejections) -> None:
        """Fold in one window: the submits ``drivers`` logged since the
        last call noted on the trackers, then every lane's events — per
        log, a :class:`~repro.engines.eventlog.LogSpan` — matched and
        their sink routers counted in one pass
        (:func:`~repro.stats.latency.collect_lanes`).  Every window's
        submits are noted before its events are matched, so per-key FIFO
        matching pops the same submit the end-of-run collection would."""
        for lane, (tracker, driver) in enumerate(zip(self.trackers, drivers)):
            seen, self.submit_counts[lane] = self.submit_counts[lane], len(driver.submits)
            tracker.note_log(driver.submits, seen, self.submit_counts[lane])
        collect_lanes(self.trackers, injections, ejections, self.eject_router_counts)
        for counts, span in ((self.inj_counts, injections), (self.ej_counts, ejections)):
            for lane, n in enumerate(map(int, span.sizes())):
                counts[lane] += n

    @property
    def histograms(self) -> List[Histogram]:
        """Per lane, every total latency matched so far, binned."""
        histograms = []
        for tracker in self.trackers:
            histogram = Histogram(HISTOGRAM_BIN)
            histogram.extend_array(tracker.samples.total_latency())
            histograms.append(histogram)
        return histograms

    def throughput(self, lane: int, cycles: int) -> ThroughputStats:
        """Throughput from the accumulated counters (lane's own cycle
        count: warmup + measured + its drain cycles)."""
        return ThroughputStats.from_counts(
            cycles=cycles,
            flits_injected=self.inj_counts[lane],
            flits_ejected=self.ej_counts[lane],
            n_routers=self.net.n_routers,
        )


@dataclass
class PipelineReport:
    """Everything a streamed run produced besides the engine and drivers."""

    cycles: int
    done_cycles: List[int]
    profiler: PipelineProfiler
    analyze: Analysis

    @property
    def trackers(self) -> List[PacketLatencyTracker]:
        return self.analyze.trackers


def run_pipeline(
    engine,
    drivers: Sequence[TrafficDriver],
    cycles: int,
    *,
    chunk: int = DEFAULT_CHUNK,
    threaded: bool = True,
) -> PipelineReport:
    """Run ``cycles`` of ``drivers``' traffic through the five steps,
    then drain — what ``run_batched`` + ``drain_batched`` do, streamed.

    ``drivers[i]`` is a plain :class:`~repro.traffic.stimuli.TrafficDriver`
    on lane ``i`` (one for single-lane engines, one per lane of a
    :class:`~repro.engines.batch.BatchEngine`), with no tracker: the
    report's trackers analyse the run.  A compiled engine runs every
    window as one call of its chunk body — on the fabric thread unless
    ``threaded`` is false — and any other engine steps cycle by cycle.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1 cycle (got {chunk})")
    views = lane_views(engine)
    if len(drivers) != len(views):
        raise ValueError(
            f"{len(drivers)} drivers for an engine with {len(views)} lanes"
        )
    tracked = [i for i, driver in enumerate(drivers) if driver.tracker is not None]
    if tracked:
        raise ValueError(
            f"lane {tracked[0]}'s driver has a tracker; the pipeline's own "
            "trackers analyse the run"
        )
    net: NetworkConfig = engine.cfg
    scan, body = run_plan(engine, drivers)
    analysis = Analysis(net, len(views))
    prof = PipelineProfiler(threaded=threaded)
    logs = getattr(engine, "event_logs", None) or [
        [getattr(view, kind) for view in views] for kind in ("injections", "ejections")
    ]
    marks = [[0] * len(views)] * 2

    def analyse() -> None:
        """Retrieve and analyse every lane's events booked since the last
        call (entries below the last call's bounds never change)."""
        nonlocal marks
        now = list(map(lane_lengths, logs))
        with prof.busy("retrieve"):
            injections, ejections = (
                log_span(log, lo, hi, net.router.event_layout)
                for log, lo, hi in zip(logs, marks, now)
            )
        marks = now
        prof.add_items("retrieve", 1)
        with prof.busy("analyze"):
            analysis.add(drivers, injections, ejections)
        prof.add_items("analyze", 1)

    def simulated() -> None:
        """A window of the serial loop is booked: count it, analyse it."""
        if body is not None:
            prof.add_items("generate", 1)
        prof.add_items("simulate", 1)
        analyse()

    def launch(window):
        """Stage a loaded window and start it on the fabric thread."""
        job = body.prepare(drivers, window.stop - window.start, window).start()
        if job.threaded and prof.caller_cpu < 0:
            prof.caller_cpu = body.fabric_placement()[0]
        prof.add_items("simulate", 1)
        return job

    def land(job, ahead=None) -> None:
        """Take a window back from the fabric: its cycles and the
        drivers' queues.  A window the body stopped with an error is
        booked, and the error raised — the window generated ``ahead`` of
        it first taken back, as the serial loop never generated it."""
        if job.threaded:
            with prof.wait("simulate"):
                job.wait()
            prof.record("simulate", job.seconds, job.cpu_seconds)
            prof.fabric_call(job.started_on)
        with prof.busy("simulate"):
            job.land()
            if job.ret:
                if ahead is not None:
                    scan.restore(ahead)
                job.book()
                job.check()

    start, end = engine.cycle, engine.cycle + cycles
    flight = None  # the window simulating on the fabric thread
    wall_start = time.perf_counter()
    try:
        if body is None or not threaded:
            window_loop(
                engine, drivers, end, scan, body,
                chunk=chunk, phase=prof.busy, booked=simulated,
            )
        else:
            try:
                while start < end or flight is not None:
                    landed, window = flight, None
                    if start < end:
                        with prof.busy("generate"):
                            window = scan.generate_window(start, min(start + chunk, end))
                        prof.add_items("generate", 1)
                        start = window.stop
                    if landed is not None:
                        land(landed, window)
                    with prof.busy("simulate"):
                        try:
                            flight = launch(window) if window is not None else None
                        finally:  # the landed window's events go to the logs first
                            if landed is not None:
                                landed.book()
                    if landed is not None:
                        analyse()
            finally:
                engine.kernel_loop_seconds += time.perf_counter() - wall_start
        with prof.busy("simulate"):
            done = drain_batched(engine, drivers)
        analyse()
    finally:
        # a window a failing run unwinds past is landed and booked, so the
        # engine and drivers end where it ended; its own error gives way
        # to the one unwinding
        if flight is not None:
            flight.land()
            flight.book()
        if body is not None:
            body.close_fabric()
    prof.wall_seconds += time.perf_counter() - wall_start
    return PipelineReport(cycles, done, prof, analysis)
