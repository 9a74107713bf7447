"""The five pipeline stages (paper section 5.3, one class per step).

Each stage is a thin wrapper over a function the fused chunk path of
:func:`~repro.engines.batch.run_batched` already uses; the runner
(:mod:`repro.pipeline.runner`) orders their calls so that one window's
simulation overlaps the other four phases of its neighbours.  What
travels between them is one columnar
:class:`~repro.traffic.stimuli.Stimuli` per window.  The pipeline owns
one tracker-less :class:`~repro.traffic.stimuli.TrafficDriver` per
lane, and what each phase may touch while a window simulates is the
whole design:

* **generate** (a window ahead) — ``source.scan``: the batched C scan
  where it applies, the drivers' Python generators otherwise
  (:func:`~repro.engines.batch.window_source`).  Owns the generators'
  LFSR state and sequence numbers, the GT emit counters and the
  drivers' BE-VC toggles; never touches ``driver.queues``.
* **load** — ``Stimuli.load``: the flit columns, pure.
* **simulate** — where ``engines.batch.chunk_decline`` has no
  objection, one call of the chunk body per window
  (:class:`~repro.kernels.batchlevel.FabricJob`): :meth:`SimulateStage.launch`
  stages the window behind the drivers' backlog and starts the call,
  on the fabric thread or in the caller; :meth:`SimulateStage.land`
  waits for it and hands each queue's unconsumed tail back to its
  driver; :meth:`SimulateStage.book` logs its events and books its
  traffic on the drivers.  Any other engine steps the window in
  ``launch`` through :func:`~repro.traffic.stimuli.step_window`
  (``driver.pump()`` + ``engine.step()`` per cycle).  The stall
  accounting and the overload error *are* the driver's, and an
  overload rewinds the generate side through the window's own source,
  however far ahead it ran.  Draining is ``drain_batched`` /
  ``TrafficDriver.drain``.
* **retrieve** — :func:`~repro.engines.eventlog.log_window` below the
  bounds the booked window left: one integer block per lane and log.
* **analyze** — notes the window's submits on its trackers from the
  packet columns, then matches every lane's events in one pass
  (:func:`~repro.stats.latency.collect_lanes`: one ``repro_match`` call
  where the trackers have the C body).  Every window's submits are noted
  before its events are matched, so per-key FIFO matching pops the same
  submit the end-of-run collection would.  The per-sink counts and the
  flit counts read columns and shapes; the histograms are the trackers'
  samples, binned when read.

The equivalence tests compare engine snapshots, full logs, driver state
and drain counts against ``run_batched`` and the solo reference engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engines.base import lane_views
from repro.engines.batch import (
    BatchEngine,
    chunk_kernel,
    drain_batched,
    window_source,
)
from repro.engines.eventlog import log_window
from repro.kernels.batchlevel import FabricJob
from repro.noc.config import NetworkConfig
from repro.pipeline.chunks import (
    LoadedChunk,
    ResultChunk,
    RetrievedChunk,
    StimulusChunk,
)
from repro.stats.histogram import Histogram
from repro.stats.latency import PacketLatencyTracker, collect_lanes, note_lanes
from repro.stats.throughput import ThroughputStats
from repro.traffic.stimuli import FlitEncoder, TrafficDriver, step_window


class GenerateStage:
    """Step 1: produce every lane's packets for a window of cycles."""

    name = "generate"

    def __init__(self, engine, drivers: Sequence[TrafficDriver]) -> None:
        self.source = window_source(engine, drivers)

    def produce(self, start: int, limit: int) -> StimulusChunk:
        """The next window from ``start``: to ``limit``, or to where the
        source's flit budget ends it."""
        stimuli = self.source.scan(start, limit)
        return StimulusChunk(start, stimuli.stop, stimuli)


class LoadStage:
    """Step 2: segment and flit-encode each chunk's packets."""

    name = "load"

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.encoder = FlitEncoder(net)

    def process(self, chunk: StimulusChunk) -> LoadedChunk:
        return LoadedChunk(
            chunk.start, chunk.stop, chunk.stimuli.load(self.net, self.encoder)
        )


class SimulateStage:
    """Step 3: advance the engine over the loaded window."""

    name = "simulate"

    def __init__(self, engine, drivers: Sequence[TrafficDriver]) -> None:
        self.engine = engine
        self.drivers = list(drivers)
        self.views = lane_views(engine)
        self._inj_seen = [0] * len(self.views)
        self._ej_seen = [0] * len(self.views)

    @property
    def overloaded(self) -> bool:
        return any(driver.overloaded for driver in self.drivers)

    def _result(self, start, stop, stimuli, done_cycles=None) -> ResultChunk:
        """The window's chunk: the log bounds its events occupy."""
        inj_bounds, ej_bounds = [], []
        for lane, view in enumerate(self.views):
            hi_i, hi_e = len(view.injections), len(view.ejections)
            inj_bounds.append((self._inj_seen[lane], hi_i))
            ej_bounds.append((self._ej_seen[lane], hi_e))
            self._inj_seen[lane], self._ej_seen[lane] = hi_i, hi_e
        return ResultChunk(start, stop, stimuli, inj_bounds, ej_bounds, done_cycles)

    def launch(self, chunk: LoadedChunk, fabric: bool):
        """Start simulating ``chunk``: the chunk body's call, on the
        fabric thread (``fabric``) or run here — a job for :meth:`land`
        and :meth:`book` — or, on an engine without the body, the window
        stepped here to its finished :class:`ResultChunk`."""
        engine, drivers = self.engine, self.drivers
        if engine.cycle != chunk.start:
            raise RuntimeError(
                f"simulate stage out of sync: engine at cycle {engine.cycle}, "
                f"chunk starts at {chunk.start}"
            )
        compiled = chunk_kernel(engine, drivers)
        if compiled is None:
            step_window(engine, drivers, chunk.stimuli)
            return self._result(chunk.start, chunk.stop, chunk.stimuli)
        job = compiled.prepare(drivers, chunk.cycles, chunk.stimuli)
        return job.start() if fabric else job.run()

    @staticmethod
    def wait(launched) -> Tuple[float, float]:
        """Wait for a launched window; returns the wall and CPU seconds
        a fabric thread spent on it (none for one run here)."""
        if isinstance(launched, FabricJob) and launched.threaded:
            launched.wait()
            return launched.seconds, launched.cpu_seconds
        return 0.0, 0.0

    @staticmethod
    def land(launched) -> None:
        """Take a launched window back: its cycles and the drivers'
        queues.  A window the body stopped with an error is booked, and
        the error raised."""
        if isinstance(launched, FabricJob):
            launched.land()
            if launched.ret:
                launched.book()
                launched.check()

    def book(self, launched) -> ResultChunk:
        """Log a landed window's events, book its traffic, and return
        its chunk."""
        if not isinstance(launched, FabricJob):
            return launched
        launched.book()
        window = launched.window
        return self._result(window.start, window.stop, window)

    def close(self, launched) -> None:
        """End the run: a window still out (a failing run unwinds past
        it) is landed and booked, so the engine and drivers end where it
        ended — its own error gives way to the one unwinding — and the
        fabric thread stops."""
        if isinstance(launched, FabricJob):
            launched.land()
            launched.book()
        compiled = getattr(self.engine, "_compiled", None)
        if compiled is not None:
            compiled.close_fabric()

    def process(self, chunk: LoadedChunk) -> ResultChunk:
        """The whole step, in the caller."""
        launched = self.launch(chunk, fabric=False)
        self.land(launched)
        return self.book(launched)

    def drain(self, max_cycles: int = 100_000) -> ResultChunk:
        """Run until every lane is drained; the returned final chunk
        carries the per-lane drain cycle counts."""
        engine = self.engine
        start = engine.cycle
        if isinstance(engine, BatchEngine):
            done = drain_batched(engine, self.drivers, max_cycles)
        else:
            done = [self.drivers[0].drain(max_cycles)]
        return self._result(start, engine.cycle, None, list(done))


class RetrieveStage:
    """Step 4: read the window's events out of the engine logs (the ARM
    reading FPGA memory): one ``[fields, n]`` block per lane, no record
    built where the log is an :class:`~repro.engines.eventlog.EventLog`."""

    name = "retrieve"

    def __init__(self, engine) -> None:
        self.views = lane_views(engine)

    def process(self, chunk: ResultChunk) -> RetrievedChunk:
        return RetrievedChunk(
            chunk.start,
            chunk.stop,
            chunk.stimuli,
            [
                log_window(view.injections, *bounds)
                for view, bounds in zip(self.views, chunk.inj_bounds)
            ],
            [
                log_window(view.ejections, *bounds)
                for view, bounds in zip(self.views, chunk.ej_bounds)
            ],
            done_cycles=chunk.done_cycles,
        )


class AnalyzeStage:
    """Step 5: fold each chunk into the running statistics.

    Latency trackers and throughput counters update window by window —
    no stage ever holds a full run's logs.
    """

    name = "analyze"

    def __init__(
        self, net: NetworkConfig, lanes: int, histogram_bin: int = 10
    ) -> None:
        self.net = net
        self.histogram_bin = histogram_bin
        self.trackers = [PacketLatencyTracker(net) for _ in range(lanes)]
        self.inj_counts = [0] * lanes
        self.ej_counts = [0] * lanes
        self.submit_counts = [0] * lanes
        #: per lane: ejected flits per sink router (hotspot accounting)
        self.eject_router_counts = np.zeros((lanes, net.n_routers), dtype=np.int64)
        self.done_cycles: Optional[List[int]] = None

    def process(self, chunk: RetrievedChunk) -> None:
        stimuli = chunk.stimuli
        if stimuli is not None:
            note_lanes(
                self.trackers,
                stimuli.submit_columns(0, stimuli.packets.shape[1]),
                stimuli.lane_ends,
            )
            lo = 0
            for lane, hi in enumerate(stimuli.lane_ends):
                self.submit_counts[lane] += hi - lo
                lo = hi
        collect_lanes(self.trackers, chunk.injections, chunk.ejections)
        for lane, ejections in enumerate(chunk.ejections):
            self.inj_counts[lane] += chunk.injections[lane].shape[1]
            self.ej_counts[lane] += ejections.shape[1]
            self.eject_router_counts[lane] += np.bincount(
                ejections[1], minlength=self.net.n_routers
            )
        if chunk.done_cycles is not None:
            self.done_cycles = chunk.done_cycles

    @property
    def histograms(self) -> List[Histogram]:
        """Per lane, every total latency matched so far, binned."""
        histograms = []
        for tracker in self.trackers:
            histogram = Histogram(self.histogram_bin)
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
