"""The five pipeline stages (paper section 5.3, one class per step).

Each stage is a thin wrapper over a function the fused chunk path of
:func:`~repro.engines.batch.run_batched` already uses; the pipeline only
spreads them over threads and rings.  What travels between them is one
columnar :class:`~repro.traffic.stimuli.Stimuli` per window.  The
pipeline owns one tracker-less
:class:`~repro.traffic.stimuli.TrafficDriver` per lane, and which thread
touches which part of it is the whole design:

* **generate** (runs ahead, up to the ring capacity) — ``source.scan``:
  the batched C scan where it applies, the drivers' Python generators
  otherwise (:func:`~repro.engines.batch.window_source`).  Owns the
  generators' LFSR state and sequence numbers, the GT emit counters and
  the drivers' BE-VC toggles; never touches ``driver.queues`` (the
  simulate thread stages from it).
* **load** — ``Stimuli.load``: the flit columns, pure.
* **simulate** (the caller's thread) — one ``run_chunk(drivers, k,
  stimuli)`` per chunk when ``engines.batch.chunk_decline`` has no
  objection; any other engine goes through
  :func:`~repro.traffic.stimuli.step_window` (``driver.pump()`` +
  ``engine.step()`` per cycle over the queued window).  Owns the
  drivers' queues, stall counters, submit logs, ``flits_generated`` and
  ``overloaded``; the stall accounting and the overload error *are* the
  driver's, and an overload rewinds the generate side through the
  window's own source, however far ahead it ran.  Draining is
  ``drain_batched`` / ``TrafficDriver.drain``.
* **retrieve** — :func:`~repro.engines.eventlog.log_window` below the
  bounds simulate recorded (safe against a concurrent writer): one
  integer block per lane and log.
* **analyze** — notes the chunk's submits on its own trackers from the
  window's packet columns, then
  ``PacketLatencyTracker.collect_records`` on the event blocks — one C
  pass per (chunk, lane) that runs without the GIL, so this thread
  overlaps the simulation (``tracker.kernel`` names the body; the NumPy
  one holds the GIL).  The histogram takes the chunk's new samples only;
  the per-sink counts and the flit counts read columns and shapes.
  Every chunk's submits are noted before its events are matched, so
  per-key FIFO matching pops the same submit the end-of-run collection
  would.

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
from repro.noc.config import NetworkConfig
from repro.pipeline.chunks import (
    LoadedChunk,
    ResultChunk,
    RetrievedChunk,
    StimulusChunk,
)
from repro.stats.histogram import Histogram
from repro.stats.latency import PacketLatencyTracker
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

    def _bounds(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        inj_bounds, ej_bounds = [], []
        for lane, view in enumerate(self.views):
            hi_i, hi_e = len(view.injections), len(view.ejections)
            inj_bounds.append((self._inj_seen[lane], hi_i))
            ej_bounds.append((self._ej_seen[lane], hi_e))
            self._inj_seen[lane], self._ej_seen[lane] = hi_i, hi_e
        return inj_bounds, ej_bounds

    def process(self, chunk: LoadedChunk) -> ResultChunk:
        engine, drivers = self.engine, self.drivers
        if engine.cycle != chunk.start:
            raise RuntimeError(
                f"simulate stage out of sync: engine at cycle {engine.cycle}, "
                f"chunk starts at {chunk.start}"
            )
        compiled = chunk_kernel(engine, drivers)
        if compiled is not None:
            compiled.run_chunk(drivers, chunk.cycles, chunk.stimuli)
        else:
            step_window(engine, drivers, chunk.stimuli)
        inj_bounds, ej_bounds = self._bounds()
        return ResultChunk(
            chunk.start, chunk.stop, chunk.stimuli, inj_bounds, ej_bounds
        )

    def drain(self, max_cycles: int = 100_000) -> ResultChunk:
        """Run until every lane is drained; the returned final chunk
        carries the per-lane drain cycle counts."""
        engine = self.engine
        start = engine.cycle
        if isinstance(engine, BatchEngine):
            done = drain_batched(engine, self.drivers, max_cycles)
        else:
            done = [self.drivers[0].drain(max_cycles)]
        inj_bounds, ej_bounds = self._bounds()
        return ResultChunk(
            start, engine.cycle, None, inj_bounds, ej_bounds, done_cycles=list(done)
        )


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

    Latency trackers, throughput counters and the latency histogram all
    update incrementally — no stage ever holds a full run's logs.
    """

    name = "analyze"

    def __init__(
        self, net: NetworkConfig, lanes: int, histogram_bin: int = 10
    ) -> None:
        self.net = net
        self.trackers = [PacketLatencyTracker(net) for _ in range(lanes)]
        self.histograms = [Histogram(histogram_bin) for _ in range(lanes)]
        self.inj_counts = [0] * lanes
        self.ej_counts = [0] * lanes
        self.submit_counts = [0] * lanes
        #: per lane: ejected flits per sink router (hotspot accounting)
        self.eject_router_counts = np.zeros((lanes, net.n_routers), dtype=np.int64)
        self.done_cycles: Optional[List[int]] = None

    def process(self, chunk: RetrievedChunk) -> None:
        stimuli = chunk.stimuli
        for lane, tracker in enumerate(self.trackers):
            if stimuli is not None:
                lo, hi = stimuli.lane_span(lane)
                tracker.note_submits(*stimuli.submit_columns(lo, hi))
                self.submit_counts[lane] += hi - lo
            injections, ejections = chunk.injections[lane], chunk.ejections[lane]
            tracker.collect_records(injections, ejections)
            self.inj_counts[lane] += injections.shape[1]
            self.ej_counts[lane] += ejections.shape[1]
            self.eject_router_counts[lane] += np.bincount(
                ejections[1], minlength=self.net.n_routers
            )
            histogram = self.histograms[lane]  # holds every sample seen so far
            histogram.extend_array(tracker.samples.total_latency(histogram.total))
        if chunk.done_cycles is not None:
            self.done_cycles = chunk.done_cycles

    def throughput(self, lane: int, cycles: int) -> ThroughputStats:
        """Throughput from the accumulated counters (lane's own cycle
        count: warmup + measured + its drain cycles)."""
        return ThroughputStats.from_counts(
            cycles=cycles,
            flits_injected=self.inj_counts[lane],
            flits_ejected=self.ej_counts[lane],
            n_routers=self.net.n_routers,
        )
