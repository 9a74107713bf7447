"""The five pipeline stages (paper section 5.3, one class per step).

Each stage is a thin wrapper over a function the fused chunk path of
:func:`~repro.engines.batch.run_batched` already uses; the pipeline only
spreads them over threads and rings.  It owns one tracker-less
:class:`~repro.traffic.stimuli.TrafficDriver` per lane, and which thread
touches which part of it is the whole design:

* **generate** (runs ahead, up to the ring capacity) — the pure half of
  generation: ``BatchedBeGenerator.scan_window`` where the batched C scan
  applies, ``TrafficDriver.packets`` otherwise.  Owns the generators'
  LFSR state and sequence numbers, the GT emit counters and the drivers'
  BE-VC toggles; never touches ``driver.queues`` (the simulate thread
  iterates it while staging).
* **load** — :func:`~repro.traffic.stimuli.encode_window`, pure.
* **simulate** (the caller's thread) — ``driver.admit`` then one
  ``run_chunk(drivers, k, window)`` per chunk when the engine is compiled
  and the drivers pass ``_chunk_eligible``; any other engine gets each
  cycle's words queued before that cycle's ``driver.pump()`` +
  ``engine.step()``.  Owns the drivers' queues, stall counters,
  ``flits_generated`` and ``overloaded``; the stall accounting and the
  overload error *are* the driver's.  Draining is ``drain_batched`` /
  ``TrafficDriver.drain``.
* **retrieve** — :func:`~repro.engines.eventlog.log_window` below the
  bounds simulate recorded (safe against a concurrent writer).
* **analyze** — notes the chunk's submits on its own trackers, then
  ``PacketLatencyTracker.collect_records`` on the columns.  Every chunk's
  submits are noted before its events are matched, so per-key FIFO
  matching pops the same submit record the end-of-run collection would.

The equivalence tests compare engine snapshots, full logs, driver state
and drain counts against ``run_batched`` and the solo reference engine.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.engines.base import lane_views
from repro.engines.batch import (
    BatchEngine,
    chunk_kernel,
    drain_batched,
    window_generator,
)
from repro.engines.eventlog import Columns, log_window
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
from repro.traffic.stimuli import (
    FlitEncoder,
    SubmitRecord,
    TrafficDriver,
    encode_window,
    window_entries,
)


class GenerateStage:
    """Step 1: produce every lane's packets for a window of cycles."""

    name = "generate"

    def __init__(self, engine, drivers: Sequence[TrafficDriver]) -> None:
        self.drivers = list(drivers)
        self.generator = window_generator(engine, self.drivers)

    def produce(self, start: int, stop: int) -> StimulusChunk:
        if self.generator is not None:
            packets = self.generator.scan_window(start, stop)
        else:
            packets = [driver.packets(start, stop) for driver in self.drivers]
        return StimulusChunk(start, stop, packets)


class LoadStage:
    """Step 2: segment and flit-encode each chunk's packets."""

    name = "load"

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.encoder = FlitEncoder(net)

    def process(self, chunk: StimulusChunk) -> LoadedChunk:
        window = [
            encode_window(self.net, self.encoder, packets)
            for packets in chunk.packets
        ]
        return LoadedChunk(chunk.start, chunk.stop, chunk.packets, window)


class SimulateStage:
    """Step 3: admit the loaded window and advance the engine over it."""

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
        for driver, fresh in zip(drivers, chunk.window):
            driver.admit(fresh)
        compiled = chunk_kernel(engine, drivers)
        if compiled is not None:
            compiled.run_chunk(drivers, chunk.cycles, chunk.window)
        else:
            self._step_cycles(chunk)
        inj_bounds, ej_bounds = self._bounds()
        return ResultChunk(
            chunk.start, chunk.stop, chunk.packets, inj_bounds, ej_bounds
        )

    def _step_cycles(self, chunk: LoadedChunk) -> None:
        """The per-cycle path: each cycle's words are queued right before
        that cycle's pump, exactly like ``TrafficDriver.step`` (generated
        flits are offerable the same cycle)."""
        due: List[dict] = []
        for driver, fresh in zip(self.drivers, chunk.window):
            by_cycle: dict = {}
            for key, slot in fresh.items():
                queue = driver.queues[key]
                for entry in window_entries(key, slot):
                    by_cycle.setdefault(entry.cycle, []).append((queue, entry))
            due.append(by_cycle)
        step = self.engine.step
        for cycle in range(chunk.start, chunk.stop):
            for driver, by_cycle in zip(self.drivers, due):
                for queue, entry in by_cycle.get(cycle, ()):
                    queue.append(entry)
                driver.pump()
            step()

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
            start,
            engine.cycle,
            [[] for _ in self.drivers],
            inj_bounds,
            ej_bounds,
            done_cycles=list(done),
        )


class RetrieveStage:
    """Step 4: read the window's events out of the engine logs (the ARM
    reading FPGA memory): columns, no record built, where the log is an
    :class:`~repro.engines.eventlog.EventLog`."""

    name = "retrieve"

    def __init__(self, engine) -> None:
        self.views = lane_views(engine)

    def process(self, chunk: ResultChunk) -> RetrievedChunk:
        return RetrievedChunk(
            chunk.start,
            chunk.stop,
            chunk.packets,
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
        self.eject_router_counts: List[Counter] = [Counter() for _ in range(lanes)]
        self._samples_seen = [0] * lanes
        self.done_cycles: Optional[List[int]] = None

    def process(self, chunk: RetrievedChunk) -> None:
        for lane, tracker in enumerate(self.trackers):
            for cycle, packet, vc in chunk.packets[lane]:
                tracker.note_submit(SubmitRecord(packet, vc, cycle))
            self.submit_counts[lane] += len(chunk.packets[lane])
            injections, ejections = chunk.injections[lane], chunk.ejections[lane]
            tracker.collect_records(injections, ejections)
            if isinstance(ejections, Columns):
                n_inj, routers = len(injections[0]), ejections[1]
            else:
                n_inj = len(injections)
                routers = [record.router for record in ejections]
            self.inj_counts[lane] += n_inj
            self.ej_counts[lane] += len(routers)
            self.eject_router_counts[lane].update(routers)
            seen = self._samples_seen[lane]
            fresh = tracker.samples[seen:]
            if fresh:
                self.histograms[lane].extend_array(
                    [s.total_latency for s in fresh]
                )
                self._samples_seen[lane] = seen + len(fresh)
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
