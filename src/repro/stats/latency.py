"""Packet latency measurement and the analytic GT guarantee.

Latency definitions (Figure 1 plots the *total* latency):

* **total latency** — from the cycle the packet was handed to the
  stimuli buffers to the cycle its TAIL flit left the network.  This
  includes the source access delay, which is the quantity that explodes
  when the network saturates.
* **network latency** — from the cycle the HEAD flit entered the source
  router to the TAIL ejection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.engines.eventlog import Columns, log_window
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.flit import FlitType
from repro.noc.packet import PacketClass, ProtocolError, flits_per_packet
from repro.noc.topology import Topology
from repro.traffic.stimuli import SubmitRecord


@dataclass(frozen=True)
class LatencySample:
    """One delivered packet's timing."""

    pclass: PacketClass
    src: int
    dest: int
    hops: int
    submit_cycle: int
    head_inject_cycle: Optional[int]
    head_eject_cycle: int
    tail_eject_cycle: int

    @property
    def total_latency(self) -> int:
        return self.tail_eject_cycle - self.submit_cycle

    @property
    def network_latency(self) -> Optional[int]:
        if self.head_inject_cycle is None:
            return None
        return self.tail_eject_cycle - self.head_inject_cycle


@dataclass
class LatencyStats:
    """Aggregate over one traffic class."""

    count: int
    mean: float
    maximum: int
    minimum: int
    p50: float
    p99: float

    @staticmethod
    def from_samples(latencies: List[int]) -> Optional["LatencyStats"]:
        if not latencies:
            return None
        arr = np.asarray(latencies, dtype=np.int64)
        return LatencyStats(
            count=int(arr.size),
            mean=float(arr.mean()),
            maximum=int(arr.max()),
            minimum=int(arr.min()),
            p50=float(np.percentile(arr, 50)),
            p99=float(np.percentile(arr, 99)),
        )


_EVENT_FIELDS = attrgetter("cycle", "router", "vc", "flit_word")


def _events(events):
    """``(cycle, router, vc, flit_word)`` of each event, from records or
    from the leading columns of a log window."""
    if isinstance(events, Columns):
        return zip(*events[:4])
    return map(_EVENT_FIELDS, events)


class PacketLatencyTracker:
    """Matches engine ejection logs against submit records.

    Matching key is ``(src, seq)``; sequence numbers wrap at 256, so
    outstanding submits are matched FIFO per key — correct because a
    single (source, VC) stream delivers in order.
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.topology = Topology(net)
        self.samples: List[LatencySample] = []
        #: per (src, seq): ``(vc, submit cycle)`` of each outstanding submit
        self._pending: Dict[Tuple[int, int], Deque[Tuple[int, int]]] = {}
        self._head_eject: Dict[Tuple[int, int], int] = {}  # (router, vc) -> cycle
        self._head_inject: Dict[Tuple[int, int], Deque[int]] = {}
        #: per (router, vc) open packet: [header word, source-info word
        #: (None until it arrives), flits so far]
        self._open: Dict[Tuple[int, int], List] = {}
        self._ej_seen = 0
        self._inj_seen = 0

    def note_submit(self, record: SubmitRecord) -> None:
        packet = record.packet
        self.note_submits(
            (packet.src,), (packet.seq,), (record.vc,), (record.submit_cycle,)
        )

    def note_submits(self, srcs, seqs, vcs, cycles) -> None:
        """Note submitted packets from their columns, in submit order."""
        pending = self._pending
        for src, seq, vc, cycle in zip(srcs, seqs, vcs, cycles):
            key = (src, seq)
            queue = pending.get(key)
            if queue is None:
                queue = pending[key] = deque()
            queue.append((vc, cycle))

    def collect(self, engine) -> None:
        """Process new injection/ejection records from the engine."""
        injections = engine.injections
        ejections = engine.ejections
        n_inj, n_ej = len(injections), len(ejections)
        self.collect_records(
            log_window(injections, self._inj_seen, n_inj),
            log_window(ejections, self._ej_seen, n_ej),
        )
        self._inj_seen = n_inj
        self._ej_seen = n_ej

    def collect_records(self, injections, ejections) -> None:
        """Process explicit record slices — the streaming analyze stage's
        entry point (:meth:`collect` is the cursor-keeping wrapper over
        the engine's full logs).  Either argument may instead be the
        :class:`~repro.engines.eventlog.Columns` of a log window, which
        are read field by field with no record built.

        This is the analysis hot loop, so reassembly is done on the raw
        integer words — type tag and fields by shift/mask, no
        intermediate :class:`~repro.noc.flit.Flit` objects — with the
        same wormhole-protocol checks (and the same
        :class:`~repro.noc.packet.ProtocolError` messages) as
        :class:`~repro.noc.packet.Reassembler`.
        """
        data_width = self.net.router.data_width
        mask = (1 << data_width) - 1
        head_t, tail_t = int(FlitType.HEAD), int(FlitType.TAIL)
        for cycle, router, vc, word in _events(injections):
            if (word >> data_width) & 3 == head_t:
                self._head_inject.setdefault((router, vc), deque()).append(cycle)

        open_packets = self._open
        for cycle, router, vc, word in _events(ejections):
            ftype = (word >> data_width) & 3
            if ftype == 0:  # IDLE
                continue
            key = (router, vc)
            if ftype == head_t:
                if key in open_packets:
                    raise ProtocolError(f"VC {vc}: HEAD while a packet is open")
                self._head_eject[key] = cycle
                open_packets[key] = [word & mask, None, 1]
                continue
            packet = open_packets.get(key)
            if packet is None:
                raise ProtocolError(
                    f"VC {vc}: {FlitType(ftype).name} without a HEAD"
                )
            if packet[1] is None:
                packet[1] = word & mask
            packet[2] += 1
            if ftype != tail_t:
                continue
            del open_packets[key]
            header, source, flits = packet
            if flits < 3:
                raise ProtocolError("packet too short: no body flits before TAIL")
            src = self.net.index(source & 0xF, (source >> 4) & 0xF)
            self.net.index(header & 0xF, (header >> 4) & 0xF)  # a real router too
            self._finish(
                src,
                (source >> 8) & 0xFF,
                PacketClass.GT if (header >> 8) & 1 else PacketClass.BE,
                router,
                vc,
                cycle,
            )

    @property
    def open_vcs(self) -> List[Tuple[int, int]]:
        """(router, VC) pairs with a partially ejected packet (for
        end-of-run checks)."""
        return sorted(self._open)

    def _finish(self, src, seq, pclass, router: int, vc: int, tail_cycle: int) -> None:
        key = (src, seq)
        submits = self._pending.get(key)
        if not submits:
            raise RuntimeError(f"delivered packet with no submit record: {key}")
        submit_vc, submit_cycle = submits.popleft()
        head_eject = self._head_eject[(router, vc)]
        inject_queue = self._head_inject.get((src, submit_vc))
        # A head cannot eject before it injected, so a front entry newer
        # than the head ejection belongs to a *later* packet on this key
        # (same-key packets can finish out of order across different
        # sinks).  Leaving it queued keeps the attribution deterministic
        # whether the logs are matched at end of run or chunk by chunk.
        head_inject = None
        if inject_queue and inject_queue[0] <= head_eject:
            head_inject = inject_queue.popleft()
        self.samples.append(
            LatencySample(
                pclass=pclass,
                src=src,
                dest=router,
                hops=self.topology.hops(src, router),
                submit_cycle=submit_cycle,
                head_inject_cycle=head_inject,
                head_eject_cycle=self._head_eject[(router, vc)],
                tail_eject_cycle=tail_cycle,
            )
        )

    # -- aggregation ----------------------------------------------------------
    def stats(
        self, pclass: Optional[PacketClass] = None, network: bool = False
    ) -> Optional[LatencyStats]:
        values = []
        for sample in self.samples:
            if pclass is not None and sample.pclass is not pclass:
                continue
            value = sample.network_latency if network else sample.total_latency
            if value is not None:
                values.append(value)
        return LatencyStats.from_samples(values)

    def delivered(self, pclass: Optional[PacketClass] = None) -> int:
        if pclass is None:
            return len(self.samples)
        return sum(1 for s in self.samples if s.pclass is pclass)


def gt_guarantee_bound(
    cfg: RouterConfig, payload_bytes: int, hops: int
) -> int:
    """Analytic worst-case latency of a GT packet (the "Guarantee" line
    of Figure 1).

    Derivation: on every link at most ``n_vcs`` output VCs can be
    allocated, and the output arbiter is round-robin, so a GT queue with
    a flit and downstream room is served at least once every ``n_vcs``
    cycles.  A hop additionally costs one allocation cycle and one
    transfer cycle for the head.  Hence

    * head reaches the sink after at most ``(hops + 1) * (1 + n_vcs)``
      cycles,
    * the remaining ``L - 1`` flits drain at worst one per ``n_vcs``
      cycles.
    """
    n_flits = flits_per_packet(payload_bytes, cfg.data_width)
    return (hops + 1) * (1 + cfg.n_vcs) + (n_flits - 1) * cfg.n_vcs
