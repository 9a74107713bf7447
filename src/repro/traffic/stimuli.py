"""Stimuli tables and the software-side injection driver.

Mirrors the paper's data flow (section 5.3): generated traffic lands in
a *stimuli table* with timestamps, is moved into per-VC buffers, and the
interface hardware injects it when the network accepts it.  "If the
network is overloaded with traffic and it does not accept data on
virtual channels for a longer time, this is reported to the user and
simulation is stopped" — :class:`TrafficDriver` implements exactly that
guard.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.flit import FlitType, Header, SourceInfo
from repro.noc.packet import Packet, PacketClass, segment
from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic


class NetworkOverloadError(RuntimeError):
    """The network refused stimuli on a VC for longer than the limit."""


@dataclass(frozen=True)
class StimuliEntry:
    """One flit in the stimuli table (flit word + generation timestamp —
    'the data in the buffers has a timestamp', section 5.2)."""

    cycle: int
    router: int
    vc: int
    flit_word: int
    packet_key: Optional[Tuple[int, int]] = None  # (src, seq) of its packet


class StimuliTable:
    """The generated-traffic staging area of simulation step 1."""

    def __init__(self) -> None:
        self.entries: List[StimuliEntry] = []

    def add_packet(self, net: NetworkConfig, packet: Packet, vc: int, cycle: int) -> None:
        key = (packet.src, packet.seq)
        for flit in segment(packet, net):
            self.entries.append(
                StimuliEntry(
                    cycle,
                    packet.src,
                    vc,
                    flit.encode(net.router.data_width),
                    packet_key=key,
                )
            )

    def drain(self) -> List[StimuliEntry]:
        out, self.entries = self.entries, []
        return out

    def __len__(self) -> int:
        return len(self.entries)


class FlitEncoder:
    """Caching ``segment`` + ``encode``: packet -> encoded flit words.

    Segmentation dominates the generate/load cost of long runs, yet its
    inputs recur heavily: a packet's head word depends only on
    ``(dest, class, tag)``, its source-info word on ``(src, seq)``, and
    its payload words only on the payload bytes — which the generators
    derive from ``(src, seq)`` mod 256, so every cache is bounded by the
    traffic alphabet, not the run length.  The output is bit-identical
    to ``[f.encode(dw) for f in segment(packet, net)]`` (the slow path
    constructs the words through the very same ``Header``/``SourceInfo``
    encoders on a miss).
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.data_width = net.router.data_width
        self._bytes_per_flit = self.data_width // 8
        if self._bytes_per_flit < 1:
            raise ValueError("data path narrower than a byte cannot carry payloads")
        self._head: Dict[Tuple[int, bool, int], int] = {}
        self._source: Dict[Tuple[int, int], int] = {}
        self._payload: Dict[bytes, Tuple[int, ...]] = {}

    def words(self, packet: Packet) -> Tuple[int, ...]:
        """Encoded flit words of ``packet``, head first."""
        dw = self.data_width
        gt = packet.pclass is PacketClass.GT
        hkey = (packet.dest, gt, packet.tag)
        head = self._head.get(hkey)
        if head is None:
            dx, dy = self.net.coords(packet.dest)
            head = Header(dx, dy, gt=gt, tag=packet.tag).head_flit().encode(dw)
            self._head[hkey] = head
        skey = (packet.src, packet.seq & 0xFF)
        source = self._source.get(skey)
        if source is None:
            sx, sy = self.net.coords(packet.src)
            source = (int(FlitType.BODY) << dw) | SourceInfo(sx, sy, skey[1]).encode()
            self._source[skey] = source
        tail = self._payload.get(packet.payload)
        if tail is None:
            bpf = self._bytes_per_flit
            payload = packet.payload
            chunks = [payload[i : i + bpf] for i in range(0, len(payload), bpf)]
            body, tail_t = int(FlitType.BODY) << dw, int(FlitType.TAIL) << dw
            last = len(chunks) - 1
            tail = tuple(
                (tail_t if i == last else body) | int.from_bytes(chunk, "little")
                for i, chunk in enumerate(chunks)
            )
            self._payload[packet.payload] = tail
        return (head, source) + tail


def flit_words(net: NetworkConfig, encoder: Optional[FlitEncoder], packet: Packet):
    """Encoded flit words of ``packet``: through the word cache where it
    applies, else through ``segment`` + ``encode``."""
    if encoder is not None and packet.payload:
        return encoder.words(packet)
    dw = net.router.data_width
    return [flit.encode(dw) for flit in segment(packet, net)]


def encode_window(
    net: NetworkConfig, encoder: Optional[FlitEncoder], packets
) -> Dict[Tuple[int, int], Tuple[List[int], List[int], List[int]]]:
    """Segment and flit-encode one lane's ``(cycle, packet, vc)`` list
    (submit order) into the window the chunk kernel stages:
    ``{(src, vc): (words, cycles, seqs)}``, three parallel lists per
    stimuli queue.  Pure — the paper's load step."""
    window: Dict = {}
    for cycle, packet, vc in packets:
        words = flit_words(net, encoder, packet)
        key = (packet.src, vc)
        slot = window.get(key)
        if slot is None:
            slot = window[key] = ([], [], [])
        nw = len(words)
        slot[0].extend(words)
        slot[1].extend([cycle] * nw)
        slot[2].extend([packet.seq] * nw)
    return window


def window_entries(key: Tuple[int, int], slot, start: int = 0) -> List[StimuliEntry]:
    """Words ``[start:]`` of one window slot as the stimuli entries
    ``_submit`` would have queued."""
    router, vc = key
    words, cycles, seqs = slot
    return [
        StimuliEntry(
            cycles[j], router, vc, words[j], packet_key=(router, seqs[j])
        )
        for j in range(start, len(words))
    ]


@dataclass
class SubmitRecord:
    """Bookkeeping for one submitted packet (for latency analysis)."""

    packet: Packet
    vc: int
    submit_cycle: int


class TrafficDriver:
    """Generates traffic, queues it per (router, VC), and pumps the
    engine's injection registers every cycle.

    The driver is deterministic: identical generator seeds produce the
    identical offer sequence on every engine, which the equivalence tests
    rely on.
    """

    def __init__(
        self,
        engine,
        be: Optional[BernoulliBeTraffic] = None,
        gt: Optional[GtStreamTraffic] = None,
        stall_limit: int = 10_000,
    ) -> None:
        self.engine = engine
        self.net: NetworkConfig = engine.cfg
        self.be = be
        self.gt = gt
        self.stall_limit = stall_limit
        self.queues: Dict[Tuple[int, int], Deque[StimuliEntry]] = {}
        self.submits: List[SubmitRecord] = []
        self._stall: Dict[Tuple[int, int], int] = {}
        self._be_vc_toggle = [0] * self.net.n_routers
        self.overloaded = False
        self.flits_generated = 0
        self.tracker = None  # optional PacketLatencyTracker
        try:
            self._encoder: Optional[FlitEncoder] = FlitEncoder(self.net)
        except ValueError:  # sub-byte data path: keep the generic path
            self._encoder = None

    def attach_tracker(self, tracker) -> None:
        """Register a latency tracker notified of every submit."""
        self.tracker = tracker

    # -- generation (simulation step 1) --------------------------------------
    def packets(self, start: int, stop: int) -> List[Tuple[int, Packet, int]]:
        """The pure half of generation: ``(cycle, packet, vc)`` for every
        packet of cycles ``[start, stop)`` in submit order (cycle-major,
        GT streams before BE sources).  Only generator state and the
        per-source BE-VC toggles advance — no queue, counter or tracker
        is touched, so a thread may run this ahead of the simulation."""
        gt_cycles = (
            self.gt.packets_for_cycles(start, stop) if self.gt is not None else None
        )
        be_cycles = (
            self.be.packets_for_cycles(start, stop) if self.be is not None else None
        )
        be_vcs = self.net.router.be_vcs
        n_vcs = len(be_vcs)
        toggles = self._be_vc_toggle
        out = []
        for off in range(stop - start):
            cycle = start + off
            if gt_cycles is not None:
                for packet, vc in gt_cycles[off]:
                    out.append((cycle, packet, vc))
            if be_cycles is not None:
                for packet in be_cycles[off]:
                    toggle = toggles[packet.src]
                    toggles[packet.src] = (toggle + 1) % n_vcs
                    out.append((cycle, packet, be_vcs[toggle]))
        return out

    def generate(self, cycle: int) -> None:
        for _, packet, vc in self.packets(cycle, cycle + 1):
            self._submit(packet, vc, cycle)

    def send_packet(self, packet: Packet, vc: int) -> None:
        """Queue a single packet for injection (in addition to whatever
        the attached generators produce)."""
        self._submit(packet, vc, self.engine.cycle)

    def note_submit(self, packet: Packet, vc: int, cycle: int) -> None:
        """Book one submitted packet (record list, attached tracker)."""
        record = SubmitRecord(packet, vc, cycle)
        self.submits.append(record)
        if self.tracker is not None:
            self.tracker.note_submit(record)

    def admit(self, window: Dict) -> None:
        """Account for one encoded window (see :func:`encode_window`)
        about to be staged or queued: its queue keys exist from here on
        and its flits count as generated."""
        queues = self.queues
        for key, slot in window.items():
            if key not in queues:
                queues[key] = deque()
            self.flits_generated += len(slot[0])

    def _submit(self, packet: Packet, vc: int, cycle: int) -> None:
        self.note_submit(packet, vc, cycle)
        queue = self.queues.setdefault((packet.src, vc), deque())
        key = (packet.src, packet.seq)
        for word in flit_words(self.net, self._encoder, packet):
            queue.append(
                StimuliEntry(cycle, packet.src, vc, word, packet_key=key)
            )
            self.flits_generated += 1

    # -- injection (simulation steps 2/3) --------------------------------------
    def pump(self) -> None:
        """Offer the head flit of every per-VC queue; track stalls."""
        for key, queue in self.queues.items():
            if not queue:
                continue
            router, vc = key
            if self.engine.offer(router, vc, queue[0].flit_word):
                queue.popleft()
                self._stall[key] = 0
            else:
                stalled = self._stall.get(key, 0) + 1
                self._stall[key] = stalled
                if stalled > self.stall_limit:
                    self.overloaded = True
                    raise NetworkOverloadError(
                        f"router {router} VC {vc} refused stimuli for "
                        f"{stalled} cycles — network overloaded"
                    )

    def step(self) -> None:
        """One driver cycle: generate, pump, advance the engine."""
        self.generate(self.engine.cycle)
        self.pump()
        self.engine.step()

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # -- accounting -----------------------------------------------------------
    def backlog(self) -> int:
        """Flits generated but not yet accepted by the network."""
        return sum(len(q) for q in self.queues.values())

    def drain(self, max_cycles: int = 100_000) -> int:
        """Stop generating, run until everything in flight is delivered."""
        for used in range(max_cycles):
            if self.backlog() == 0 and self.engine.drained():
                return used
            self.pump()
            self.engine.step()
        raise NetworkOverloadError(
            f"network did not drain within {max_cycles} cycles "
            f"({self.backlog()} flits still queued)"
        )
