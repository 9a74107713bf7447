"""Destination patterns and packet-level traffic generators.

Loads follow the paper's Figure 1 convention: best-effort load is quoted
per processing element as a *fraction of channel capacity*, where the
channel capacity is one flit per cycle.  A BE load of 0.1 means each
node injects on average 0.1 flits per cycle, i.e. one 7-flit BE packet
every 70 cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.packet import (
    BE_PAYLOAD_BYTES,
    GT_PAYLOAD_BYTES,
    Packet,
    PacketClass,
    flits_per_packet,
)
from repro.noc.reservation import GtReservationTable, GtStream
from repro.traffic.rng import _JUMP, HardwareLfsr

DestinationPattern = Callable[[int, object], int]
"""Maps (source index, rng) -> destination index."""

#: Two periods of the byte ramp every generator payload is drawn from:
#: ``bytes((start + i) % 256 for i in range(n))`` is a slice of this
#: table whenever ``n <= 257``, which skips a per-packet generator
#: expression in the innermost traffic loop.
_PAYLOAD_TABLE = bytes(range(256)) * 2


def _ramp_payload(start: int, length: int) -> bytes:
    if length <= 257:
        start %= 256
        return _PAYLOAD_TABLE[start : start + length]
    return bytes((start + i) % 256 for i in range(length))


def uniform_random(net: NetworkConfig) -> DestinationPattern:
    """Uniformly random destination, excluding the source itself."""

    def pick(src: int, rng) -> int:
        dest = rng.next_below(net.n_routers - 1)
        return dest if dest < src else dest + 1

    # Declared draw bound: lets the batched traffic kernel recognise this
    # pattern and reproduce its exact RNG word sequence in C.
    pick.uniform_bound = net.n_routers - 1
    return pick


def transpose(net: NetworkConfig) -> DestinationPattern:
    """(x, y) -> (y, x); classic adversarial pattern for XY routing.

    Requires a square network; diagonal nodes send to themselves'
    transpose which is themselves, so they fall back to a fixed offset.
    """
    if net.width != net.height:
        raise ValueError("transpose needs a square network")

    def pick(src: int, rng) -> int:
        x, y = net.coords(src)
        dest = net.index(y, x)
        if dest == src:
            dest = net.index((y + 1) % net.width, x)
        return dest

    return pick


def bit_complement(net: NetworkConfig) -> DestinationPattern:
    """(x, y) -> (W-1-x, H-1-y)."""

    def pick(src: int, rng) -> int:
        x, y = net.coords(src)
        dest = net.index(net.width - 1 - x, net.height - 1 - y)
        if dest == src:
            dest = (src + 1) % net.n_routers
        return dest

    return pick


def hotspot(net: NetworkConfig, target: int, fraction: float = 0.5) -> DestinationPattern:
    """With probability ``fraction`` send to ``target``, else uniform."""
    base = uniform_random(net)

    def pick(src: int, rng) -> int:
        if src != target and rng.bernoulli(fraction):
            return target
        return base(src, rng)

    return pick


def neighbor_shift(net: NetworkConfig, dx: int = 1, dy: int = 0) -> DestinationPattern:
    """(x, y) -> (x+dx, y+dy) with wrap-around — the link-disjoint GT
    pattern used in the Fig. 1 reproduction."""

    def pick(src: int, rng) -> int:
        x, y = net.coords(src)
        return net.index((x + dx) % net.width, (y + dy) % net.height)

    return pick


@dataclass
class BernoulliBeTraffic:
    """Best-effort load: per node, per cycle, a BE packet is generated
    with probability ``load / flits_per_packet``.

    ``load`` is the Fig. 1 x-axis: offered flits per cycle per node as a
    fraction of channel capacity.
    """

    net: NetworkConfig
    load: float
    pattern: DestinationPattern
    payload_bytes: int = BE_PAYLOAD_BYTES
    seed: int = 0x1234_5678

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ValueError("load is a fraction of channel capacity")
        self.rng = HardwareLfsr(self.seed)
        self.packet_probability = self.load / flits_per_packet(
            self.payload_bytes, self.net.router.data_width
        )
        self._seq = [0] * self.net.n_routers

    def snapshot(self) -> Tuple:
        """The generator's mutable state, for :meth:`restore`."""
        return self.rng.state, self.rng.words_read, list(self._seq)

    def restore(self, state: Tuple) -> None:
        self.rng.state, self.rng.words_read, self._seq[:] = state

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets generated network-wide in one cycle.

        The per-source Bernoulli draw is inlined (one LFSR jump and a
        threshold compare, exactly :meth:`HardwareLfsr.bernoulli`) —
        this is the simulation's innermost traffic loop, executed once
        per router per cycle whether or not a packet is generated.
        """
        out = []
        prob = self.packet_probability
        if prob <= 0:
            return out
        threshold = int(prob * 2**32)
        rng = self.rng
        j0, j1, j2, j3 = _JUMP
        state = rng.state
        reads = 0
        for src in range(self.net.n_routers):
            state = (
                j0[state & 0xFF]
                ^ j1[(state >> 8) & 0xFF]
                ^ j2[(state >> 16) & 0xFF]
                ^ j3[state >> 24]
            )
            reads += 1
            if state < threshold:
                # Sync the generator before the pattern consumes it.
                rng.state = state
                rng.words_read += reads
                reads = 0
                seq = self._seq[src]
                self._seq[src] = (seq + 1) & 0xFF
                payload = _ramp_payload(src + seq, self.payload_bytes)
                out.append(
                    Packet(
                        src=src,
                        dest=self.pattern(src, self.rng),
                        pclass=PacketClass.BE,
                        payload=payload,
                        tag=seq % 128,
                        seq=seq,
                    )
                )
                state = rng.state
        rng.state = state
        rng.words_read += reads
        return out

    def packets_for_cycles(self, start: int, stop: int) -> List[List[Packet]]:
        """Chunked streaming form of :meth:`packets_for_cycle`.

        Returns one packet list per cycle in ``[start, stop)``, produced
        by a single pass that keeps the LFSR state in locals across the
        whole chunk — the generator state afterwards, and every packet,
        is bit-identical to ``stop - start`` per-cycle calls.  This is
        the generate stage's API: one chunk of stimuli per call, cheap
        enough that generation streams ahead of the simulation.
        """
        per_cycle: List[List[Packet]] = []
        prob = self.packet_probability
        if prob <= 0:
            return [[] for _ in range(stop - start)]
        threshold = int(prob * 2**32)
        rng = self.rng
        j0, j1, j2, j3 = _JUMP
        state = rng.state
        reads = 0
        n_routers = self.net.n_routers
        seq_table = self._seq
        payload_bytes = self.payload_bytes
        pattern = self.pattern
        for _cycle in range(start, stop):
            out: List[Packet] = []
            for src in range(n_routers):
                state = (
                    j0[state & 0xFF]
                    ^ j1[(state >> 8) & 0xFF]
                    ^ j2[(state >> 16) & 0xFF]
                    ^ j3[state >> 24]
                )
                reads += 1
                if state < threshold:
                    # Sync the generator before the pattern consumes it
                    # (identical to the per-cycle loop).
                    rng.state = state
                    rng.words_read += reads
                    reads = 0
                    seq = seq_table[src]
                    seq_table[src] = (seq + 1) & 0xFF
                    payload = _ramp_payload(src + seq, payload_bytes)
                    out.append(
                        Packet(
                            src=src,
                            dest=pattern(src, rng),
                            pclass=PacketClass.BE,
                            payload=payload,
                            tag=seq % 128,
                            seq=seq,
                        )
                    )
                    state = rng.state
            per_cycle.append(out)
        rng.state = state
        rng.words_read += reads
        return per_cycle


@dataclass
class GtStreamTraffic:
    """Guaranteed-throughput streams: each reserved stream emits one GT
    packet every ``period`` cycles (phase-staggered so sources do not
    synchronise)."""

    net: NetworkConfig
    streams: Sequence[GtStream]
    period: int
    payload_bytes: int = GT_PAYLOAD_BYTES

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        self._seq = [0] * len(self.streams)
        self._phase = [
            (hash((s.src, s.dest)) % self.period) for s in self.streams
        ]
        #: emission phase -> the streams firing at it, in stream order
        self._by_phase: Dict[int, List[int]] = {}
        for i, phase in enumerate(self._phase):
            self._by_phase.setdefault(phase, []).append(i)

    def snapshot(self) -> List[int]:
        """The generator's mutable state, for :meth:`restore`."""
        return list(self._seq)

    def restore(self, state: List[int]) -> None:
        self._seq[:] = state

    @property
    def load_per_stream(self) -> float:
        """Offered GT flits per cycle per stream."""
        return flits_per_packet(self.payload_bytes, self.net.router.data_width) / self.period

    def cycles_to_next_packet(self, cycle: int) -> int:
        """Cycles from ``cycle`` until a stream next fires (0: one fires
        at ``cycle`` itself) — the streams are periodic, so this is
        closed-form.  Needs at least one stream."""
        period = self.period
        return min((phase - cycle) % period for phase in self._phase)

    def emit(self, index: int) -> Tuple[Packet, int]:
        """The next ``(packet, reserved VC)`` of stream ``index``; its
        sequence number advances."""
        stream = self.streams[index]
        seq = self._seq[index]
        self._seq[index] = (seq + 1) & 0xFF
        packet = Packet(
            src=stream.src,
            dest=stream.dest,
            pclass=PacketClass.GT,
            payload=_ramp_payload(seq, self.payload_bytes),
            tag=index % 128,
            seq=seq,
        )
        return packet, stream.vc

    def packets_for_cycle(self, cycle: int) -> List[Tuple[Packet, int]]:
        """(packet, reserved VC) pairs emitted this cycle."""
        return [self.emit(i) for i in self._by_phase.get(cycle % self.period, ())]

    def packets_for_cycles(
        self, start: int, stop: int
    ) -> List[List[Tuple[Packet, int]]]:
        """Chunked streaming form of :meth:`packets_for_cycle`: one
        ``(packet, reserved VC)`` list per cycle in ``[start, stop)``,
        bit-identical to the per-cycle calls.  Streams are bucketed by
        emission phase, so an idle cycle costs one dict probe."""
        return [self.packets_for_cycle(cycle) for cycle in range(start, stop)]


def reserve_shift_streams(
    net: NetworkConfig,
    dx: int = 1,
    dy: int = 0,
    routing=None,
) -> GtReservationTable:
    """Reserve one GT stream per node following a neighbour shift —
    the workload of the Fig. 1 reproduction."""
    table = GtReservationTable(net, routing)
    pattern = neighbor_shift(net, dx, dy)
    for src in range(net.n_routers):
        dest = pattern(src, None)
        if dest != src:
            table.reserve(src, dest)
    return table
