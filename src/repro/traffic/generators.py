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


def _fixed(net: NetworkConfig, dest_of: Callable[[int, int, int], int]) -> DestinationPattern:
    """The pattern sending each source ``(x, y)`` to ``dest_of(src, x,
    y)``, always: it draws no RNG word, and declares its per-source
    table (``destinations``) for the batched traffic kernel."""
    table = tuple(dest_of(src, *net.coords(src)) for src in range(net.n_routers))

    def pick(src: int, rng) -> int:
        return table[src]

    pick.destinations = table
    return pick


def transpose(net: NetworkConfig) -> DestinationPattern:
    """(x, y) -> (y, x); classic adversarial pattern for XY routing.

    Requires a square network; diagonal nodes send to themselves'
    transpose which is themselves, so they fall back to a fixed offset.
    """
    if net.width != net.height:
        raise ValueError("transpose needs a square network")

    def dest_of(src: int, x: int, y: int) -> int:
        dest = net.index(y, x)
        return net.index((y + 1) % net.width, x) if dest == src else dest

    return _fixed(net, dest_of)


def bit_complement(net: NetworkConfig) -> DestinationPattern:
    """(x, y) -> (W-1-x, H-1-y)."""

    def dest_of(src: int, x: int, y: int) -> int:
        dest = net.index(net.width - 1 - x, net.height - 1 - y)
        return (src + 1) % net.n_routers if dest == src else dest

    return _fixed(net, dest_of)


def hotspot(net: NetworkConfig, target: int, fraction: float = 0.5) -> DestinationPattern:
    """With probability ``fraction`` send to ``target``, else uniform."""
    base = uniform_random(net)

    def pick(src: int, rng) -> int:
        if src != target and rng.bernoulli(fraction):
            return target
        return base(src, rng)

    # declared: the uniform draw's bound, and the Bernoulli draw before it
    pick.uniform_bound = base.uniform_bound
    pick.hotspot = (target, fraction)
    return pick


def neighbor_shift(net: NetworkConfig, dx: int = 1, dy: int = 0) -> DestinationPattern:
    """(x, y) -> (x+dx, y+dy) with wrap-around — the link-disjoint GT
    pattern used in the Fig. 1 reproduction."""
    return _fixed(
        net, lambda src, x, y: net.index((x + dx) % net.width, (y + dy) % net.height)
    )


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

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets generated network-wide in one cycle."""
        return self.packets_for_cycles(cycle, cycle + 1)[0]

    def packets_for_cycles(self, start: int, stop: int) -> List[List[Packet]]:
        """One packet list per cycle in ``[start, stop)``, from a single
        pass that keeps the LFSR state in locals across the whole chunk.

        The per-source Bernoulli draw is inlined (one LFSR jump and a
        threshold compare, exactly :meth:`HardwareLfsr.bernoulli`) —
        this is the Python traffic path's innermost loop, executed once
        per router per cycle whether or not a packet is generated.
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
                    # Sync the generator before the pattern consumes it.
                    rng.state = state
                    rng.words_read += reads
                    reads = 0
                    seq = int(seq_table[src])  # a list, or a C scan's row
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
        seq = int(self._seq[index])  # a list, or a C scan's row
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
