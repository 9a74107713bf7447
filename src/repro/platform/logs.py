"""The two extra log buffers of section 5.2.

"Two extra cyclic buffers make it possible to log 1) the traffic of a
specific link and 2) the access delay a flit notices before it enters
the network.  These two buffers cannot influence the traffic in the
NoC."

Both are read-only probes over the committed simulation state, backed by
the same 512-entry cyclic buffers the Table-2 resource model accounts
for in the Router block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.fpga.resources import LOG_BUFFER_DEPTH
from repro.noc.config import Port
from repro.noc.flit import link_word_type
from repro.noc.network import Network
from repro.platform.cyclic_buffer import CyclicBuffer


@dataclass(frozen=True)
class LinkSample:
    """One observed flit on the monitored link."""

    cycle: int
    vc: int
    flit_word: int


class LinkTrafficLog:
    """Logs every valid word on one directed link.

    The monitored link is selected by (router, input port): the wire
    arriving at that port — matching the FPGA, where the log buffer taps
    one link-memory address.
    """

    def __init__(self, network: Network, router: int, port: Port) -> None:
        if port == Port.LOCAL:
            raise ValueError("monitor inter-router links; the local port "
                             "is covered by the output buffers")
        self.network = network
        self.router = router
        self.port = int(port)
        self.buffer: CyclicBuffer[Tuple[int, int]] = CyclicBuffer(
            LOG_BUFFER_DEPTH, f"linklog[{router}:{Port(port).name}]"
        )
        self.observed = 0
        self.dropped = 0

    def observe(self) -> None:
        """Sample the link after a committed system cycle."""
        net = self.network
        word = net.fwd_in[self.router][self.port]
        if link_word_type(word, net.cfg.router.data_width) == 0:
            return
        self.observed += 1
        # A full log drops the oldest sample (free-running cyclic buffer).
        if self.buffer.is_full:
            self.buffer.read()
            self.dropped += 1
        self.buffer.write(net.cycle - 1, word)

    def samples(self) -> List[LinkSample]:
        """Drain the buffer into decoded samples (the retrieve step)."""
        data_width = self.network.cfg.router.data_width
        out = []
        for entry in self.buffer.drain():
            word = entry.payload
            out.append(
                LinkSample(
                    cycle=entry.timestamp,
                    vc=word >> (data_width + 2),
                    flit_word=word & ((1 << (data_width + 2)) - 1),
                )
            )
        return out

    def utilisation(self, cycles: Optional[int] = None) -> float:
        """Fraction of cycles the link carried a flit."""
        total = cycles if cycles is not None else self.network.cycle
        return self.observed / total if total else 0.0


class AccessDelayLog:
    """Logs the per-flit source access delays network-wide."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.buffer: CyclicBuffer[Tuple[int, int, int]] = CyclicBuffer(
            LOG_BUFFER_DEPTH, "delaylog"
        )
        self._seen = 0
        self.dropped = 0

    def observe(self) -> None:
        injections = self.network.injections
        for record in injections[self._seen :]:
            if self.buffer.is_full:
                self.buffer.read()
                self.dropped += 1
            self.buffer.write(record.cycle, (record.router, record.vc, record.access_delay))
        self._seen = len(injections)

    def delays(self) -> List[int]:
        return [entry.payload[2] for entry in self.buffer.drain()]
