"""Parameterisation of the router and network.

The defaults reproduce the paper's configuration exactly: 5 ports,
4 virtual channels per port, 4-flit input queues, a 16-bit data path
(18-bit flit, 20-bit link word), which yields the 2112-bit state word of
Table 1.  Figure 1 uses ``queue_depth=2``; section 4 mentions a reduced
6-bit data path for the direct-instantiation synthesis experiment — both
are plain parameter changes here.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field


class Port(enum.IntEnum):
    """Router port indices.

    ``LOCAL`` is the processing-element / stimuli-interface port; the four
    cardinal ports connect to neighbouring routers.
    """

    LOCAL = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4

    @property
    def opposite(self) -> "Port":
        """The port a link arrives on at the far router."""
        return _OPPOSITE[self]


_OPPOSITE = {
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.LOCAL: Port.LOCAL,
}


@dataclass(frozen=True)
class RouterConfig:
    """Static parameters of one router.

    Attributes
    ----------
    n_ports:
        Number of bidirectional ports (5: four neighbours + local).
    n_vcs:
        Virtual channels per port (one input queue each).
    queue_depth:
        Flits per input queue (paper default 4; Fig. 1 uses 2).
    data_width:
        Payload bits per flit (16 → 18-bit flit, 20-bit link word).
    gt_vcs:
        VC indices reservable by guaranteed-throughput streams.  BE
        packets allocate only VCs outside this set, which is how the
        "one data stream per VC" GT rule of section 2.1 is enforced.
    deadlock_avoidance:
        Apply the dateline VC scheme to best-effort allocation (see
        :mod:`repro.noc.deadlock`).  Requires at least two BE VCs;
        designs with fewer fall back to free allocation.
    """

    n_ports: int = 5
    n_vcs: int = 4
    queue_depth: int = 4
    data_width: int = 16
    gt_vcs: frozenset = field(default_factory=lambda: frozenset({0, 1}))
    deadlock_avoidance: bool = True

    def __post_init__(self) -> None:
        if self.n_ports < 2:
            raise ValueError("router needs at least a local port and one link")
        if self.n_vcs < 1:
            raise ValueError("at least one virtual channel required")
        if self.queue_depth < 1:
            raise ValueError("queues must hold at least one flit")
        if self.data_width < 9:
            # Header needs dest_x/dest_y/gt bits; see repro.noc.flit.Header.
            raise ValueError("data_width must be >= 9 to carry the header")
        if not all(0 <= vc < self.n_vcs for vc in self.gt_vcs):
            raise ValueError("gt_vcs out of range")

    # -- derived widths (all used by the Table-1 layout) ---------------------
    @property
    def flit_width(self) -> int:
        """Queue-entry width: 2-bit flit type + data (paper: 18)."""
        return 2 + self.data_width

    @property
    def link_width(self) -> int:
        """Forward link-word width: VC label + flit (paper: 20)."""
        return self.vc_bits + self.flit_width

    @property
    def vc_bits(self) -> int:
        """Bits to name a VC (2 for 4 VCs)."""
        return max(1, (self.n_vcs - 1).bit_length())

    @functools.cached_property
    def event_layout(self):
        """The packed words of a logged event
        (:class:`~repro.noc.layout.EventLayout`)."""
        from repro.noc.layout import EventLayout

        return EventLayout(self)

    @property
    def n_queues(self) -> int:
        """Total input queues = crossbar inputs (paper: 20)."""
        return self.n_ports * self.n_vcs

    @property
    def queue_index_bits(self) -> int:
        """Bits to name one of the crossbar inputs (5 for 20)."""
        return max(1, (self.n_queues - 1).bit_length())

    @property
    def count_bits(self) -> int:
        """Bits of a queue occupancy counter (0..depth inclusive)."""
        return self.queue_depth.bit_length()

    @property
    def pointer_bits(self) -> int:
        """Bits of a queue read/write pointer."""
        return max(1, (self.queue_depth - 1).bit_length())

    @property
    def be_vcs(self) -> tuple:
        """VC indices available to best-effort packets, ascending."""
        return tuple(vc for vc in range(self.n_vcs) if vc not in self.gt_vcs)


@dataclass(frozen=True)
class NetworkConfig:
    """A ``width`` x ``height`` network of identical routers.

    ``topology`` is ``"torus"`` or ``"mesh"`` — selected by software in the
    paper's simulator (section 7.1) and likewise a runtime parameter here.
    The simulator supports 1x2 up to 16x16 (256 routers), the range quoted
    in section 6.

    ``router_overrides`` supports heterogeneous networks (section 7.1:
    "It is possible to select a different router functionality depending
    on the position in the network.  The limiting factor is the number
    of registers in the router."): a tuple of ``(index, RouterConfig)``
    pairs replacing the base configuration at those positions.  Only the
    amount of per-router state (queue depth) may vary — the wire formats
    (ports, VCs, data width) must match network-wide, exactly the
    constraint the shared link memory imposes in the FPGA.
    """

    width: int
    height: int
    topology: str = "torus"
    router: RouterConfig = field(default_factory=RouterConfig)
    router_overrides: tuple = ()

    MAX_ROUTERS = 256

    def __post_init__(self) -> None:
        if self.topology not in ("torus", "mesh"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.width < 1 or self.height < 1 or self.n_routers < 2:
            raise ValueError("network must contain at least 2 routers (1x2)")
        if self.n_routers > self.MAX_ROUTERS:
            raise ValueError(
                f"{self.n_routers} routers exceed the simulator maximum "
                f"of {self.MAX_ROUTERS} (paper section 6)"
            )
        if self.width > 16 or self.height > 16:
            raise ValueError("coordinates are 4-bit fields: max dimension is 16")
        base = self.router
        for index, override in self.router_overrides:
            if not 0 <= index < self.n_routers:
                raise ValueError(f"override index {index} out of range")
            if not isinstance(override, RouterConfig):
                raise TypeError("override must be a RouterConfig")
            same_wires = (
                override.n_ports == base.n_ports
                and override.n_vcs == base.n_vcs
                and override.data_width == base.data_width
                and override.gt_vcs == base.gt_vcs
                and override.deadlock_avoidance == base.deadlock_avoidance
            )
            if not same_wires:
                raise ValueError(
                    "heterogeneous routers may differ only in per-router "
                    "state (queue depth); wire formats must match"
                )

    def router_at(self, index: int) -> RouterConfig:
        """The (possibly overridden) configuration of one router."""
        for i, override in self.router_overrides:
            if i == index:
                return override
        return self.router

    @property
    def is_heterogeneous(self) -> bool:
        return bool(self.router_overrides)

    @property
    def n_routers(self) -> int:
        return self.width * self.height

    def coords(self, index: int) -> tuple:
        """Router index -> (x, y)."""
        if not 0 <= index < self.n_routers:
            raise IndexError(f"router {index} out of range")
        return index % self.width, index // self.width

    def index(self, x: int, y: int) -> int:
        """(x, y) -> router index."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"coordinates ({x}, {y}) out of range")
        return y * self.width + x
