"""2-D torus and mesh fabrics.

The paper's FPGA simulator supports both topologies, "determined by
software" and realised as "a change in the addressing function of the
link memories" (section 7.1).  That is literally what this module is: the
addressing function from (router, port) to neighbour, and the induced
set of directed wires used by the link memory of the sequential
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.noc.config import NetworkConfig, Port


@dataclass(frozen=True)
class Wire:
    """A directed inter-router connection carrying one signal bundle.

    ``kind`` distinguishes the forward (flit) wire, written by the
    router whose *output* port faces the link, from the backward (room /
    flow-control) wire written by the router whose *input* port faces it.
    Local-port wires connect a router to its stimuli interface and are
    internal to the evaluated unit in the sequential simulator.
    """

    writer: int  # router index that drives the wire
    writer_port: Port
    reader: int  # router index that samples the wire
    reader_port: Port
    kind: str  # "fwd" or "room"

    @property
    def name(self) -> str:
        """The wire's link-memory name, ``{kind}:{writer}.{writer_port}``."""
        return _wire_name(self.kind, self.writer, self.writer_port)

    @property
    def link(self) -> Tuple[int, int]:
        """The directed physical link ``(router, port)`` the wire belongs
        to: a forward wire is its writer's output channel, a room wire
        carries the credit for the channel its *reader* sends on."""
        if self.kind == "fwd":
            return self.writer, int(self.writer_port)
        return self.reader, int(self.reader_port)


def _wire_name(kind: str, router: int, port: Port) -> str:
    return f"{kind}:{router}.{int(port)}"


class Topology:
    """Neighbour relation and wire list for a :class:`NetworkConfig`."""

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self._neighbor: List[Dict[Port, int]] = [dict() for _ in range(net.n_routers)]
        for index in range(net.n_routers):
            x, y = net.coords(index)
            for port, (dx, dy) in _DIRECTION.items():
                nx, ny = x + dx, y + dy
                if net.topology == "torus":
                    nx %= net.width
                    ny %= net.height
                elif not (0 <= nx < net.width and 0 <= ny < net.height):
                    continue  # mesh edge: port unconnected
                # Degenerate dimensions on a torus (width or height 1 or 2)
                # would create self-loops / doubled links; suppress
                # self-loops, keep doubled links (they are distinct ports).
                neighbor = net.index(nx, ny)
                if neighbor == index:
                    continue
                self._neighbor[index][port] = neighbor

    def neighbor(self, router: int, port: Port) -> Optional[int]:
        """Router on the far side of ``port``, or ``None`` if unconnected."""
        if port == Port.LOCAL:
            return None
        return self._neighbor[router].get(port)

    def packed_neighbors(self):
        """The addressing function as dense arrays for the batch engine.

        Returns ``(index, connected)``: two ``[n_routers, n_ports]``
        NumPy arrays where ``index[r, p]`` is the neighbour across port
        ``p`` (0 where unconnected — mask with ``connected`` before
        use) and ``connected[r, p]`` is the boolean link-present mask.
        This is literally the section-7.1 "change in the addressing
        function of the link memories", exported as a gather table.
        """
        import numpy as np

        n = self.net.n_routers
        n_ports = self.net.router.n_ports
        index = np.zeros((n, n_ports), dtype=np.int64)
        connected = np.zeros((n, n_ports), dtype=bool)
        for r in range(n):
            for port, neighbor in self._neighbor[r].items():
                index[r, int(port)] = neighbor
                connected[r, int(port)] = True
        return index, connected

    def connected_ports(self, router: int) -> Tuple[Port, ...]:
        """Non-local ports of ``router`` that have a neighbour."""
        return tuple(sorted(self._neighbor[router], key=int))

    def links(self) -> List[Tuple[int, Port, int, Port]]:
        """All directed links as ``(src, src_port, dst, dst_port)``.

        Each physical channel appears once per direction.
        """
        out = []
        for router in range(self.net.n_routers):
            for port, neighbor in sorted(self._neighbor[router].items(), key=lambda kv: int(kv[0])):
                out.append((router, port, neighbor, port.opposite))
        return out

    def wires(self) -> List[Wire]:
        """All inter-router wires, in link-memory order.

        Every connected non-local port ``p`` of router ``r`` (neighbour
        ``s``) contributes the two wires ``r`` *writes* there, both read
        by ``s`` at ``p.opposite``:

        * forward ``fwd:{r}.{p}`` — the link word of channel
          ``r --p--> s``;
        * room ``room:{r}.{p}`` — the per-VC space mask of ``r``'s input
          queues at ``p``, i.e. the credit for the reverse channel
          ``s --p.opposite--> r``.

        This is the one statement of the wire naming and order: the
        sequential simulator builds its link memory from it, so a wire's
        index here is its wire id there.
        """
        out: List[Wire] = []
        for src, src_port, dst, dst_port in self.links():
            out.append(Wire(src, src_port, dst, dst_port, "fwd"))
            out.append(Wire(src, src_port, dst, dst_port, "room"))
        return out

    def link_wires(self, router: int, port: int) -> Tuple[str, str]:
        """Names of the forward wire and the returning credit wire of the
        directed link ``router --port-->``."""
        port = Port(port)
        nb = self.neighbor(router, port)
        if nb is None:
            raise ValueError(f"router {router} has no neighbour on port {int(port)}")
        return _wire_name("fwd", router, port), _wire_name("room", nb, port.opposite)

    def links_behind(self, wire_names) -> List[Tuple[int, int]]:
        """The directed physical links ``(router, port)`` the named wires
        belong to, sorted and de-duplicated."""
        link_of = {wire.name: wire.link for wire in self.wires()}
        return sorted({link_of[name] for name in wire_names})

    def hop_table(self):
        """:func:`hop_table` of this topology's fabric."""
        return hop_table(self.net)

    def hops(self, src: int, dest: int) -> int:
        """Minimal hop distance under dimension-order routing."""
        for router in (src, dest):
            self.net.coords(router)  # IndexError off the fabric
        return int(self.hop_table()[src, dest])


def hop_table(net: NetworkConfig):
    """``[n_routers, n_routers]`` minimal hop distances under
    dimension-order routing on ``net``'s fabric, read-only and shared by
    every caller with a fabric of the same shape."""
    return _hop_table(net.width, net.height, net.topology)


@lru_cache(maxsize=16)
def _hop_table(width: int, height: int, topology: str):
    import numpy as np

    def axis(position, size):
        d = np.abs(position[:, None] - position[None, :])
        return np.minimum(d, size - d) if topology == "torus" else d

    index = np.arange(width * height)
    table = axis(index % width, width) + axis(index // width, height)
    table.flags.writeable = False
    return table


_DIRECTION = {
    Port.NORTH: (0, -1),
    Port.EAST: (1, 0),
    Port.SOUTH: (0, 1),
    Port.WEST: (-1, 0),
}
