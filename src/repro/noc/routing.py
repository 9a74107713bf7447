"""Deterministic dimension-order (XY) routing.

The simulation flow of section 5.3 "start[s] with generating a routing
information table"; this module is that step.  Routing is X-first
dimension order: correct the column, then the row.  On a torus the
shorter wrap-around direction is taken, with ties broken towards
EAST/SOUTH so that every engine computes the identical route.

The route of a packet is a pure function of (current router, destination)
and is evaluated by the router when it sees a HEAD flit; precomputing it
as a table (`RoutingTable`) both matches the paper's flow and keeps the
hot simulation path cheap.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Sequence, Set, Tuple

from repro.noc.config import NetworkConfig, Port
from repro.noc.topology import Topology


class UnroutableError(RuntimeError):
    """No path exists between two routers after link quarantine."""


def route_port(net: NetworkConfig, current: int, dest: int) -> Port:
    """Output port a packet for ``dest`` takes at router ``current``.

    Returns :data:`Port.LOCAL` when the packet has arrived.
    """
    cx, cy = net.coords(current)
    dx, dy = net.coords(dest)
    if cx != dx:
        return _axis_port(cx, dx, net.width, net.topology, Port.EAST, Port.WEST)
    if cy != dy:
        return _axis_port(cy, dy, net.height, net.topology, Port.SOUTH, Port.NORTH)
    return Port.LOCAL


def _axis_port(c: int, d: int, size: int, topology: str, pos: Port, neg: Port) -> Port:
    if topology == "mesh":
        return pos if d > c else neg
    forward = (d - c) % size  # hops going in the positive direction
    backward = (c - d) % size
    return pos if forward <= backward else neg


class RoutingTable:
    """Per-router next-hop table: ``table[router][dest] -> Port``.

    This is the "routing information table" the ARM software generates
    before a simulation run (section 5.3, step 0).
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self._topo = Topology(net)
        n = net.n_routers
        # Inlined :func:`route_port` over precomputed coordinates: the
        # n^2 table dominates engine construction time, which the
        # Table-3 benchmark (and every sweep point) pays per run.
        coords = [net.coords(i) for i in range(n)]
        width, height = net.width, net.height
        mesh = net.topology == "mesh"
        local = Port.LOCAL
        east, west = Port.EAST, Port.WEST
        south, north = Port.SOUTH, Port.NORTH
        table: List[List[Port]] = []
        for current in range(n):
            cx, cy = coords[current]
            row: List[Port] = []
            append = row.append
            for dest in range(n):
                dx, dy = coords[dest]
                if cx != dx:
                    if mesh:
                        append(east if dx > cx else west)
                    else:
                        append(
                            east
                            if (dx - cx) % width <= (cx - dx) % width
                            else west
                        )
                elif cy != dy:
                    if mesh:
                        append(south if dy > cy else north)
                    else:
                        append(
                            south
                            if (dy - cy) % height <= (cy - dy) % height
                            else north
                        )
                else:
                    append(local)
            table.append(row)
        self.table = table

    def port(self, current: int, dest: int) -> Port:
        return self.table[current][dest]

    def path(self, src: int, dest: int) -> Sequence[int]:
        """Routers visited from ``src`` to ``dest`` inclusive."""
        topo = self._topo
        path = [src]
        current = src
        guard = 0
        while current != dest:
            port = self.table[current][dest]
            nxt = topo.neighbor(current, port)
            if nxt is None:
                raise RuntimeError(
                    f"routing table leads off the fabric at router {current} port {port}"
                )
            path.append(nxt)
            current = nxt
            guard += 1
            if guard > self.net.n_routers * 2:
                raise RuntimeError("routing loop detected")
        return path

    def packed(self):
        """The table as a dense NumPy gather array over the 4+4-bit
        header coordinate space.

        Returns an ``[n_routers, 256]`` int64 array indexed by the raw
        header destination code ``(dest_y << 4) | dest_x``; entries for
        coordinates off the fabric are ``-1`` so callers can reproduce
        the object model's bounds check (``NetworkConfig.index`` raises
        for them).  Regenerate after :meth:`recompute_avoiding` — the
        packed copy does not alias the mutable rows.
        """
        import numpy as np

        net = self.net
        packed = np.full((net.n_routers, 256), -1, dtype=np.int64)
        codes = [(y << 4) | x for x, y in map(net.coords, range(net.n_routers))]
        packed[:, codes] = self.table
        return packed

    def recompute_avoiding(self, blocked: Iterable[Tuple[int, int]]) -> None:
        """Regenerate the table so no route crosses a blocked link.

        ``blocked`` holds directed links as ``(router, out_port)`` pairs
        — the quarantine set of the fault-recovery machinery.  Routes
        are recomputed as shortest paths (BFS) over the surviving links;
        among equal-length options the original dimension-order port is
        preferred, then the lowest port index, so the result stays
        deterministic and as close to XY as the quarantine allows.

        The rows are mutated *in place*: routers hold bound references
        to their row, so the new routes take effect immediately for
        every HEAD flit routed after the call.

        Note: routes that leave dimension order void the dateline VC
        scheme's deadlock-freedom proof — quarantine trades the proof
        for availability, which is the documented degraded mode.
        """
        blocked_set: Set[Tuple[int, int]] = {(r, int(p)) for r, p in blocked}
        net = self.net
        topo = self._topo
        n = net.n_routers
        n_ports = net.router.n_ports
        for dest in range(n):
            # BFS from the destination over *reversed* surviving links.
            dist = [-1] * n
            dist[dest] = 0
            frontier = deque([dest])
            while frontier:
                v = frontier.popleft()
                for q in range(1, n_ports):
                    u = topo.neighbor(v, Port(q))
                    if u is None:
                        continue
                    p_at_u = int(Port(q).opposite)  # port at u leading to v
                    if (u, p_at_u) in blocked_set:
                        continue
                    if dist[u] == -1:
                        dist[u] = dist[v] + 1
                        frontier.append(u)
            for r in range(n):
                if r == dest:
                    self.table[r][dest] = Port.LOCAL
                    continue
                if dist[r] == -1:
                    raise UnroutableError(
                        f"router {r} cannot reach {dest}: quarantined links "
                        f"{sorted(blocked_set)} disconnect the fabric"
                    )
                preferred = [int(self.table[r][dest])] + list(range(1, n_ports))
                for p in preferred:
                    if p == int(Port.LOCAL) or (r, p) in blocked_set:
                        continue
                    nb = topo.neighbor(r, Port(p))
                    if nb is not None and dist[nb] == dist[r] - 1:
                        self.table[r][dest] = Port(p)
                        break
                else:  # pragma: no cover - dist bookkeeping guarantees a port
                    raise UnroutableError(
                        f"no surviving port at router {r} towards {dest}"
                    )

    def links_on_path(self, src: int, dest: int) -> Sequence[tuple]:
        """Directed links ``(router, out_port)`` traversed from src to dest."""
        out = []
        current = src
        topo = self._topo
        while current != dest:
            port = self.table[current][dest]
            out.append((current, port))
            current = topo.neighbor(current, port)
        return tuple(out)
