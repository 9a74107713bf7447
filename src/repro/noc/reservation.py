"""Guaranteed-throughput virtual-channel reservation.

Section 2.1: "the router is able to handle guaranteed throughput (GT)
traffic, if one single data stream is assigned per VC".  Assigning
streams to VCs so that no two GT streams share a VC on any physical link
is a (path, VC)-colouring problem solved at configuration time by the
run-time software of the 4S project (paper reference [10]).

This module implements that configuration step with a deterministic
greedy colouring: streams are processed in submission order and take the
lowest GT-capable VC index that is free on every link of their route.
Because our router forwards GT packets on the *same* VC index at every
hop, a single index must work end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.config import NetworkConfig, Port
from repro.noc.routing import RoutingTable


class ReservationError(RuntimeError):
    """No VC assignment satisfies the GT streams' link constraints."""


@dataclass(frozen=True)
class GtStream:
    """A reserved guaranteed-throughput connection."""

    src: int
    dest: int
    vc: int
    links: Tuple[Tuple[int, Port], ...]  # (router, out_port) hops


class GtReservationTable:
    """Tracks which GT VCs are in use on every directed link."""

    def __init__(self, net: NetworkConfig, routing: Optional[RoutingTable] = None) -> None:
        self.net = net
        self.routing = routing if routing is not None else RoutingTable(net)
        self.gt_vcs: Sequence[int] = sorted(net.router.gt_vcs)
        if not self.gt_vcs:
            raise ReservationError("configuration has no GT-capable VCs")
        self._used: Dict[Tuple[int, Port], Set[int]] = {}
        self.streams: List[GtStream] = []

    def reserve(self, src: int, dest: int) -> GtStream:
        """Reserve a VC for a stream src -> dest; raises when impossible."""
        if src == dest:
            raise ReservationError("a stream needs distinct endpoints")
        links = tuple(self.routing.links_on_path(src, dest))
        # The local ejection link at the destination is also a resource:
        # two GT streams ending at the same node must not share its VC.
        links = links + ((dest, Port.LOCAL),)
        for vc in self.gt_vcs:
            if all(vc not in self._used.get(link, ()) for link in links):
                for link in links:
                    self._used.setdefault(link, set()).add(vc)
                stream = GtStream(src, dest, vc, links)
                self.streams.append(stream)
                return stream
        raise ReservationError(
            f"no free GT VC on route {src}->{dest}; "
            f"links carry {[sorted(self._used.get(l, ())) for l in links]}"
        )

    def max_link_sharing(self) -> int:
        """Largest number of GT streams sharing any physical link."""
        return max((len(v) for v in self._used.values()), default=0)
