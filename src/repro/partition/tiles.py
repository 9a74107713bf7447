"""Partition maps: splitting one NoC into K edge-disjoint tiles.

The multi-FPGA pattern (section 6 of the paper) shards one target
network across devices along *link* boundaries: every router belongs to
exactly one tile and every boundary channel is cut exactly once.
:class:`PartitionMap` is the explicit API — any assignment of routers
to tiles that covers the network exactly once — and
:func:`grid_partition` is the default grid-block partitioner that cuts
a ``width x height`` fabric into a ``kx x ky`` grid of rectangular
tiles, minimising the number of cut channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.topology import Topology

__all__ = [
    "PartitionMap",
    "grid_partition",
    "valid_partition_counts",
]


@dataclass(frozen=True)
class PartitionMap:
    """An assignment of every router to exactly one tile.

    ``tiles`` holds sorted router-index tuples; validation enforces the
    cover-exactly-once invariant (the hypothesis property test in
    ``tests/test_partition.py`` re-checks it on random maps).
    """

    cfg: NetworkConfig
    tiles: Tuple[Tuple[int, ...], ...]
    #: human-readable layout note, e.g. ``"2x2 blocks of 8x8"``;
    #: ``"custom"`` for hand-built maps.
    layout: str = "custom"

    def __post_init__(self) -> None:
        if len(self.tiles) < 1:
            raise ValueError("a partition map needs at least one tile")
        seen: dict = {}
        for index, tile in enumerate(self.tiles):
            if not tile:
                raise ValueError(f"tile {index} is empty")
            if tuple(tile) != tuple(sorted(tile)):
                raise ValueError(f"tile {index} is not sorted")
            for r in tile:
                if not 0 <= r < self.cfg.n_routers:
                    raise ValueError(
                        f"tile {index}: router {r} out of range for a "
                        f"{self.cfg.width}x{self.cfg.height} network"
                    )
                if r in seen:
                    raise ValueError(
                        f"router {r} assigned to both tile {seen[r]} "
                        f"and tile {index}"
                    )
                seen[r] = index
        missing = self.cfg.n_routers - len(seen)
        if missing:
            raise ValueError(
                f"partition map covers {len(seen)} of "
                f"{self.cfg.n_routers} routers ({missing} unassigned)"
            )

    @property
    def n_partitions(self) -> int:
        return len(self.tiles)

    def owner(self) -> List[int]:
        """``router index -> tile index`` lookup table."""
        out = [0] * self.cfg.n_routers
        for index, tile in enumerate(self.tiles):
            for r in tile:
                out[r] = index
        return out

    def boundary_links(self, topology: Topology = None):
        """Directed inter-tile links ``(router, port, neighbor)``.

        Each physical boundary channel contributes two entries (one per
        direction), torus wrap-around links included, in
        :meth:`Topology.links` order.
        """
        topo = topology if topology is not None else Topology(self.cfg)
        owner = self.owner()
        return [
            (router, port, neighbor)
            for router, port, neighbor, _ in topo.links()
            if owner[router] != owner[neighbor]
        ]

    def describe(self) -> str:
        """One-line layout summary for the CLI banner."""
        sizes = sorted({len(t) for t in self.tiles})
        size_s = (
            f"{sizes[0]}" if len(sizes) == 1 else f"{sizes[0]}-{sizes[-1]}"
        )
        return (
            f"{self.n_partitions} tiles ({self.layout}, "
            f"{size_s} routers each)"
        )


def _divisor_pairs(k: int) -> List[Tuple[int, int]]:
    return [(kx, k // kx) for kx in range(1, k + 1) if k % kx == 0]


def valid_partition_counts(cfg: NetworkConfig) -> List[int]:
    """Every K >= 2 for which the grid-block partitioner can tile the
    fabric: some ``kx x ky = K`` with ``kx | width`` and ``ky | height``."""
    counts = set()
    for kx in range(1, cfg.width + 1):
        if cfg.width % kx:
            continue
        for ky in range(1, cfg.height + 1):
            if cfg.height % ky:
                continue
            if kx * ky >= 2:
                counts.add(kx * ky)
    return sorted(counts)


def grid_partition(cfg: NetworkConfig, partitions: int) -> PartitionMap:
    """Cut the fabric into ``partitions`` rectangular grid blocks.

    Chooses the ``kx x ky`` factorisation that divides both dimensions
    and cuts the fewest physical channels (a torus cut of ``kx > 1``
    vertical seams severs ``kx * height`` channels because the wrap-around
    links count too; a mesh severs one fewer seam than blocks).  Raises
    ``ValueError`` naming the valid partition counts when no
    factorisation fits.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1 (got {partitions})")
    torus = cfg.topology == "torus"
    options = []
    for kx, ky in _divisor_pairs(partitions):
        if cfg.width % kx or cfg.height % ky:
            continue
        v_seams = (kx if kx > 1 else 0) if torus else kx - 1
        h_seams = (ky if ky > 1 else 0) if torus else ky - 1
        cut = v_seams * cfg.height + h_seams * cfg.width
        options.append((cut, kx, ky))
    if not options:
        valid = valid_partition_counts(cfg)
        raise ValueError(
            f"cannot cut a {cfg.width}x{cfg.height} {cfg.topology} into "
            f"{partitions} grid blocks; valid partition counts: "
            f"{', '.join(map(str, valid))}"
        )
    _cut, kx, ky = min(options)
    tile_w, tile_h = cfg.width // kx, cfg.height // ky
    tiles: List[Tuple[int, ...]] = []
    for by in range(ky):
        for bx in range(kx):
            tiles.append(
                tuple(
                    sorted(
                        cfg.index(x, y)
                        for y in range(by * tile_h, (by + 1) * tile_h)
                        for x in range(bx * tile_w, (bx + 1) * tile_w)
                    )
                )
            )
    layout = f"{kx}x{ky} blocks of {tile_w}x{tile_h}"
    return PartitionMap(cfg=cfg, tiles=tuple(tiles), layout=layout)
