"""Partitioned large-network simulation: the lockstep multi-FPGA model.

Splits one NoC into K tiles the way section 6 of the paper splits a
fabric over several FPGAs.  Every tile is an ownership-labelled
sequential simulator; all tiles share one link memory and one
coordinator pick loop, so a partitioned run is bit-identical to the
monolithic one — snapshots, logs and per-cycle delta counts.

Public surface:

* :func:`~repro.partition.tiles.grid_partition` /
  :class:`~repro.partition.tiles.PartitionMap` — splitting the fabric;
* :class:`~repro.partition.engine.PartitionedEngine` — the engine
  (registered as ``partitioned`` in :mod:`repro.engines`);
* :class:`~repro.partition.worker.PartitionWorkerNetwork` — one tile.
"""

from repro.partition.engine import PartitionedEngine, PartitionedEngineFactory
from repro.partition.tiles import (
    PartitionMap,
    grid_partition,
    valid_partition_counts,
)
from repro.partition.worker import PartitionWorkerNetwork

__all__ = [
    "PartitionMap",
    "PartitionWorkerNetwork",
    "PartitionedEngine",
    "PartitionedEngineFactory",
    "grid_partition",
    "valid_partition_counts",
]
