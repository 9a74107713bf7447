"""One partition tile: a sequential simulator that owns some routers.

:class:`PartitionWorkerNetwork` is a :class:`SequentialNetwork` over the
*full* network configuration (so wire ids, routing tables and unit
indices are identical to the monolithic simulator's) that commits,
records and counts the routers of one tile only.  The lockstep
coordinator (:class:`~repro.partition.engine.PartitionedEngine`) gives
every tile the same link memory, opens each cycle with
``_begin_cycle``, dispatches each pick to the tile that owns the unit
and closes the cycle with ``_finish_cycle`` — the three phases of the
monolithic :meth:`SequentialNetwork.step`, so a tile adds no behaviour
of its own.  Foreign entries of ``states`` / ``iface_states`` stay
frozen at reset.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.noc.config import NetworkConfig
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.sequential import SequentialNetwork

__all__ = ["PartitionWorkerNetwork"]


class PartitionWorkerNetwork(SequentialNetwork):
    """Sequential simulator of one tile of a partitioned network."""

    def __init__(
        self,
        cfg: NetworkConfig,
        tile: Iterable[int],
        watchdog_factor: Optional[int] = None,
    ) -> None:
        super().__init__(cfg, packed=False, watchdog_factor=watchdog_factor)
        self.tile: Tuple[int, ...] = tuple(sorted(tile))
        # Finalize and commit sweep the owned units only.
        self._units = self.tile
        # Delta accounting is per-tile: the floor is one evaluation per
        # *owned* unit per cycle.
        self.metrics = DeltaMetrics(n_units=len(self.tile))

    def total_buffered(self) -> int:
        return sum(self.states[r].total_buffered() for r in self.tile)

    def drained(self) -> bool:
        return self.total_buffered() == 0 and all(
            not any(self.iface_states[r].inj_valid) for r in self.tile
        )
