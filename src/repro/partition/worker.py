"""One partition tile as an ownership-masked sequential simulator.

:class:`PartitionWorkerNetwork` is a :class:`SequentialNetwork` over the
*full* network configuration (so wire ids, routing tables and unit
indices are identical to the monolithic simulator's) restricted to the
routers of one tile:

* at the start of every system cycle the unstable mask is intersected
  with the tile's ownership mask, so only owned units are ever
  evaluated.  Foreign units never read their wires, so their HBR bits
  stay 0 and an owned unit's writes never destabilise them locally —
  cross-tile destabilisation happens exclusively through the boundary
  exchange (:meth:`apply_imports`), exactly like the HBR protocol
  between FPGAs;
* the system cycle is decomposed into the phases the partition
  coordinator drives: :meth:`begin_step` / :meth:`converge_local` /
  :meth:`export_values` / :meth:`apply_imports` / :meth:`finish_step`.
  Begin, converge and finish *are* the three phases of the monolithic
  :meth:`SequentialNetwork.step` (``_begin_cycle`` / ``_converge`` /
  ``_finish_cycle``), called under their public names — the
  decomposition adds no behaviour of its own;
* foreign state is frozen at its reset value and never committed,
  recorded or counted; snapshots, logs and delta metrics cover owned
  units only.

The convergence loop accumulates deltas *across* boundary rounds within
one system cycle, so the livelock watchdog bounds the whole partitioned
cycle (a flapping boundary wire re-destabilises its reader every round
and trips the same :class:`~repro.faults.errors.LivelockError` diagnosis
as the monolithic run).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.routing import RoutingTable
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.sequential import SequentialNetwork

__all__ = ["PartitionWorkerNetwork"]


class PartitionWorkerNetwork(SequentialNetwork):
    """Sequential simulator of one tile of a partitioned network."""

    def __init__(
        self,
        cfg: NetworkConfig,
        tile: Iterable[int],
        routing: Optional[RoutingTable] = None,
        watchdog_factor: Optional[int] = None,
        scheduler: str = "worklist",
    ) -> None:
        super().__init__(
            cfg,
            routing,
            packed=False,
            watchdog_factor=watchdog_factor,
            scheduler=scheduler,
            optimize=True,
        )
        self.tile: Tuple[int, ...] = tuple(sorted(tile))
        # Foreign entries of ``states`` / ``iface_states`` stay frozen at
        # reset: finalize and commit sweep the owned units only.
        self._units = self.tile
        self.owned_mask = sum(1 << r for r in self.tile)
        # Delta accounting is per-tile: the floor is one evaluation per
        # *owned* unit per cycle.
        self.metrics = DeltaMetrics(n_units=len(self.tile))
        # Boundary wires, by the manifest of the tile subgraph.  The
        # orders are deterministic (sorted by wire name), and the switch
        # computes the identical orders from the same config + tiles —
        # export/import value lists line up by construction.
        _sub, manifest = self.topology.extract_partition(self.tile)
        self.boundary = manifest
        self.export_names: List[str] = sorted(manifest.export_wire_names())
        self.import_names: List[str] = sorted(manifest.import_wire_names())
        wire_id = self.links.wire_id
        self.export_wids: List[int] = [wire_id(n) for n in self.export_names]
        self.import_wids: List[int] = [wire_id(n) for n in self.import_names]
        # Values as of this tile's last publication, for the changed-
        # export optimisation (None forces one full publish at cycle 0).
        self._last_published: Optional[List[int]] = None

    # -- the decomposed system cycle ----------------------------------------
    def begin_step(self) -> None:
        """Open a system cycle and restrict the worklist to owned units.
        (Pre-step hooks run at the coordinator, which owns the cycle;
        they are not replayed here.)"""
        self._begin_cycle()
        self.links.unstable_mask &= self.owned_mask

    def converge_local(self) -> None:
        """Evaluate owned units until the tile is locally quiescent.  The
        delta count (``watchdog.deltas``) and its livelock bound run on
        across the rounds of one system cycle."""
        self._converge()

    def export_values(self) -> List[int]:
        """Current values of every wire this tile drives across the
        boundary, in ``export_names`` order.

        Always the full list — the receiving side's
        :meth:`~repro.seqsim.linkmem.LinkMemory.write_wire` deduplicates
        unchanged values, and re-sending restores a boundary value a
        transient fault corrupted on the far copy (the SEU-equivalence
        cases in ``tests/test_partition.py`` depend on it).
        """
        values = self.links.values
        return [values[w] for w in self.export_wids]

    def export_values_changed(self) -> Tuple[List[int], bool]:
        """:meth:`export_values` plus a dirty flag: did any exported
        value change since this tile's last publication?

        A clean flag lets the coordinator skip the relay round entirely
        — the peers already hold these exact values.  Any resident link
        fault (flaky/stuck/quarantined wires) disables the optimisation:
        a flapping boundary wire destabilises its reader on every write
        *without* changing value, and the cross-tile livelock diagnosis
        depends on those writes happening (always-export semantics).
        """
        values = self.export_values()
        changed = values != self._last_published or not self.links.fault_free
        self._last_published = values
        return values, changed

    def apply_imports(self, values: Sequence[int]) -> bool:
        """Drive the foreign-owned boundary wires with relayed values.

        Returns True when an owned reader was destabilised — i.e. this
        tile must run another convergence round.
        """
        links = self.links
        write = links.write_wire
        for w, v in zip(self.import_wids, values):
            write(w, v)
        return bool(links.unstable_mask)

    def finish_step(self) -> None:
        """Close the system cycle: compute next states once per owned
        unit, swap banks, record events, count deltas."""
        self._finish_cycle()

    def step(self) -> None:
        """Single-tile step (no boundary exchange): owned units converge
        against the frozen last-known boundary values.  The partition
        coordinator never calls this; it exists so a lone worker is still
        a well-formed network for unit tests."""
        for hook in self.pre_step_hooks:
            hook(self)
        self.begin_step()
        self.converge_local()
        self.finish_step()

    # -- owned-only variants of whole-network accessors ----------------------
    def total_buffered(self) -> int:
        return sum(self.states[r].total_buffered() for r in self.tile)

    def drained(self) -> bool:
        return self.total_buffered() == 0 and all(
            not any(self.iface_states[r].inj_valid) for r in self.tile
        )

    def owned_snapshot(self) -> List[Tuple[int, tuple, tuple]]:
        """Bit-exact state of every owned unit, for cross-tile assembly."""
        return [
            (
                r,
                self.states[r].state_tuple(),
                self.iface_states[r].state_tuple(),
            )
            for r in self.tile
        ]
