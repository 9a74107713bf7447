"""Partitioned engine: the lockstep multi-FPGA model.

:class:`PartitionedEngine` presents the standard engine protocol
(offer/step/run/snapshot/drained) over K tile workers, the section-6
split of one fabric over several FPGAs.  All tiles share one link
memory; the coordinator runs the monolithic pick loop over its own
scheduler and watchdog and dispatches each pick to the tile that owns
the unit.  A boundary write lands directly in the shared link memory
and destabilises its cross-tile reader through the ordinary HBR rule,
so this *is* the monolithic algorithm with ownership labels:
snapshots, logs **and per-cycle delta counts** are bit-identical to
:class:`~repro.seqsim.sequential.SequentialNetwork`, faults and
quarantine included.  It is a model of the split, not a parallel
execution (DESIGN.md §13 says why the parallel modes were removed).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.partition.tiles import PartitionMap, grid_partition
from repro.partition.worker import PartitionWorkerNetwork
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.scheduler import ConvergenceWatchdog, make_scheduler
from repro.seqsim.sequential import SequentialNetwork

__all__ = ["PartitionedEngine", "PartitionedEngineFactory"]


class PartitionedEngineFactory:
    """Picklable ``engine_cls`` adapter for the experiment sweeps.

    The fig1 / traffic-pattern sweeps take an ``engine_cls`` callable
    and may ship it to worker processes (``parallel_map``), so a lambda
    closing over ``partitions`` won't do.  ``PartitionedEngineFactory(4)``
    is a plain picklable object whose call builds
    ``PartitionedEngine(net, partitions=4, **kwargs)``.
    """

    def __init__(self, partitions: int = 2, **kwargs) -> None:
        self.partitions = partitions
        self.kwargs = dict(kwargs)

    def __call__(self, cfg: NetworkConfig) -> "PartitionedEngine":
        return PartitionedEngine(
            cfg, partitions=self.partitions, **self.kwargs
        )


class PartitionedEngine:
    """K-tile partitioned simulation behind the engine protocol."""

    name = "partitioned"

    def __init__(
        self,
        cfg: NetworkConfig,
        partitions: int = 2,
        partition_map: Optional[PartitionMap] = None,
        scheduler: str = "worklist",
        watchdog_factor: Optional[int] = None,
    ) -> None:
        if partition_map is None:
            partition_map = grid_partition(cfg, partitions)
        elif partition_map.cfg is not cfg and partition_map.cfg != cfg:
            raise ValueError("partition map built for a different network")
        self.cfg = cfg
        self.pmap = partition_map
        self.workers = [
            PartitionWorkerNetwork(cfg, tile, watchdog_factor=watchdog_factor)
            for tile in partition_map.tiles
        ]
        #: the one link memory every tile reads and writes.
        self.links = self.workers[0].links
        for w in self.workers[1:]:
            w.links = self.links
        owner = partition_map.owner()
        self._owner_net = [self.workers[owner[r]] for r in range(cfg.n_routers)]
        self.topology = self.workers[0].topology
        self.n_boundary_links = len(partition_map.boundary_links(self.topology))
        self.scheduler = make_scheduler(scheduler, cfg.n_routers)
        self.watchdog = ConvergenceWatchdog(
            cfg.n_routers,
            watchdog_factor
            if watchdog_factor is not None
            else SequentialNetwork.MAX_DELTA_FACTOR,
        )

        self.cycle = 0
        self.injections: List[InjectionRecord] = []
        self.ejections: List[EjectionRecord] = []
        self.pre_step_hooks: List = []
        self.quarantined_links: set = set()
        self.metrics = DeltaMetrics(n_units=cfg.n_routers)
        self._seen_inj = [0] * partition_map.n_partitions
        self._seen_ej = [0] * partition_map.n_partitions

    # -- description ----------------------------------------------------------
    def layout_line(self) -> str:
        """One-line layout banner (the CLI prints it like the kernel
        backend line)."""
        return (
            f"partitions: {self.pmap.describe()}, "
            f"{self.n_boundary_links} boundary links"
        )

    # -- traffic-side API ------------------------------------------------------
    def offer(self, router: int, vc: int, flit) -> bool:
        return self._owner_net[router].offer(router, vc, flit)

    def injection_pending(self, router: int, vc: int) -> bool:
        return self._owner_net[router].injection_pending(router, vc)

    # -- fault API -------------------------------------------------------------
    # Wire faults land in the shared link memory once; a quarantine goes
    # to every tile (each keeps its own routing table).
    def inject_link_fault(self, wire, bit: int) -> int:
        return self.workers[0].inject_link_fault(wire, bit)

    def install_flap_fault(self, router: int, port: int) -> Tuple[str, str]:
        return self.workers[0].install_flap_fault(router, port)

    def quarantine_link(self, router: int, port: int) -> None:
        self.quarantined_links.add((router, int(port)))
        for w in self.workers:
            w.quarantine_link(router, port)

    def link_wire_names(self) -> List[str]:
        return [wire.name for wire in self.topology.wires()]

    def quarantine_wires(self, names: Sequence[str]) -> List[Tuple[int, int]]:
        """Quarantine the physical links behind the given wires (the
        repair action of a livelock diagnosis)."""
        links = self.topology.links_behind(names)
        for router, port in links:
            self.quarantine_link(router, port)
        return links

    # -- the system cycle ------------------------------------------------------
    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        workers = self.workers
        links = self.links
        for w in workers:
            w._begin_cycle()
        scheduler = self.scheduler
        watchdog = self.watchdog
        watchdog.start_cycle(self.cycle)
        owner_net = self._owner_net
        while True:
            unit = scheduler.next_unit(links)
            if unit is None:
                break
            net = owner_net[unit]
            net._evaluate(unit)
            net.watchdog.tick(links)  # the tile's share, for its commit
            watchdog.tick(links)  # the whole-fabric bound
        for w in workers:
            w._finish_cycle()
        self.metrics.record_cycle(watchdog.deltas)
        self._merge_records()
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def _merge_records(self) -> None:
        new_inj: List[InjectionRecord] = []
        new_ej: List[EjectionRecord] = []
        for index, w in enumerate(self.workers):
            new_inj.extend(w.injections[self._seen_inj[index]:])
            new_ej.extend(w.ejections[self._seen_ej[index]:])
            self._seen_inj[index] = len(w.injections)
            self._seen_ej[index] = len(w.ejections)
        # Within one cycle the monolithic commit appends in router-index
        # order; tiles own disjoint routers, so sorting restores it.
        new_inj.sort(key=lambda rec: rec.router)
        new_ej.sort(key=lambda rec: rec.router)
        self.injections.extend(new_inj)
        self.ejections.extend(new_ej)

    # -- inspection ------------------------------------------------------------
    def snapshot(self) -> Tuple:
        states = []
        ifaces = []
        for r, w in enumerate(self._owner_net):
            states.append(w.states[r].state_tuple())
            ifaces.append(w.iface_states[r].state_tuple())
        return (tuple(states), tuple(ifaces))

    def total_buffered(self) -> int:
        return sum(w.total_buffered() for w in self.workers)

    def drained(self) -> bool:
        return all(w.drained() for w in self.workers)
