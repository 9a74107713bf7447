"""Partitioned engine: one NoC sharded across tile workers.

:class:`PartitionedEngine` presents the standard engine protocol
(offer/step/run/snapshot/drained) over K tile workers plus a boundary
switch.  Three execution strategies:

``transport="local", sync="lockstep"``
    All workers share one link memory and the coordinator runs the
    monolithic pick loop over its own scheduler and watchdog,
    dispatching each pick to the owning worker.  Because a boundary write lands directly in the shared link
    memory — destabilising its cross-tile reader through the ordinary
    HBR rule — this *is* the monolithic algorithm, merely with ownership
    labels: snapshots, logs **and delta counts** are bit-identical to
    :class:`~repro.seqsim.sequential.SequentialNetwork`, faults and
    quarantine included.  It is the correctness reference the
    equivalence suite locksteps against, not a parallel execution.

``transport="local", sync="rounds"``
    Each worker owns a private link memory; per system cycle the tiles
    converge locally, exchange boundary wire values through the switch,
    and repeat until no exchange destabilises anyone (the partition-aware
    delta-convergence protocol: boundary HBR state crosses tiles only
    via these rounds).  Because the combinational signal graph is
    acyclic, the converged wire values are order-independent — committed
    state, snapshots and injection/ejection logs stay bit-identical to
    the monolithic run; the *delta counts* include re-evaluations the
    exchange triggers and are reported as boundary overhead.  This mode
    runs in-process (deterministic, debuggable) and is the semantic
    model of the process transport.

``transport="process"`` (sync is always ``"rounds"``)
    The same rounds protocol with each tile in its own OS process
    (:class:`~repro.partition.pool.ProcessWorkerPool`) — the actual
    parallel speedup path.  Offers and fault injections are replayed
    into the owning worker at cycle open through an exactly-predicting
    injection-register mirror, so traffic drivers in the coordinator see
    monolithic semantics.

``link_latency=L >= 1`` switches the rounds protocol to the
FireSim-style decoupled discipline: one convergence round per cycle,
boundary values delayed L cycles — fast, but simulating a fabric with
registered inter-tile channels (not bit-identical to L=0; see
DESIGN.md §13).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.noc.topology import Topology
from repro.partition.switch import BoundarySwitch
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
        transport: str = "local",
        sync: Optional[str] = None,
        link_latency: int = 0,
        scheduler: str = "worklist",
        watchdog_factor: Optional[int] = None,
    ) -> None:
        if transport not in ("local", "process"):
            raise ValueError(
                f"unknown transport {transport!r}; choose local or process"
            )
        if partition_map is None:
            partition_map = grid_partition(cfg, partitions)
        elif partition_map.cfg is not cfg and partition_map.cfg != cfg:
            raise ValueError("partition map built for a different network")
        if sync is None:
            sync = (
                "lockstep"
                if transport == "local" and link_latency == 0
                else "rounds"
            )
        if sync not in ("lockstep", "rounds"):
            raise ValueError(
                f"unknown sync {sync!r}; choose lockstep or rounds"
            )
        if sync == "lockstep" and transport != "local":
            raise ValueError("lockstep sync requires the local transport")
        if sync == "lockstep" and link_latency:
            raise ValueError(
                "lockstep sync is the exact intra-cycle protocol; "
                "link_latency needs sync='rounds'"
            )
        self.cfg = cfg
        self.pmap = partition_map
        self.transport = transport
        self.sync = sync
        self.link_latency = int(link_latency)
        self._owner: List[int] = partition_map.owner()
        self.topology = Topology(cfg)
        self.n_boundary_links = len(partition_map.boundary_links(self.topology))

        self.cycle = 0
        self.injections: List[InjectionRecord] = []
        self.ejections: List[EjectionRecord] = []
        self.pre_step_hooks: List = []
        self.quarantined_links: set = set()
        self.metrics = DeltaMetrics(n_units=cfg.n_routers)
        #: boundary exchange rounds per system cycle.
        self.boundary_rounds: List[int] = []
        #: wall-clock totals: whole steps vs the boundary-sync share
        #: (exchange + relay + waiting on workers' round replies).
        self.step_seconds = 0.0
        self.sync_seconds = 0.0

        k = partition_map.n_partitions
        self._seen_inj = [0] * k
        self._seen_ej = [0] * k

        if transport == "local":
            self.workers = [
                PartitionWorkerNetwork(
                    cfg,
                    tile,
                    scheduler=scheduler,
                    watchdog_factor=watchdog_factor,
                )
                for tile in partition_map.tiles
            ]
            self._owner_net = [
                self.workers[self._owner[r]] for r in range(cfg.n_routers)
            ]
            #: the networks that own a link memory (lockstep shares one).
            self._link_nets = self.workers
            if sync == "lockstep":
                for w in self.workers[1:]:
                    w.links = self.workers[0].links
                self._link_nets = self.workers[:1]
                self.scheduler = make_scheduler(scheduler, cfg.n_routers)
                self.watchdog = ConvergenceWatchdog(
                    cfg.n_routers,
                    watchdog_factor
                    if watchdog_factor is not None
                    else SequentialNetwork.MAX_DELTA_FACTOR,
                )
                self.switch = None
            else:
                self.switch = BoundarySwitch(
                    cfg, partition_map, link_latency, self.topology
                )
            self.pool = None
        else:
            from repro.partition.pool import ProcessWorkerPool

            self.workers = None
            self.pool = ProcessWorkerPool(
                cfg,
                partition_map,
                scheduler=scheduler,
                watchdog_factor=watchdog_factor,
            )
            self.switch = BoundarySwitch(
                cfg, partition_map, link_latency, self.topology
            )
            # Exact mirror of every injection head register: an offer is
            # accepted iff the register is free, and it frees exactly
            # when the cycle's events report the flit sent.
            self._mirror_inj = [
                [0] * cfg.router.n_vcs for _ in range(cfg.n_routers)
            ]
            self._buffered = 0
            #: queued (offer/fault) ops per tile, replayed at cycle open.
            self._pending_ops: List[List[Tuple]] = [[] for _ in range(k)]

    # -- description ----------------------------------------------------------
    def layout_line(self) -> str:
        """One-line layout banner (the CLI prints it like the kernel
        backend line)."""
        latency = (
            f", link latency {self.link_latency}" if self.link_latency else ""
        )
        return (
            f"partitions: {self.pmap.describe()}, "
            f"{self.n_boundary_links} boundary links, "
            f"switch: {self.transport}/{self.sync}{latency}"
        )

    # -- traffic-side API ------------------------------------------------------
    def offer(self, router: int, vc: int, flit) -> bool:
        if self.workers is not None:
            return self._owner_net[router].offer(router, vc, flit)
        word = (
            flit
            if isinstance(flit, int)
            else flit.encode(self.cfg.router.data_width)
        )
        mirror = self._mirror_inj[router]
        accepted = not mirror[vc]
        if accepted:
            mirror[vc] = 1
        # Refused offers are replayed too: they set the interface's
        # sticky `stalled` flag, which is architectural state.
        self._pending_ops[self._owner[router]].append(
            ("offer", router, vc, word)
        )
        return accepted

    def injection_pending(self, router: int, vc: int) -> bool:
        if self.workers is not None:
            return self._owner_net[router].injection_pending(router, vc)
        return bool(self._mirror_inj[router][vc])

    # -- fault API -------------------------------------------------------------
    # A process tile replays the op at cycle open; in-process, wire
    # faults go to each network that owns a link memory and a quarantine
    # to every worker (each keeps its own routing table).
    def inject_link_fault(self, wire, bit: int) -> Optional[int]:
        if self.workers is None:
            for ops in self._pending_ops:
                ops.append(("inject_link", wire, bit))
            return None
        for w in self._link_nets:
            value = w.inject_link_fault(wire, bit)
        return value

    def install_flap_fault(self, router: int, port: int) -> Tuple[str, str]:
        names = self.topology.link_wires(router, port)
        if self.workers is None:
            for ops in self._pending_ops:
                ops.append(("flap", router, port))
        else:
            for w in self._link_nets:
                w.install_flap_fault(router, port)
        return names

    def quarantine_link(self, router: int, port: int) -> None:
        self.quarantined_links.add((router, int(port)))
        if self.workers is None:
            for ops in self._pending_ops:
                ops.append(("quarantine", router, port))
        else:
            for w in self.workers:
                w.quarantine_link(router, port)

    def link_wire_names(self) -> List[str]:
        return [wire.name for wire in self.topology.wires()]

    def quarantine_wires(self, names: Sequence[str]) -> List[Tuple[int, int]]:
        """Quarantine the physical links behind the given wires (the
        repair action of a livelock diagnosis), transport-agnostic."""
        links = self.topology.links_behind(names)
        for router, port in links:
            self.quarantine_link(router, port)
        return links

    # -- the system cycle ------------------------------------------------------
    def step(self) -> None:
        t0 = time.perf_counter()
        for hook in self.pre_step_hooks:
            hook(self)
        if self.workers is None:
            self._step_process()
        elif self.sync == "lockstep":
            self._step_lockstep()
        else:
            self._step_rounds_local()
        self.cycle += 1
        self.step_seconds += time.perf_counter() - t0

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def _step_lockstep(self) -> None:
        workers = self.workers
        links = workers[0].links
        # One shared link memory: open the cycle without `begin_step`'s
        # ownership mask, so the worklist stays whole-fabric.
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
            w.finish_step()
        self.metrics.record_cycle(watchdog.deltas)
        self.boundary_rounds.append(1)
        self._merge_local_records()

    def _step_rounds_local(self) -> None:
        workers = self.workers
        switch = self.switch
        for w in workers:
            w.begin_step()
        if self.link_latency:
            ts = time.perf_counter()
            imports = switch.delayed_imports()
            for w, values in zip(workers, imports):
                w.apply_imports(values)
            self.sync_seconds += time.perf_counter() - ts
            for w in workers:
                w.converge_local()
            ts = time.perf_counter()
            switch.push_cycle([w.export_values() for w in workers])
            self.sync_seconds += time.perf_counter() - ts
            rounds = 1
        else:
            rounds = 0
            while True:
                for w in workers:
                    w.converge_local()
                rounds += 1
                ts = time.perf_counter()
                results = [w.export_values_changed() for w in workers]
                if not any(changed for _, changed in results):
                    # No tile published a new boundary value since its
                    # last export: every peer already holds these exact
                    # words, so the relay round is a no-op — skip it.
                    self.sync_seconds += time.perf_counter() - ts
                    break
                imports = switch.relay([values for values, _ in results])
                destabilised = False
                for w, values in zip(workers, imports):
                    if w.apply_imports(values):
                        destabilised = True
                self.sync_seconds += time.perf_counter() - ts
                if not destabilised:
                    break
        total = sum(w.watchdog.deltas for w in workers)
        for w in workers:
            w.finish_step()
        self.metrics.record_cycle(total)
        self.boundary_rounds.append(rounds)
        self._merge_local_records()

    def _step_process(self) -> None:
        pool = self.pool
        switch = self.switch
        ops = self._pending_ops
        self._pending_ops = [[] for _ in range(self.pmap.n_partitions)]
        if self.link_latency:
            ts = time.perf_counter()
            imports = switch.delayed_imports()
            self.sync_seconds += time.perf_counter() - ts
            deltas, exports, _changed = pool.begin(ops, imports)
            ts = time.perf_counter()
            switch.push_cycle(exports)
            self.sync_seconds += time.perf_counter() - ts
            rounds = 1
        else:
            deltas, exports, changed = pool.begin(ops)
            rounds = 1
            # A quiet boundary (no tile's exports changed) ends the
            # cycle after begin+commit: two pipe round-trips total.
            while changed:
                rounds += 1
                ts = time.perf_counter()
                destabilised, deltas, exports, changed = pool.exchange(
                    switch.relay(exports)
                )
                self.sync_seconds += time.perf_counter() - ts
                if not destabilised:
                    break
        replies = pool.commit()
        buffered = 0
        total_deltas = 0
        inj_all: List[Tuple] = []
        ej_all: List[Tuple] = []
        for inj, ej, tile_buffered, tile_deltas in replies:
            inj_all.extend(inj)
            ej_all.extend(ej)
            buffered += tile_buffered
            total_deltas += tile_deltas
        inj_all.sort(key=lambda rec: rec[1])
        ej_all.sort(key=lambda rec: rec[1])
        for cycle, router, vc, word, delay in inj_all:
            self.injections.append(
                InjectionRecord(cycle, router, vc, word, delay)
            )
            self._mirror_inj[router][vc] = 0
        for cycle, router, vc, word in ej_all:
            self.ejections.append(EjectionRecord(cycle, router, vc, word))
        self._buffered = buffered
        self.metrics.record_cycle(total_deltas)
        self.boundary_rounds.append(rounds)

    def _merge_local_records(self) -> None:
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
        if self.workers is not None:
            states = []
            ifaces = []
            for r in range(self.cfg.n_routers):
                w = self._owner_net[r]
                states.append(w.states[r].state_tuple())
                ifaces.append(w.iface_states[r].state_tuple())
            return (tuple(states), tuple(ifaces))
        entries = self.pool.snapshot()
        return (
            tuple(entry[1] for entry in entries),
            tuple(entry[2] for entry in entries),
        )

    def total_buffered(self) -> int:
        if self.workers is not None:
            return sum(w.total_buffered() for w in self.workers)
        return self._buffered

    def drained(self) -> bool:
        if self.workers is not None:
            return all(w.drained() for w in self.workers)
        return self._buffered == 0 and not any(
            any(row) for row in self._mirror_inj
        )

    def boundary_sync_fraction(self) -> float:
        """Share of step wall-clock spent in boundary synchronisation."""
        if self.step_seconds <= 0.0:
            return 0.0
        return min(1.0, self.sync_seconds / self.step_seconds)

    def mean_boundary_rounds(self) -> float:
        if not self.boundary_rounds:
            return 0.0
        return sum(self.boundary_rounds) / len(self.boundary_rounds)

    # -- teardown --------------------------------------------------------------
    def close(self) -> None:
        """Stop the tile processes, if any (idempotent; a forgotten
        engine's pool also tears itself down when collected)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "PartitionedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
