"""Process pool for partition workers.

One OS process per tile, each a farm
:class:`~repro.farm.process.WorkerProcess` — spawning, the pipe command
channel, the exit -> SIGTERM -> grace -> SIGKILL teardown and the
exit-time sweep are that primitive's.  The boundary data plane
optionally rides shared memory: one int64 slot per boundary wire
per bank in a ``multiprocessing.shared_memory`` segment that workers
write/read directly, with pipe messages as the control plane — where
the platform forbids shared memory (:class:`ShmUnavailableError`) the
values fall back to riding the pipes, a pure performance change.

The plane is double-buffered: publication *p* of a cycle writes bank
``p % 2`` and an exchange round reads the previous publication's bank.
The coordinator only broadcasts round *k+1* after every round-*k* reply,
so a bank being read is never concurrently written — without the banks
a fast tile's round-*k* publish could overwrite values a slow peer was
still reading for round *k-1*, which perturbed convergence accounting
(delta counts raced by a few evaluations run to run even though the
fixed point, and hence every snapshot, stayed bit-identical).

Protocol per system cycle (driven by
:class:`~repro.partition.engine.PartitionedEngine`):

``begin(ops, imports?)`` -> replay offers/fault ops, open the cycle,
converge locally, publish exports; ``exchange()`` (repeated) -> apply
imports, re-converge if destabilised, publish exports; ``commit()`` ->
finalise and swap banks, return the cycle's injection/ejection events
and buffered-flit count.  Faults inside a worker (livelock, parity)
serialise across the pipe and re-raise in the coordinator with their
diagnosis intact.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.farm.process import SpawnError, WorkerProcess, shutdown
from repro.faults.errors import FaultDetectedError, LivelockError
from repro.noc.config import NetworkConfig
from repro.partition.tiles import PartitionMap
from repro.partition.worker import PartitionWorkerNetwork

__all__ = ["ProcessWorkerPool", "PROCESS_PREFIX", "ShmUnavailableError"]

#: process-name prefix of partition workers.
PROCESS_PREFIX = "repro-partition-"

#: reply deadline: generous — a worker converging a big tile is slow,
#: a dead worker is detected by process liveness well before this.
REPLY_TIMEOUT = 300.0


class ShmUnavailableError(RuntimeError):
    """Shared memory cannot be created on this platform."""


def _create_plane(slots: int):
    """The shared boundary segment: two int64 banks of ``slots`` wires."""
    try:
        from multiprocessing import shared_memory

        return shared_memory.SharedMemory(create=True, size=max(16 * slots, 16))
    except (ImportError, OSError, ValueError) as exc:
        raise ShmUnavailableError(f"cannot create the boundary plane: {exc}") from exc


def _apply_op(net: PartitionWorkerNetwork, op: Tuple) -> None:
    kind = op[0]
    if kind == "offer":
        _, router, vc, word = op
        net.offer(router, vc, word)
    elif kind == "quarantine":
        net.quarantine_link(op[1], op[2])
    elif kind == "inject_link":
        net.inject_link_fault(op[1], op[2])
    elif kind == "flap":
        net.install_flap_fault(op[1], op[2])
    else:  # pragma: no cover - protocol bug
        raise ValueError(f"unknown worker op {kind!r}")


def _serialise_error(exc: BaseException) -> Tuple:
    if isinstance(exc, LivelockError):
        return (
            "livelock",
            exc.cycle,
            exc.deltas,
            exc.limit,
            tuple(exc.unstable_units),
            tuple(exc.suspect_wires),
        )
    return ("fault", type(exc).__name__, str(exc))


def _raise_worker_error(tile: int, payload: Tuple) -> None:
    if payload[0] == "livelock":
        _, cycle, deltas, limit, unstable, suspects = payload
        raise LivelockError(
            cycle=cycle,
            deltas=deltas,
            limit=limit,
            unstable_units=unstable,
            suspect_wires=suspects,
        )
    _, name, message = payload
    raise FaultDetectedError(f"partition worker {tile}: {name}: {message}")


def worker_main(
    conn,
    cfg: NetworkConfig,
    tile: Sequence[int],
    scheduler: str,
    watchdog_factor: Optional[int],
    shm_name: Optional[str],
    export_slots: Sequence[int],
    import_slots: Sequence[int],
) -> None:
    """Command loop of one tile process."""
    net = PartitionWorkerNetwork(
        cfg, tile, scheduler=scheduler, watchdog_factor=watchdog_factor
    )
    plane = view = None
    n_slots = 0
    if shm_name is not None:
        from multiprocessing import shared_memory

        plane = shared_memory.SharedMemory(name=shm_name)
        view = memoryview(plane.buf).cast("q")
        n_slots = len(view) // 2

    # Publication counter within the current cycle: publication p lands
    # in bank p % 2, a read pulls the peer values of publication p - 1.
    pub = 0

    def publish_exports() -> Tuple[Optional[List[int]], bool]:
        nonlocal pub
        values, changed = net.export_values_changed()
        if view is None:
            return values, changed
        # Always write (even when unchanged): the alternate bank holds
        # two-publications-old values, so a skipped write would expose
        # stale data to the next round's readers.
        base = (pub % 2) * n_slots
        for slot, value in zip(export_slots, values):
            view[base + slot] = value
        pub += 1
        return None, changed

    def read_imports(payload: Optional[List[int]]) -> List[int]:
        if payload is not None:
            return payload
        base = ((pub - 1) % 2) * n_slots
        return [view[base + slot] for slot in import_slots]

    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "begin":
                    _, ops, imports = message
                    pub = 0
                    for op in ops:
                        _apply_op(net, op)
                    net.begin_step()
                    if imports is not False:
                        net.apply_imports(read_imports(imports))
                    net.converge_local()
                    exports, changed = publish_exports()
                    conn.send(("ok", net._cycle_deltas, exports, changed))
                elif command == "exchange":
                    destabilised = net.apply_imports(read_imports(message[1]))
                    if destabilised:
                        net.converge_local()
                    exports, changed = publish_exports()
                    conn.send(
                        (
                            "ok",
                            destabilised,
                            net._cycle_deltas,
                            exports,
                            changed,
                        )
                    )
                elif command == "commit":
                    seen_inj = len(net.injections)
                    seen_ej = len(net.ejections)
                    net.finish_step()
                    inj = [
                        (p.cycle, p.router, p.vc, p.flit_word, p.access_delay)
                        for p in net.injections[seen_inj:]
                    ]
                    ej = [
                        (p.cycle, p.router, p.vc, p.flit_word)
                        for p in net.ejections[seen_ej:]
                    ]
                    conn.send(
                        ("ok", inj, ej, net.total_buffered(), net._cycle_deltas)
                    )
                elif command == "snapshot":
                    conn.send(("ok", net.owned_snapshot()))
                elif command == "exit":
                    return
                else:  # pragma: no cover - protocol bug
                    raise ValueError(f"unknown command {command!r}")
            except FaultDetectedError as exc:
                conn.send(("err", _serialise_error(exc)))
                return  # a tripped worker is mid-cycle: unusable
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        if view is not None:
            view.release()
        if plane is not None:
            plane.close()


def _teardown(workers: List[WorkerProcess], plane) -> None:
    """Stop the tile processes, then unlink the plane."""
    shutdown(workers, stop=("exit",))
    if plane is not None:
        plane.close()
        try:
            plane.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ProcessWorkerPool:
    """Spawn, drive and tear down one process per tile."""

    def __init__(
        self,
        cfg: NetworkConfig,
        pmap: PartitionMap,
        scheduler: str = "worklist",
        watchdog_factor: Optional[int] = None,
        use_shm: bool = True,
    ) -> None:
        self.n_workers = pmap.n_partitions

        # One int64 slot per boundary wire per bank (double-buffered —
        # see the module docstring).  Slot order is the sorted global
        # boundary-wire-name list, recomputed identically here and
        # nowhere else — workers get their slot indices by value.
        from repro.partition.switch import BoundarySwitch

        switch = BoundarySwitch(cfg, pmap, 0)
        slot_of: Dict[str, int] = {
            name: index for index, name in enumerate(sorted(switch.values))
        }
        plane = None
        if use_shm:
            try:
                plane = _create_plane(len(slot_of))
            except ShmUnavailableError:
                pass  # degrade to the pipes
        self.shm_active = plane is not None
        shm_name = plane.name if plane is not None else None

        self._workers: List[WorkerProcess] = []
        # Runs on close(), on garbage collection and at interpreter
        # exit, whichever comes first — and exactly once.
        self._finalizer = weakref.finalize(self, _teardown, self._workers, plane)
        try:
            for index, tile in enumerate(pmap.tiles):
                export_slots = [slot_of[n] for n in switch.export_names[index]]
                import_slots = [slot_of[n] for n in switch.import_names[index]]
                self._workers.append(
                    WorkerProcess(
                        worker_main,
                        (
                            cfg,
                            tile,
                            scheduler,
                            watchdog_factor,
                            shm_name,
                            export_slots,
                            import_slots,
                        ),
                        name=f"{PROCESS_PREFIX}t{index}",
                    )
                )
        except SpawnError as exc:
            self.close()
            raise SpawnError(
                f'{exc} — transport="process" needs one worker process per '
                'tile; use transport="local" on this host'
            ) from None

    # -- plumbing ------------------------------------------------------------
    def _recv(self, tile: int):
        conn = self._workers[tile].conn
        if not conn.poll(REPLY_TIMEOUT):
            raise RuntimeError(
                f"partition worker {tile} unresponsive for "
                f"{REPLY_TIMEOUT:.0f}s"
            )
        try:
            reply = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"partition worker {tile} died mid-protocol "
                f"(exitcode {self._workers[tile].exitcode})"
            ) from None
        if reply[0] == "err":
            _raise_worker_error(tile, reply[1])
        return reply

    def _scatter(self, messages: Sequence) -> List:
        """Send ``messages[tile]`` to every tile, then gather the replies
        (all tiles work concurrently between the two loops)."""
        for worker, message in zip(self._workers, messages):
            worker.conn.send(message)
        return [self._recv(tile) for tile in range(self.n_workers)]

    def _broadcast(self, message) -> List:
        return self._scatter([message] * self.n_workers)

    def _imports_payload(self, imports: Sequence[Sequence[int]], tile: int):
        """Per-tile import values for the pipe, or None when they ride
        the shared-memory plane."""
        if self.shm_active:
            return None
        return list(imports[tile])

    # -- the cycle protocol ---------------------------------------------------
    def begin(
        self,
        ops: Sequence[Sequence[Tuple]],
        imports: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[List[int], List[Optional[List[int]]], bool]:
        """Open a cycle on every worker; returns (deltas, exports,
        any_changed) per tile.  ``imports`` (latency mode) is applied
        before convergence; ``any_changed`` is True when some tile's
        exports differ from its last publication (i.e. a boundary round
        is needed at all)."""
        replies = self._scatter(
            [
                (
                    "begin",
                    list(ops[tile]),
                    False if imports is None else self._imports_payload(imports, tile),
                )
                for tile in range(self.n_workers)
            ]
        )
        _, deltas, exports, changed = zip(*replies)
        return list(deltas), list(exports), any(changed)

    def exchange(
        self, imports: Sequence[Sequence[int]]
    ) -> Tuple[bool, List[int], List[Optional[List[int]]], bool]:
        """One boundary round; returns (any_destabilised, deltas,
        exports, any_changed)."""
        replies = self._scatter(
            [
                ("exchange", self._imports_payload(imports, tile))
                for tile in range(self.n_workers)
            ]
        )
        _, destabilised, deltas, exports, changed = zip(*replies)
        return any(destabilised), list(deltas), list(exports), any(changed)

    def commit(self) -> List[Tuple[List, List, int, int]]:
        """Close the cycle; returns (injections, ejections, buffered,
        deltas) per tile."""
        replies = self._broadcast(("commit",))
        return [tuple(reply[1:]) for reply in replies]

    def snapshot(self) -> List[Tuple[int, tuple, tuple]]:
        replies = self._broadcast(("snapshot",))
        merged: List[Tuple[int, tuple, tuple]] = []
        for reply in replies:
            merged.extend(reply[1])
        merged.sort(key=lambda entry: entry[0])
        return merged

    # -- teardown -------------------------------------------------------------
    def close(self) -> None:
        """Stop the tile processes and free the plane.  Idempotent."""
        self._finalizer()
