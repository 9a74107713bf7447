"""Process pool for partition workers.

One OS process per tile, each a farm
:class:`~repro.farm.process.WorkerProcess` — spawning, the pipe command
channel, the exit -> SIGTERM -> grace -> SIGKILL teardown and the
exit-time sweep are that primitive's.  Boundary wire values ride the
same pipes as the commands: each reply carries the tile's export list,
the coordinator relays it through the
:class:`~repro.partition.switch.BoundarySwitch` and sends each tile its
import list with the next command, so the relay order — and with it
every delta count — is the same run to run.

Protocol per system cycle (driven by
:class:`~repro.partition.engine.PartitionedEngine`):

``begin(ops, imports?)`` -> replay offers/fault ops, open the cycle,
converge locally, reply with exports; ``exchange(imports)`` (repeated)
-> apply imports, re-converge if destabilised, reply with exports;
``commit()`` -> finalise and swap banks, return the cycle's
injection/ejection events and buffered-flit count.  Faults inside a
worker (livelock, parity) serialise across the pipe and re-raise in the
coordinator with their diagnosis intact.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

from repro.farm.process import SpawnError, WorkerProcess, shutdown
from repro.faults.errors import FaultDetectedError, LivelockError
from repro.noc.config import NetworkConfig
from repro.partition.tiles import PartitionMap
from repro.partition.worker import PartitionWorkerNetwork

__all__ = ["ProcessWorkerPool", "PROCESS_PREFIX"]

#: process-name prefix of partition workers.
PROCESS_PREFIX = "repro-partition-"

#: reply deadline: generous — a worker converging a big tile is slow,
#: a dead worker is detected by process liveness well before this.
REPLY_TIMEOUT = 300.0


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
) -> None:
    """Command loop of one tile process."""
    net = PartitionWorkerNetwork(
        cfg, tile, scheduler=scheduler, watchdog_factor=watchdog_factor
    )
    try:
        while True:
            message = conn.recv()
            command = message[0]
            try:
                if command == "begin":
                    _, ops, imports = message
                    for op in ops:
                        _apply_op(net, op)
                    net.begin_step()
                    if imports is not None:
                        net.apply_imports(imports)
                    net.converge_local()
                    exports, changed = net.export_values_changed()
                    conn.send(("ok", net.watchdog.deltas, exports, changed))
                elif command == "exchange":
                    destabilised = net.apply_imports(message[1])
                    if destabilised:
                        net.converge_local()
                    exports, changed = net.export_values_changed()
                    conn.send(
                        ("ok", destabilised, net.watchdog.deltas, exports, changed)
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
                        ("ok", inj, ej, net.total_buffered(), net.watchdog.deltas)
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


class ProcessWorkerPool:
    """Spawn, drive and tear down one process per tile."""

    def __init__(
        self,
        cfg: NetworkConfig,
        pmap: PartitionMap,
        scheduler: str = "worklist",
        watchdog_factor: Optional[int] = None,
    ) -> None:
        self.n_workers = pmap.n_partitions
        self._workers: List[WorkerProcess] = []
        # Runs on close(), on garbage collection and at interpreter
        # exit, whichever comes first — and exactly once.
        self._finalizer = weakref.finalize(
            self, shutdown, self._workers, stop=("exit",)
        )
        try:
            for index, tile in enumerate(pmap.tiles):
                self._workers.append(
                    WorkerProcess(
                        worker_main,
                        (cfg, tile, scheduler, watchdog_factor),
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

    # -- the cycle protocol ---------------------------------------------------
    def begin(
        self,
        ops: Sequence[Sequence[Tuple]],
        imports: Optional[Sequence[Sequence[int]]] = None,
    ) -> Tuple[List[int], List[List[int]], bool]:
        """Open a cycle on every worker; returns (deltas, exports,
        any_changed) per tile.  ``imports`` (latency mode) is applied
        before convergence; ``any_changed`` is True when some tile's
        exports differ from its last publication (i.e. a boundary round
        is needed at all)."""
        replies = self._scatter(
            [
                ("begin", list(ops[tile]), None if imports is None else imports[tile])
                for tile in range(self.n_workers)
            ]
        )
        _, deltas, exports, changed = zip(*replies)
        return list(deltas), list(exports), any(changed)

    def exchange(
        self, imports: Sequence[Sequence[int]]
    ) -> Tuple[bool, List[int], List[List[int]], bool]:
        """One boundary round; returns (any_destabilised, deltas,
        exports, any_changed)."""
        replies = self._scatter([("exchange", values) for values in imports])
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
        """Stop the tile processes.  Idempotent."""
        self._finalizer()
