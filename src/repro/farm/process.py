"""The one worker-process primitive.

Every OS process this codebase starts — the farm's workers — is a
:class:`WorkerProcess`: a fork-context daemon with a recognisable name,
one private duplex pipe to its owner, and optionally a shared heartbeat
stamp.  Spawning, liveness, the ``stop -> SIGTERM ->
grace -> SIGKILL`` escalation and the exit-time sweep of forgotten
workers live here and nowhere else; owners only decide *what* runs in
the child and *when* to give up on it.

A private pipe per worker — rather than one shared queue — is the
robustness choice: SIGKILLing a worker mid-send can only ever tear the
dead worker's own channel (the owner sees EOF), never poison a lock
shared with healthy peers.
"""

from __future__ import annotations

import atexit
import time
from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

#: seconds a worker gets to exit on its own, and again after SIGTERM,
#: before the next escalation step.
TERM_GRACE = 0.5


class SpawnError(OSError):
    """This host cannot start worker processes (no ``fork``, a sandbox
    that refuses it, no semaphores or pipes left)."""


def _context():
    """The fork context workers are created from — the one lookup the
    degraded-mode tests patch to model a host that cannot spawn."""
    import multiprocessing

    return multiprocessing.get_context("fork")


#: every spawned, not yet closed worker: the leak check's and the
#: exit sweep's single source of truth.
_LIVE: Set["WorkerProcess"] = set()


def live_workers() -> List[str]:
    """Process names of the workers nobody has closed yet."""
    return sorted(worker.name for worker in _LIVE)


def _child_main(target: Callable, conn, *args, **kwargs) -> None:
    """First thing in the child: drop the handles forked over from the
    owner.  A sibling's owner-side pipe end held open here would keep
    that sibling from ever seeing EOF when the owner dies."""
    for sibling in _LIVE:
        sibling.conn.close()
    _LIVE.clear()
    target(conn, *args, **kwargs)


class WorkerProcess:
    """One supervised child running ``target(conn, *args)``.

    ``conn`` is the child's end of the duplex pipe; the owner talks
    over :attr:`conn`.  With ``heartbeat=True`` the child additionally
    receives a ``heartbeat=`` shared double it is expected to stamp
    with ``time.monotonic()``; :meth:`heartbeat_age` reads it.
    """

    def __init__(
        self,
        target: Callable,
        args: Tuple = (),
        name: str = "repro-worker",
        heartbeat: bool = False,
    ) -> None:
        self.name = name
        parent = child = None
        try:
            ctx = _context()
            parent, child = ctx.Pipe(duplex=True)
            self.heartbeat = ctx.Value("d", time.monotonic()) if heartbeat else None
            self.proc = ctx.Process(
                target=_child_main,
                args=(target, child, *args),
                kwargs={"heartbeat": self.heartbeat} if heartbeat else {},
                name=name,
                daemon=True,
            )
            self.proc.start()
        except (
            OSError,
            ImportError,  # no _multiprocessing on this platform
            ValueError,  # no fork start method
            AssertionError,  # we are a daemon worker ourselves
            AttributeError,
            RuntimeError,
        ) as exc:
            for conn in (parent, child):
                if conn is not None:
                    conn.close()
            raise SpawnError(
                f"cannot spawn worker process {name!r}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        # Close the child's end here so a dead worker turns into EOF on
        # our end instead of an eternally open pipe.
        child.close()
        self.conn = parent
        _LIVE.add(self)

    def alive(self) -> bool:
        return self.proc.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.proc.exitcode

    def heartbeat_age(self) -> float:
        """Seconds since the child last stamped its heartbeat."""
        return time.monotonic() - self.heartbeat.value

    def send(self, message: Any) -> bool:
        """Best-effort send; ``False`` when the pipe is already dead."""
        try:
            self.conn.send(message)
            return True
        except (OSError, ValueError):
            return False

    def kill(self) -> bool:
        """SIGTERM, a short grace, then SIGKILL — a wedged worker
        cannot refuse.  Returns whether SIGKILL was needed."""
        if not self.proc.is_alive():
            return False
        self.proc.terminate()
        self.proc.join(timeout=TERM_GRACE)
        if not self.proc.is_alive():
            return False
        self.proc.kill()
        self.proc.join(timeout=5.0)
        return True

    def close(self, grace: float = TERM_GRACE) -> bool:
        """Give the worker ``grace`` seconds to exit by itself, then
        escalate; release the pipe and the process-table entry.
        Returns whether SIGKILL was needed.  Idempotent."""
        if self not in _LIVE:
            return False
        self.proc.join(timeout=grace)
        sigkilled = self.kill()
        self.conn.close()
        _LIVE.discard(self)
        return sigkilled


def shutdown(workers: Iterable[WorkerProcess], stop: Any = None) -> int:
    """Close ``workers`` together: every one is sent ``stop`` first (so
    they wind down in parallel), then each is closed with the usual
    escalation.  Returns how many needed SIGKILL."""
    workers = list(workers)
    if stop is not None:
        for worker in workers:
            worker.send(stop)
    return sum(worker.close() for worker in workers)


@atexit.register
def _sweep_at_exit() -> None:
    for worker in list(_LIVE):
        worker.close(grace=0.0)
