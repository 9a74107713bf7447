"""Worker-process side of the farm.

A worker is one :class:`~repro.farm.process.WorkerProcess` (named
``repro-farm-...``) in a loop: receive a job spec over its private
pipe, execute it, send the result back.

Liveness is reported two ways:

* the **process** itself — the supervisor polls ``alive()`` and gets
  EOF on the pipe when the worker dies;
* a **heartbeat** — a shared double the worker's daemon heartbeat
  thread stamps with ``time.monotonic()`` every ``interval`` seconds.
  The thread beats even while a job blocks, so a stale heartbeat means
  the *process* is wedged (frozen, swapped out, heartbeat thread dead),
  not merely busy — exactly the case per-job timeouts cannot see
  because the deadline has not expired yet.

The chaos suite reaches the running worker through
:func:`current_context` (e.g. to silence the heartbeat and prove the
supervisor replaces a wedged worker).
"""

from __future__ import annotations

import pickle
import threading
import time
from typing import Optional

from repro.farm import jobs

#: prefix for worker process names.
PROCESS_PREFIX = "repro-farm-"


class WorkerContext:
    """What a running worker exposes to the job it is executing."""

    def __init__(self, worker_id: int, stop: threading.Event) -> None:
        self.worker_id = worker_id
        self._stop = stop

    def stop_heartbeat(self) -> None:
        """Silence the heartbeat (chaos hook: a wedged worker)."""
        self._stop.set()


_ACTIVE: Optional[WorkerContext] = None


def current_context() -> Optional[WorkerContext]:
    """The context of the worker executing the current job, if any."""
    return _ACTIVE


def _beat(heartbeat, stop: threading.Event, interval: float) -> None:
    while not stop.is_set():
        heartbeat.value = time.monotonic()
        stop.wait(interval / 2.0)


def worker_main(
    conn,
    worker_id: int,
    interval: float,
    scratch: Optional[str],
    heartbeat,
) -> None:
    """Entry point of one worker process."""
    global _ACTIVE
    stop = threading.Event()
    _ACTIVE = WorkerContext(worker_id, stop)
    heartbeat.value = time.monotonic()
    beater = threading.Thread(
        target=_beat,
        args=(heartbeat, stop, max(0.05, interval)),
        name=f"{PROCESS_PREFIX}heartbeat-{worker_id}",
        daemon=True,
    )
    beater.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not message or message[0] == "stop":
                break
            _tag, key, spec = message
            started = time.perf_counter()
            try:
                payload = jobs.execute(spec, scratch=scratch)
            except BaseException as exc:  # noqa: BLE001 - reported, not raised
                detail = f"{type(exc).__name__}: {exc}"
                try:
                    conn.send(
                        ("fail", worker_id, key, detail,
                         time.perf_counter() - started)
                    )
                except (OSError, ValueError, TypeError):
                    pass
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    break
                continue
            try:
                conn.send(
                    ("done", worker_id, key, payload, time.perf_counter() - started)
                )
            except (OSError, ValueError):
                break
            except (TypeError, AttributeError, pickle.PicklingError) as exc:
                # Unpicklable payload: report instead of dying silently.
                try:
                    conn.send(
                        ("fail", worker_id, key,
                         f"unpicklable result: {exc}",
                         time.perf_counter() - started)
                    )
                except (OSError, ValueError, TypeError):
                    break
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass
