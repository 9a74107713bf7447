"""The farm supervisor: deploy, monitor, recover.

:class:`FarmSupervisor` schedules job specs over a pool of supervised
worker processes and survives every failure mode the chaos suite can
inject:

* **crash** — a dead worker (EOF on its pipe, ``alive()`` false) is
  replaced and its in-flight job requeued with backoff;
* **hang** — a job past its wall-clock ``job_timeout`` gets its worker
  SIGTERMed, then SIGKILLed (escalation), a fresh worker spawned, and
  the job requeued;
* **wedge** — a worker whose heartbeat goes stale (frozen process) is
  killed and replaced even though its deadline has not expired;
* **poison** — a job that fails past the
  :class:`~repro.faults.policy.RetryPolicy` budget is quarantined with
  its complete failure record, never retried forever;
* **duplicate** — identical specs in one batch execute once; repeats
  across runs are served from the result cache without execution.

Workers are :class:`~repro.farm.process.WorkerProcess` instances — the
spawn / signal-escalation / reaping code is that primitive's, not ours.

Degradation ladder (never an exception, always an answer; the only
ladder — the experiment sweeps fan out through
:func:`~repro.farm.client.farm_map` and inherit it):

1. ``processes`` — the supervised pool above;
2. ``inline`` — process spawning unavailable
   (:class:`~repro.farm.process.SpawnError`: sandboxes, no ``fork``):
   jobs run in the supervisor's own process with the same retry budget
   (timeouts cannot be enforced without a killable process —
   documented, not hidden);
3. ``cache-only`` — ``workers=0``: cache hits are served, everything
   else is reported ``unavailable``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.farm.cache import ResultCache
from repro.farm.jobs import FailureRecord, JobState, canonical_key, execute
from repro.farm.process import WorkerProcess, shutdown
from repro.farm.queue import JobQueue
from repro.farm.worker import PROCESS_PREFIX, worker_main
from repro.faults.policy import RetryPolicy
from repro.platform.logs import TelemetryCounters


@dataclass
class JobOutcome:
    """Terminal state of one unique job key."""

    key: str
    spec: Any
    status: str  # "completed" | "quarantined" | "unavailable"
    payload: Any = None
    from_cache: bool = False
    attempts: int = 0
    failures: List[FailureRecord] = field(default_factory=list)
    worker: Optional[int] = None
    elapsed: float = 0.0


@dataclass
class FarmReport:
    """Everything one :meth:`FarmSupervisor.submit` batch produced."""

    mode: str
    order: List[str]  # submit-order keys (duplicates included)
    outcomes: Dict[str, JobOutcome]
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def _with_status(self, status: str) -> List[JobOutcome]:
        seen = []
        for key in dict.fromkeys(self.order):
            outcome = self.outcomes[key]
            if outcome.status == status:
                seen.append(outcome)
        return seen

    @property
    def completed(self) -> List[JobOutcome]:
        return self._with_status("completed")

    @property
    def quarantined(self) -> List[JobOutcome]:
        return self._with_status("quarantined")

    @property
    def unavailable(self) -> List[JobOutcome]:
        return self._with_status("unavailable")

    @property
    def ok(self) -> bool:
        return not self.quarantined and not self.unavailable

    def payloads(self) -> List[Any]:
        """Payloads in submit order (duplicates resolved per key)."""
        return [self.outcomes[key].payload for key in self.order]

    def render(self) -> str:
        lines = [
            f"farm report ({self.mode}): {len(self.order)} job(s), "
            f"{len(self.completed)} completed, "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.unavailable)} unavailable"
        ]
        for key in dict.fromkeys(self.order):
            outcome = self.outcomes[key]
            source = "cache" if outcome.from_cache else f"worker {outcome.worker}"
            line = (
                f"  {key[:12]}  {getattr(outcome.spec, 'kind', '?'):<9} "
                f"{outcome.status:<12}"
            )
            if outcome.status == "completed":
                line += f" via {source}, {outcome.attempts or 1} attempt(s)"
            elif outcome.failures:
                last = outcome.failures[-1]
                line += f" after {len(outcome.failures)} failure(s): {last.kind}"
            lines.append(line)
        return "\n".join(lines)


class _WorkerHandle(WorkerProcess):
    """One farm worker plus the supervisor's scheduling state for it."""

    def __init__(
        self, worker_id: int, farm: str, interval: float, scratch: Optional[str]
    ) -> None:
        super().__init__(
            worker_main,
            (worker_id, interval, scratch),
            name=f"{PROCESS_PREFIX}{farm}-w{worker_id}",
            heartbeat=True,
        )
        self.worker_id = worker_id
        self.busy: Optional[JobState] = None
        self.deadline: float = 0.0
        self.dispatched_at: float = 0.0


class FarmSupervisor:
    """Supervised worker pool + result cache; see the module docstring."""

    def __init__(
        self,
        workers: int = 2,
        policy: Optional[RetryPolicy] = None,
        cache: Optional[ResultCache] = None,
        job_timeout: float = 60.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        poll: float = 0.05,
        scratch: Optional[str] = None,
        telemetry: Optional[TelemetryCounters] = None,
        on_dispatch: Optional[Callable[["_WorkerHandle", JobState], None]] = None,
        name: str = "farm",
    ) -> None:
        self.n_workers = max(0, workers)
        self.policy = policy if policy is not None else RetryPolicy()
        self.cache = cache
        self.job_timeout = job_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.poll = poll
        self.telemetry = telemetry if telemetry is not None else TelemetryCounters()
        self.on_dispatch = on_dispatch
        self.name = name
        self.workers: List[_WorkerHandle] = []
        self.mode = "cache-only" if self.n_workers == 0 else "unstarted"
        self._next_worker_id = 0
        self._scratch = scratch
        self._own_scratch = scratch is None
        self._started = False
        #: the running batch: retry queue and terminal outcomes by key.
        self._queue = JobQueue(self.policy)
        self._outcomes: Dict[str, JobOutcome] = {}
        if self.cache is not None and self.cache.telemetry is None:
            self.cache.telemetry = self.telemetry

    # -- lifecycle ----------------------------------------------------------
    def __enter__(self) -> "FarmSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self._scratch is None:
            self._scratch = tempfile.mkdtemp(prefix="repro-farm-")
        if self.n_workers == 0:
            self.mode = "cache-only"
            return
        try:
            for _ in range(self.n_workers):
                self.workers.append(self._spawn())
            self.mode = "processes"
        except OSError:
            # SpawnError: no process spawning here (sandbox, no fork,
            # missing semaphores...).  Degrade to in-process execution,
            # keep the retry budget.
            self._teardown_workers()
            self.mode = "inline"
            self.telemetry.incr("inline_fallbacks")

    def _spawn(self) -> _WorkerHandle:
        worker = _WorkerHandle(
            self._next_worker_id, self.name, self.heartbeat_interval, self._scratch
        )
        self._next_worker_id += 1
        self.telemetry.incr("workers_spawned")
        return worker

    def close(self) -> None:
        """Stop every worker (graceful, then SIGTERM, then SIGKILL)."""
        self._teardown_workers()
        if self._own_scratch and self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None

    def _teardown_workers(self) -> None:
        sigkilled = shutdown(self.workers, stop=("stop",))
        if sigkilled:
            self.telemetry.incr("sigkills", sigkilled)
        self.workers = []

    # -- submission ---------------------------------------------------------
    def submit(self, specs: Sequence[Any]) -> FarmReport:
        """Run a batch of job specs to terminal outcomes."""
        self.start()
        order: List[str] = []
        outcomes = self._outcomes = {}
        queue = self._queue = JobQueue(self.policy)
        states: Dict[str, JobState] = {}

        for spec in specs:
            key = canonical_key(spec)
            order.append(key)
            self.telemetry.incr("jobs_submitted")
            if key in outcomes or key in states:
                self.telemetry.incr("duplicates_coalesced")
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                outcomes[key] = JobOutcome(
                    key, spec, "completed", payload=cached, from_cache=True
                )
                continue
            if self.mode == "cache-only":
                outcomes[key] = JobOutcome(key, spec, "unavailable")
                self.telemetry.incr("unavailable")
                continue
            state = JobState(spec, key)
            states[key] = state
            queue.add(state)

        if states:
            if self.mode == "inline":
                self._run_inline()
            else:
                self._run_processes()
        return FarmReport(
            mode=self.mode,
            order=order,
            outcomes=outcomes,
            counters=self.telemetry.snapshot(),
        )

    # -- terminal transitions ----------------------------------------------
    def _complete(
        self, state: JobState, payload: Any, worker: Optional[int], elapsed: float
    ) -> None:
        self._outcomes[state.key] = JobOutcome(
            state.key,
            state.spec,
            "completed",
            payload=payload,
            attempts=state.attempts + 1,
            failures=state.failures,
            worker=worker,
            elapsed=elapsed,
        )
        self.telemetry.incr("jobs_completed")
        if worker is not None:
            self.telemetry.incr("jobs_completed", scope=f"worker[{worker}]")
        if self.cache is not None:
            self.cache.put(state.key, payload, spec=state.spec)

    def _fail(
        self,
        state: JobState,
        kind: str,
        detail: str,
        elapsed: float,
        worker: Optional[int] = None,
    ) -> None:
        """Record one failed attempt; requeue with backoff or quarantine."""
        record = FailureRecord(
            kind, detail, attempt=state.attempts + 1, worker=worker, elapsed=elapsed
        )
        self.telemetry.incr("job_failures")
        self.telemetry.incr(f"failures_{kind}")
        if worker is not None:
            self.telemetry.incr("job_failures", scope=f"worker[{worker}]")
        if self._queue.fail(state, record, time.monotonic()) == "retry":
            self.telemetry.incr("retries")
            return
        self._outcomes[state.key] = JobOutcome(
            state.key,
            state.spec,
            "quarantined",
            attempts=state.attempts,
            failures=state.failures,
        )
        self.telemetry.incr("jobs_quarantined")
        if self.cache is not None:
            self.cache.quarantine_job(state.key, state.spec, state.failures)

    # -- inline (degraded) execution ----------------------------------------
    def _run_inline(self) -> None:
        queue = self._queue
        while queue:
            now = time.monotonic()
            state = queue.next_ready(now)
            if state is None:
                wait = queue.soonest(now)
                time.sleep(min(wait if wait is not None else self.poll, 0.25))
                continue
            started = time.perf_counter()
            try:
                payload = execute(state.spec, scratch=self._scratch)
            except Exception as exc:  # noqa: BLE001 - budgeted retry
                self._fail(
                    state, "exception", f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - started,
                )
                continue
            self._complete(state, payload, None, time.perf_counter() - started)

    # -- supervised process execution ----------------------------------------
    def _dispatch(self, worker: _WorkerHandle, state: JobState) -> None:
        now = time.monotonic()
        worker.busy = state
        worker.dispatched_at = now
        worker.deadline = now + self.job_timeout
        worker.conn.send(("job", state.key, state.spec))
        self.telemetry.incr("dispatches")
        self.telemetry.incr("dispatches", scope=f"worker[{worker.worker_id}]")
        if self.on_dispatch is not None:
            self.on_dispatch(worker, state)

    def _lose(self, worker: _WorkerHandle, kind: str, detail: str) -> None:
        """``worker`` died, hung or wedged: fail its in-flight job
        (requeue or quarantine), kill it, and put a fresh worker in its
        slot."""
        state, worker.busy = worker.busy, None
        if state is not None:
            self._fail(
                state, kind, detail,
                time.monotonic() - worker.dispatched_at, worker.worker_id,
            )
        if worker.close(grace=0.0):
            self.telemetry.incr("sigkills")
        self.telemetry.incr("workers_replaced")
        index = self.workers.index(worker)
        try:
            self.workers[index] = self._spawn()
        except OSError:
            # Cannot respawn any more: shrink the pool; if it empties,
            # the drain loop degrades the rest of the batch to inline.
            self.workers.pop(index)
            self.telemetry.incr("respawn_failures")

    def _lose_dead(self, worker: _WorkerHandle) -> None:
        self.telemetry.incr("worker_deaths")
        self._lose(
            worker, "worker-died",
            f"worker {worker.worker_id} exited (exitcode {worker.exitcode})",
        )

    def _run_processes(self) -> None:
        from multiprocessing import connection as mp_connection

        queue = self._queue
        while queue or any(w.busy is not None for w in self.workers):
            if not self.workers:
                # Every worker died and none could be respawned (their
                # jobs are back in the queue): finish the remaining
                # work inline rather than losing it.
                self.mode = "inline"
                self.telemetry.incr("inline_fallbacks")
                self._run_inline()
                return

            # 1. dispatch ready jobs onto idle workers
            now = time.monotonic()
            for worker in list(self.workers):
                if worker.busy is not None:
                    continue
                state = queue.next_ready(now)
                if state is None:
                    break
                try:
                    self._dispatch(worker, state)
                except (OSError, ValueError):
                    self._lose(worker, "worker-died", "job pipe closed at dispatch")

            # 2. wait for results (bounded by the poll interval)
            conns = {w.conn: w for w in self.workers}
            for conn in mp_connection.wait(list(conns), timeout=self.poll):
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._lose_dead(worker)
                    continue
                self._handle_message(worker, message)

            # 3. deadlines (timeout -> kill escalation) and liveness
            #    (dead processes, stale heartbeats)
            now = time.monotonic()
            for worker in list(self.workers):
                if worker.busy is not None and now > worker.deadline:
                    self.telemetry.incr("timeouts")
                    self._lose(
                        worker, "timeout",
                        f"exceeded {self.job_timeout:.1f}s wall clock",
                    )
                elif not worker.alive():
                    self._lose_dead(worker)
                elif worker.heartbeat_age() > self.heartbeat_timeout:
                    self.telemetry.incr("heartbeat_losses")
                    self._lose(
                        worker, "heartbeat",
                        f"no heartbeat for {self.heartbeat_timeout:.1f}s",
                    )

    def _handle_message(self, worker: _WorkerHandle, message) -> None:
        """``("done", worker_id, key, payload, elapsed)`` or
        ``("fail", worker_id, key, detail, elapsed)`` from ``worker``."""
        tag, worker_id, key, body, elapsed = message
        state = worker.busy
        if state is None or state.key != key:
            self.telemetry.incr("stale_results")
            return
        worker.busy = None
        if tag == "done":
            self._complete(state, body, worker_id, elapsed)
        else:
            self._fail(state, "exception", body, elapsed, worker_id)
