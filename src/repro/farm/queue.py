"""Retry-aware job queue: pending work, backoff windows, quarantine.

The queue is deliberately dumb about *how* jobs run — it only knows
when they may run.  Each :class:`~repro.farm.jobs.JobState` carries its
attempt count and a ``ready_at`` wall-clock gate; a failed job re-enters
the queue with its gate pushed out by the shared
:class:`~repro.faults.policy.RetryPolicy` backoff, and a job that fails
past the budget is handed back as *quarantined* with its complete
failure history — the poison-job analogue of PR 1's permanent-link
quarantine.

Time is injected into every method, so the scheduling logic is testable
without sleeping.
"""

from __future__ import annotations

from typing import List, Optional

from repro.farm.jobs import FailureRecord, JobState
from repro.faults.policy import RetryPolicy


class JobQueue:
    """FIFO of :class:`JobState` with per-job backoff gates."""

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self._pending: List[JobState] = []

    def add(self, state: JobState) -> None:
        self._pending.append(state)

    def next_ready(self, now: float) -> Optional[JobState]:
        """Pop the first job whose backoff window has passed."""
        for i, state in enumerate(self._pending):
            if state.ready_at <= now:
                return self._pending.pop(i)
        return None

    def soonest(self, now: float) -> Optional[float]:
        """Seconds until the next job becomes ready (None when empty)."""
        if not self._pending:
            return None
        return max(0.0, min(s.ready_at for s in self._pending) - now)

    def fail(self, state: JobState, record: FailureRecord, now: float) -> str:
        """Record a failed attempt; requeue with backoff or give up.

        Returns ``"retry"`` (the job is back in the queue) or
        ``"quarantine"`` (budget exhausted, or the spec declares an
        exception final via ``retry_exceptions = False``; the caller
        owns the state and its ``failures`` list from here).
        """
        state.attempts += 1
        record.attempt = state.attempts
        state.failures.append(record)
        final = record.kind == "exception" and not getattr(
            state.spec, "retry_exceptions", True
        )
        if not final and self.policy.allows(state.attempts):
            state.ready_at = now + self.policy.delay(state.attempts, token=state.key)
            self.add(state)
            return "retry"
        return "quarantine"

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)
