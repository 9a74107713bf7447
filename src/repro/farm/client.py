"""High-level farm entry points: submit, map, self-check.

* :func:`submit_jobs` — one batch of specs through a supervised pool
  with the default cache;
* :func:`farm_map` — ``[fn(x) for x in items]`` with farm supervision
  (retry/timeout/replacement): the experiment sweeps' one fan-out;
* :func:`run_smoke` — the ``repro farm --smoke`` self-check: two
  workers, one killed mid-job, and the job must still complete with a
  result bit-identical to a direct in-process run, then be served from
  cache on resubmission.
"""

from __future__ import annotations

import os
import tempfile
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro.farm.cache import ResultCache
from repro.farm.jobs import CallableJob, FarmJobError, SimulateJob, canonical_key
from repro.farm.supervisor import FarmReport, FarmSupervisor
from repro.faults.policy import RetryPolicy

#: environment override for the default on-disk cache location.
CACHE_ENV = "REPRO_FARM_CACHE"

#: default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_farm_cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_ENV, "").strip() or DEFAULT_CACHE_DIR


def open_cache(cache_dir: Optional[str] = None) -> Optional[ResultCache]:
    """The result cache for ``cache_dir`` (default location when None;
    ``"-"`` disables caching entirely)."""
    if cache_dir == "-":
        return None
    return ResultCache(cache_dir or default_cache_dir())


def submit_jobs(
    specs: Sequence[Any],
    workers: int = 2,
    cache_dir: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    job_timeout: float = 60.0,
    **kwargs,
) -> FarmReport:
    """Run one batch of job specs and return the farm report."""
    cache = open_cache(cache_dir)
    with FarmSupervisor(
        workers=workers,
        policy=policy,
        cache=cache,
        job_timeout=job_timeout,
        **kwargs,
    ) as farm:
        return farm.submit(specs)


def farm_map(
    fn: Callable,
    items: Iterable[Any],
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    job_timeout: float = 600.0,
    cache_dir: str = "-",
) -> List[Any]:
    """``[fn(x) for x in items]`` under farm supervision.

    Results come back in ``items`` order.  ``fn`` is any picklable
    callable; one that cannot cross a process boundary (a lambda, a
    closure) runs serially right here instead.  A point that raises is
    not retried — it is a pure function, it would raise again — and
    surfaces as :class:`FarmJobError` carrying the original
    ``TypeName: message`` and its failure records; a point whose worker
    died or timed out is retried within the budget.  A sweep point
    crashing is an experiment failure, never a silent hole.  Caching is
    off by default: sweep closures are not stable content addresses
    across code changes the way declared job specs are (pass
    ``cache_dir`` explicitly to opt in).
    """
    items = list(items)
    if not items:
        return []
    try:
        specs = [CallableJob.from_callable(fn, item) for item in items]
    except FarmJobError:
        return [fn(item) for item in items]
    if workers is None:
        workers = min(len(items), os.cpu_count() or 1)
    report = submit_jobs(
        specs,
        workers=max(1, min(workers, len(items))),
        cache_dir=cache_dir,
        policy=policy,
        job_timeout=job_timeout,
    )
    results = []
    for spec in specs:
        outcome = report.outcomes[canonical_key(spec)]
        if outcome.status != "completed":
            detail = (
                outcome.failures[-1].detail if outcome.failures else outcome.status
            )
            raise FarmJobError(
                f"farm job {spec.qualname}({spec.item!r}) {outcome.status}: "
                f"{detail}",
                failures=tuple(outcome.failures),
            )
        results.append(outcome.payload)
    return results


def run_smoke(
    cache_dir: Optional[str] = None, out: Callable[[str], None] = print
) -> bool:
    """The farm's end-to-end self-check (``repro farm --smoke``).

    Spawns two workers, kills one the moment the first job lands on it,
    and asserts the supervisor (1) retries and completes the job,
    (2) returns a payload bit-identical to a direct in-process run, and
    (3) serves the identical resubmitted job from the cache without
    another execution.
    """
    from repro.farm import jobs

    spec = SimulateJob(
        width=3, height=3, cycles=60, load=0.10, seed=0xFA12, engine="sequential"
    )
    reference = jobs.execute(spec)

    with tempfile.TemporaryDirectory(prefix="repro-farm-smoke-") as scratch:
        cache = ResultCache(cache_dir or os.path.join(scratch, "cache"))
        killed: List[int] = []

        def kill_first(worker, state) -> None:
            if not killed:
                killed.append(worker.worker_id)
                worker.proc.kill()

        with FarmSupervisor(
            workers=2,
            cache=cache,
            policy=RetryPolicy(max_retries=3, base_delay=0.01, max_delay=0.1),
            job_timeout=60.0,
            on_dispatch=kill_first,
        ) as farm:
            report = farm.submit([spec])
            chaos_ran = farm.mode == "processes" and bool(killed)
            dispatches_before = farm.telemetry.get("dispatches")
            again = farm.submit([spec])
            dispatches_after = farm.telemetry.get("dispatches")

        checks = {
            "job completed": bool(report.completed),
            "payload bit-identical to direct run": (
                bool(report.completed)
                and report.completed[0].payload == reference
            ),
            "repeat served from cache": (
                bool(again.completed)
                and again.completed[0].from_cache
                and again.completed[0].payload == reference
                and dispatches_after == dispatches_before
            ),
        }
        if chaos_ran:
            checks["killed worker's job was retried"] = (
                report.completed[0].attempts >= 2
                and any(f.kind in ("worker-died", "timeout")
                        for f in report.completed[0].failures)
            )
        else:
            out(
                f"note: farm ran in {report.mode} mode — worker-kill chaos "
                "skipped (no process spawning here)"
            )
        for label, passed in checks.items():
            out(f"  {'PASS' if passed else 'FAIL'}  {label}")
        out(report.render())
        return all(checks.values())
