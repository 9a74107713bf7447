"""Fault-tolerant simulation job farm (simulation as a service).

The paper's host loop (section 5.3) drives one well-behaved simulator.
This package is the layer the ROADMAP's service north-star needs on top:
accept simulate/sweep/campaign *jobs* (frozen dataclass specs with
canonical content keys), schedule them over a supervised pool of worker
processes, and answer through a crash-safe, content-addressed result
cache — bit accuracy makes identical jobs perfectly cacheable.

Robustness is the design axis; see :mod:`repro.farm.supervisor` for the
full failure-mode inventory (crash / hang / wedge / poison) and the
degradation ladder (processes -> inline -> cache-only).

Modules: :mod:`~repro.farm.jobs` (specs + executors),
:mod:`~repro.farm.queue` (retry/backoff bookkeeping),
:mod:`~repro.farm.process` (the one worker-process primitive: spawn,
liveness, kill escalation, exit sweep),
:mod:`~repro.farm.worker` (worker-process loop + heartbeat),
:mod:`~repro.farm.supervisor` (deploy/monitor/recover),
:mod:`~repro.farm.cache` (atomic on-disk results),
:mod:`~repro.farm.client` (submit/map/smoke entry points).
"""

from repro.farm.cache import ResultCache
from repro.farm.client import farm_map, open_cache, run_smoke, submit_jobs
from repro.farm.jobs import (
    CallableJob,
    ChaosJob,
    FarmJobError,
    SimulateJob,
    canonical_key,
    payload_digest,
)
from repro.farm.queue import JobQueue
from repro.farm.supervisor import FarmReport, FarmSupervisor, JobOutcome

__all__ = [
    "CallableJob",
    "ChaosJob",
    "FarmJobError",
    "FarmReport",
    "FarmSupervisor",
    "JobOutcome",
    "JobQueue",
    "ResultCache",
    "SimulateJob",
    "canonical_key",
    "farm_map",
    "open_cache",
    "payload_digest",
    "run_smoke",
    "submit_jobs",
]
