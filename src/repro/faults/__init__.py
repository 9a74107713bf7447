"""Fault injection, detection and recovery for the sequential simulator.

The paper's claim is *bit accuracy*; this package asks what happens
when the bits themselves fail.  It provides:

* :mod:`repro.faults.errors` — the structured failure contract
  (parity, livelock, recovery exhaustion), import-cycle free so every
  simulator layer can raise it;
* :mod:`repro.faults.model` — seeded fault vocabulary and samplers
  (transient / burst / stuck-at / flap) driving the injection hooks of
  the state memory, link memory, cyclic buffers and transfer path;
* :mod:`repro.faults.campaign` — campaign runner sweeping fault sites
  x cycles under the platform controller's checkpoint/rollback
  recovery, emitting a :class:`ResilienceReport`.
"""

from repro.faults.campaign import (
    CampaignConfig,
    FaultOutcome,
    ResilienceReport,
    run_campaign,
    run_campaigns,
)
from repro.faults.errors import (
    ConvergenceError,
    FaultDetectedError,
    LivelockError,
    ParityError,
    RecoveryExhaustedError,
)
from repro.faults.model import (
    FaultDomain,
    FaultInjector,
    FaultKind,
    FaultModel,
    PlannedFault,
)

__all__ = [
    "CampaignConfig",
    "ConvergenceError",
    "FaultDetectedError",
    "FaultDomain",
    "FaultInjector",
    "FaultKind",
    "FaultModel",
    "FaultOutcome",
    "LivelockError",
    "ParityError",
    "PlannedFault",
    "RecoveryExhaustedError",
    "ResilienceReport",
    "run_campaign",
    "run_campaigns",
]
