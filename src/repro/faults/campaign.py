"""Fault-injection campaigns with rollback recovery.

A campaign is one long platform-controlled simulation during which
seeded faults strike one at a time, spaced far enough apart that every
detection is attributable to exactly one fault.  The platform
controller's checkpoint/rollback machinery (see
:class:`repro.platform.controller.SimulationController`) detects,
rolls back and retries; the campaign collates the outcome of every
fault into a :class:`ResilienceReport`:

* **detected** — the fault raised a structured error (parity, livelock,
  buffer protocol, or a crash check) before the run ended;
* **undetected** — the fault was silently absorbed.  For link faults
  this is usually *benign*: the HBR protocol re-evaluates the reader
  when the writer republishes the uncorrupted value, so most link
  transients converge away — an observation the report quantifies;
* **recovered** — a detected fault whose rollback/retry ran clean
  within the retry budget.

Everything is a pure function of the seed: running the same campaign
twice produces byte-identical reports (the determinism test relies on
this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.errors import RecoveryExhaustedError
from repro.faults.model import (
    FaultDomain,
    FaultInjector,
    FaultKind,
    FaultModel,
    PlannedFault,
)
from repro.noc.config import NetworkConfig
from repro.noc.routing import RoutingTable
from repro.seqsim.sequential import SequentialNetwork
from repro.traffic.generators import BernoulliBeTraffic, uniform_random


@dataclass
class CampaignConfig:
    """Everything a campaign run depends on (all seeded/deterministic)."""

    width: int = 4
    height: int = 4
    topology: str = "torus"
    n_faults: int = 100
    seed: int = 1
    load: float = 0.10
    #: cycles between consecutive fault strikes
    spacing: int = 4
    #: cycles of fault-free warm-up before the first strike
    warmup: int = 8
    #: controller period (small: narrow rollback windows)
    period: int = 8
    #: periods between controller snapshots
    checkpoint_interval: int = 1
    max_retries: int = 4
    domains: Tuple[FaultDomain, ...] = (FaultDomain.STATE, FaultDomain.LINK)
    kinds: Tuple[FaultKind, ...] = (FaultKind.TRANSIENT,)
    #: additionally end the campaign with one livelock-inducing flap
    #: fault, exercising watchdog detection + quarantine rerouting
    include_flap: bool = False


@dataclass
class FaultOutcome:
    """What happened to one planned fault."""

    fault: PlannedFault
    detected: bool = False
    detect_cycle: Optional[int] = None
    error: str = ""

    @property
    def cycles_to_detection(self) -> Optional[int]:
        if self.detect_cycle is None:
            return None
        return self.detect_cycle - self.fault.cycle


@dataclass
class ResilienceReport:
    """The campaign's bottom line."""

    config: CampaignConfig
    injected: int = 0
    detected: int = 0
    undetected: int = 0
    recovered: int = 0
    rollbacks: int = 0
    recovery_deltas: int = 0
    recovery_exhausted: bool = False
    mean_cycles_to_detection: float = 0.0
    quarantined_links: Tuple[Tuple[int, int], ...] = ()
    outcomes: List[FaultOutcome] = field(default_factory=list)
    per_domain: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cycles_run: int = 0
    total_deltas: int = 0

    @property
    def detection_rate(self) -> float:
        return self.detected / self.injected if self.injected else 0.0

    @property
    def recovery_rate(self) -> float:
        return self.recovered / self.detected if self.detected else 0.0

    def render(self) -> str:
        cfg = self.config
        lines = [
            "fault-injection campaign "
            f"({cfg.width}x{cfg.height} {cfg.topology}, seed {cfg.seed})",
            f"  faults injected        {self.injected}",
            f"  detected               {self.detected} "
            f"({100.0 * self.detection_rate:.1f}%)",
            f"  undetected (absorbed)   {self.undetected}",
        ]
        for domain in (FaultDomain.STATE, FaultDomain.LINK):
            det, total = self.per_domain.get(domain.value, (0, 0))
            if total:
                lines.append(
                    f"    {domain.value:<6} {det}/{total} detected "
                    f"({100.0 * det / total:.1f}%)"
                )
        lines += [
            f"  recovered               {self.recovered} "
            f"({100.0 * self.recovery_rate:.1f}% of detected)",
            f"  rollbacks               {self.rollbacks}",
            f"  recovery overhead       {self.recovery_deltas} delta cycles",
            f"  mean cycles-to-detect   {self.mean_cycles_to_detection:.2f}",
            f"  quarantined links       {list(self.quarantined_links)}",
            f"  cycles simulated        {self.cycles_run} "
            f"({self.total_deltas} deltas)",
            f"  recovery exhausted      {self.recovery_exhausted}",
        ]
        return "\n".join(lines)


def traffic_seed(seed: int) -> int:
    """The BE traffic LFSR's seed in the campaign at ``seed``."""
    return seed ^ 0x5EED


def run_campaign(config: CampaignConfig) -> ResilienceReport:
    """Run one seeded campaign; see the module docstring for semantics."""
    # Imported lazily: repro.platform imports repro.faults.errors, so a
    # module-level import here would make the package import order
    # matter (importing repro.platform first used to raise ImportError).
    from repro.platform.controller import SimulationController

    net_cfg = NetworkConfig(
        width=config.width, height=config.height, topology=config.topology
    )
    engine = SequentialNetwork(net_cfg, RoutingTable(net_cfg), packed=True)
    be = BernoulliBeTraffic(
        net_cfg,
        load=config.load,
        pattern=uniform_random(net_cfg),
        seed=traffic_seed(config.seed),
    )
    controller = SimulationController(
        engine,
        be=be,
        period=config.period,
        checkpoint_interval=config.checkpoint_interval,
        max_retries=config.max_retries,
    )

    model = FaultModel(engine, seed=config.seed)
    faults = model.sample(
        config.n_faults,
        first_cycle=config.warmup,
        spacing=config.spacing,
        domains=config.domains,
        kinds=config.kinds,
    )
    if config.include_flap:
        last = config.warmup + config.n_faults * config.spacing
        faults = faults + [model.sample_flap(last + config.spacing, len(faults))]
    injector = FaultInjector(model, faults).attach()

    total_cycles = (
        config.warmup + (len(faults) + 2) * config.spacing + 2 * config.period
    )
    exhausted = False
    try:
        report = controller.run(total_cycles)
        cycles_run = report.cycles
        total_deltas = report.total_deltas
    except RecoveryExhaustedError:
        exhausted = True
        cycles_run = engine.cycle
        metrics = getattr(engine, "metrics", None)
        total_deltas = metrics.total_deltas if metrics else 0
    finally:
        injector.detach()

    return _collate(config, controller, injector, exhausted, cycles_run, total_deltas)


def run_campaigns(
    configs: Sequence[CampaignConfig],
    workers: Optional[int] = None,
) -> List[ResilienceReport]:
    """Run several campaigns, fanned out over worker processes.

    Campaigns are pure functions of their config (every randomness
    source is seeded from it), so the reports come back in ``configs``
    order and are identical to running :func:`run_campaign` serially —
    whatever the worker count.  Reports carry only plain dataclasses
    (no engine references), so they pickle across the pool boundary.
    """
    from repro.experiments.parallel import parallel_map

    return parallel_map(run_campaign, configs, workers=workers)


def _collate(
    config: CampaignConfig,
    controller: SimulationController,
    injector: FaultInjector,
    exhausted: bool,
    cycles_run: int,
    total_deltas: int,
) -> ResilienceReport:
    """Attribute each controller detection to the fault that caused it.

    Faults strike one at a time (``spacing`` apart) and any detection
    fires before the next strike, so attribution is by cycle interval:
    a detection at cycle ``c`` belongs to the last fault fired at or
    before ``c``.  Attribution is additionally *monotone* in the log
    order: after a rollback, a persistent fault (flap, stuck-at)
    re-trips at an earlier cycle than its first detection, and that
    re-detection must stay with the same fault, not drift back to an
    older one.
    """
    outcomes = [FaultOutcome(fault) for _, fault in injector.fired]
    fire_cycles = [cycle for cycle, _ in injector.fired]

    last_idx = -1
    for det_cycle, err_name, err_msg in controller.fault_log:
        idx = -1
        for i, fire_cycle in enumerate(fire_cycles):
            if fire_cycle <= det_cycle:
                idx = i
            else:
                break
        idx = max(idx, last_idx)
        if idx >= 0:
            last_idx = idx
            owner = outcomes[idx]
            if not owner.detected:
                owner.detected = True
                owner.detect_cycle = det_cycle
                owner.error = f"{err_name}: {err_msg}"

    detected = [o for o in outcomes if o.detected]
    latencies = [o.cycles_to_detection for o in detected]
    per_domain: Dict[str, Tuple[int, int]] = {}
    for domain in FaultDomain:
        total = sum(1 for o in outcomes if o.fault.domain is domain)
        det = sum(1 for o in detected if o.fault.domain is domain)
        if total:
            per_domain[domain.value] = (det, total)

    report = ResilienceReport(
        config=config,
        injected=len(outcomes),
        detected=len(detected),
        undetected=len(outcomes) - len(detected),
        recovered=controller.recoveries,
        rollbacks=controller.rollbacks,
        recovery_deltas=controller.recovery_deltas,
        recovery_exhausted=exhausted or controller.recovery_exhausted,
        mean_cycles_to_detection=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        quarantined_links=tuple(sorted(controller.engine.quarantined_links)),
        outcomes=outcomes,
        per_domain=per_domain,
        cycles_run=cycles_run,
        total_deltas=total_deltas,
    )
    return report
