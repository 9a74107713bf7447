"""Seeded fault models for the sequential simulator.

A fault campaign needs three things: a *vocabulary* of faults (what can
go wrong), a *sampler* that turns a seed into a reproducible fault list,
and an *applicator* that drives the injection hooks the simulator
exposes (:meth:`SequentialNetwork.inject_state_fault` and friends).
This module provides all three, deliberately free of any campaign
policy — :mod:`repro.faults.campaign` composes it with the platform
controller's rollback machinery.

Fault vocabulary (classic SEU/SET taxonomy, mapped onto the paper's
memories):

* ``TRANSIENT`` — a single bit flip in a stored word (state memory or
  link memory): the particle strike.  Parity catches every odd-weight
  corruption of a state word at the next bank swap.
* ``BURST`` — a contiguous run of flipped bits (a multi-bit upset along
  a BlockRAM column).  Odd-length bursts are parity-detectable,
  even-length bursts model the corruptions parity provably misses.
* ``STUCK_AT`` — a link-memory bit permanently forced to 0/1: a solder
  joint or driver failure on an inter-router wire.
* ``FLAP`` — a flaky wire *pair* (forward + returning room credit)
  whose every write registers as changed: the two endpoints invalidate
  each other forever, the livelock the convergence watchdog bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple


class FaultKind(str, Enum):
    TRANSIENT = "transient"
    BURST = "burst"
    STUCK_AT = "stuck-at"
    FLAP = "flap"


class FaultDomain(str, Enum):
    """Which memory the fault lands in."""

    STATE = "state"  # packed state memory (parity protected)
    LINK = "link"  # single-banked link memory (unprotected)


@dataclass(frozen=True)
class PlannedFault:
    """One fault of a campaign: what, where, and when."""

    index: int  # campaign-wide ordinal
    kind: FaultKind
    domain: FaultDomain
    cycle: int  # system cycle the fault strikes
    #: state faults: unit address.  link faults: wire id.
    target: int
    #: first (or only) bit flipped / forced
    bit: int
    #: burst length (1 for single-bit kinds); stuck-at value for STUCK_AT
    extent: int = 1

    def describe(self, wire_names: Optional[Sequence[str]] = None) -> str:
        where = (
            f"unit {self.target}"
            if self.domain is FaultDomain.STATE
            else (
                wire_names[self.target]
                if wire_names is not None
                else f"wire {self.target}"
            )
        )
        return (
            f"#{self.index}: {self.kind.value} in {self.domain.value} "
            f"({where}, bit {self.bit}, extent {self.extent}) at cycle {self.cycle}"
        )


class FaultModel:
    """Seeded sampler + applicator over a sequential engine.

    The same seed always yields the same fault list for the same
    engine geometry, which is what makes a campaign reproducible
    bit-for-bit.
    """

    def __init__(self, engine, seed: int = 0) -> None:
        self.engine = engine
        self.seed = seed
        self.rng = random.Random(seed)
        self._n_units = engine.cfg.n_routers
        self._wire_names = engine.link_wire_names()

    # -- sampling -----------------------------------------------------------
    def sample(
        self,
        n_faults: int,
        first_cycle: int,
        spacing: int,
        domains: Sequence[FaultDomain] = (FaultDomain.STATE, FaultDomain.LINK),
        kinds: Sequence[FaultKind] = (FaultKind.TRANSIENT,),
    ) -> List[PlannedFault]:
        """``n_faults`` faults, one every ``spacing`` cycles.

        Spacing the faults out (rather than striking at random cycles)
        keeps detections attributable to a single cause, which the
        campaign report relies on.
        """
        if n_faults < 0 or spacing < 1:
            raise ValueError("need n_faults >= 0 and spacing >= 1")
        rng = self.rng
        word_width = (
            self.engine.state_word_width
            if FaultDomain.STATE in tuple(domains)
            else 0
        )
        faults: List[PlannedFault] = []
        for i in range(n_faults):
            domain = rng.choice(list(domains))
            kind = rng.choice(list(kinds))
            cycle = first_cycle + i * spacing
            if domain is FaultDomain.STATE:
                target = rng.randrange(self._n_units)
                bit = rng.randrange(word_width)
            else:
                target = rng.randrange(len(self._wire_names))
                width = self.engine.links.specs[target].width
                bit = rng.randrange(width)
            if kind is FaultKind.BURST:
                limit = word_width if domain is FaultDomain.STATE else width
                extent = min(rng.randrange(2, 6), limit - bit)
                extent = max(extent, 1)
            elif kind is FaultKind.STUCK_AT:
                extent = rng.randrange(2)  # the forced value
            else:
                extent = 1
            faults.append(
                PlannedFault(
                    index=i,
                    kind=kind,
                    domain=domain,
                    cycle=cycle,
                    target=target,
                    bit=bit,
                    extent=extent,
                )
            )
        return faults

    def sample_flap(self, cycle: int, index: int = 0) -> PlannedFault:
        """One livelock-inducing flap fault at a random router/port with
        a live neighbour."""
        rng = self.rng
        rc = self.engine.cfg.router
        while True:
            router = rng.randrange(self._n_units)
            port = rng.randrange(1, rc.n_ports)
            if self.engine._neighbor_cache[router][port] is not None:
                return PlannedFault(
                    index=index,
                    kind=FaultKind.FLAP,
                    domain=FaultDomain.LINK,
                    cycle=cycle,
                    target=router,
                    bit=port,
                    extent=1,
                )

    # -- application --------------------------------------------------------
    def apply(self, fault: PlannedFault) -> None:
        """Inject one planned fault into the engine, now."""
        engine = self.engine
        if fault.kind is FaultKind.FLAP:
            engine.install_flap_fault(fault.target, fault.bit)
            return
        if fault.kind is FaultKind.STUCK_AT:
            engine.links.set_stuck(fault.target, fault.bit, fault.extent)
            return
        mask = ((1 << fault.extent) - 1) << fault.bit
        if fault.domain is FaultDomain.STATE:
            engine.statemem.inject_fault(fault.target, mask)
        else:
            engine.links.inject_value_fault(fault.target, mask)

class FaultInjector:
    """Pre-step hook that fires each planned fault exactly once.

    "Exactly once" matters: after a rollback the engine *re-executes*
    the cycle the fault struck at, and a transient must not strike
    again — that re-execution running clean is precisely what rollback
    recovery exploits.
    """

    def __init__(self, model: FaultModel, faults: Sequence[PlannedFault]) -> None:
        self.model = model
        self.pending: List[PlannedFault] = sorted(faults, key=lambda f: f.cycle)
        self.fired: List[Tuple[int, PlannedFault]] = []  # (cycle fired, fault)

    def attach(self) -> "FaultInjector":
        # The injector itself is the hook (it is callable): engines that
        # support quiescence fast-forward probe hooks for
        # ``next_fire_cycle`` to bound how far they may skip.
        self.model.engine.pre_step_hooks.append(self)
        return self

    def detach(self) -> None:
        hooks = self.model.engine.pre_step_hooks
        for hook in (self, self._hook):
            if hook in hooks:
                hooks.remove(hook)

    def next_fire_cycle(self, engine) -> Optional[int]:
        """The cycle the next pending fault strikes (``None`` when done).

        Between strikes the hook is a pure no-op, so a fast-forwarding
        engine may skip any span of cycles that stops at (or before)
        this cycle — the strike then lands on exactly the right cycle.
        """
        return self.pending[0].cycle if self.pending else None

    def __call__(self, engine) -> None:
        self._hook(engine)

    def _hook(self, engine) -> None:
        while self.pending and self.pending[0].cycle <= engine.cycle:
            fault = self.pending.pop(0)
            self.model.apply(fault)
            self.fired.append((engine.cycle, fault))
