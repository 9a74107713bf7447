"""The worklist scheduler's order-equivalence invariant.

:class:`WorklistScheduler` claims to emit the *exact* pick sequence of
the literal round-robin scan (:class:`RoundRobinScheduler`) from any
reachable link-memory state — the property that makes it a pure
constant-factor optimisation, with bit-identical simulations, identical
delta counts and identical :class:`DeltaMetrics`.  This module checks
that claim three ways:

1. a hypothesis property test driving both schedulers through random
   destabilisation patterns on a mask-level link-memory double;
2. lockstep simulation equivalence against the reference scheduler and
   the unoptimised evaluation path on a 4x4 torus and a heterogeneous
   (per-router queue depth) configuration;
3. the same lockstep with wire faults injected mid-run — transients and
   a stuck bit — which forces the non-inlined evaluation path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import NetworkConfig, RouterConfig
from repro.seqsim import SequentialNetwork
from repro.seqsim.scheduler import (
    RoundRobinScheduler,
    SCHEDULERS,
    WorklistScheduler,
    make_scheduler,
)
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random


class MaskLinks:
    """Mask-level double of LinkMemory's scheduling interface.

    Exposes exactly what the schedulers consume — ``n_units``,
    ``unstable_mask`` and ``is_stable`` — with the same semantics the
    real link memory maintains (bit set <=> unit non-stable).
    """

    def __init__(self, n_units: int, mask: int = 0) -> None:
        self.n_units = n_units
        self.unstable_mask = mask

    def is_stable(self, unit: int) -> bool:
        return not (self.unstable_mask >> unit) & 1

    def destabilize(self, units) -> None:
        for unit in units:
            self.unstable_mask |= 1 << unit

    def settle(self, unit: int) -> None:
        self.unstable_mask &= ~(1 << unit)


@st.composite
def scheduler_scripts(draw):
    """(n_units, initial mask, per-step destabilisation sets)."""
    n = draw(st.integers(min_value=1, max_value=64))
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    steps = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4),
            max_size=40,
        )
    )
    return n, mask, steps


class TestOrderEquivalence:
    @given(scheduler_scripts())
    @settings(max_examples=200, deadline=None)
    def test_identical_pick_sequences(self, script):
        """Both schedulers pick the same unit at every step of any
        destabilise/settle interleaving (the delta-cycle loop's shape:
        each pick is followed by the picked unit settling and a write
        possibly destabilising others)."""
        n, mask, steps = script
        rr_links = MaskLinks(n, mask)
        wl_links = MaskLinks(n, mask)
        rr = RoundRobinScheduler(n)
        wl = WorklistScheduler(n)
        picks_rr, picks_wl = [], []
        for wake in steps:
            a = rr.next_unit(rr_links)
            b = wl.next_unit(wl_links)
            assert a == b
            assert rr.pointer == wl.pointer or a is None
            picks_rr.append(a)
            picks_wl.append(b)
            if a is not None:
                rr_links.settle(a)
                wl_links.settle(a)
            rr_links.destabilize(wake)
            wl_links.destabilize(wake)
        # Drain: with no further destabilisation both must converge
        # through the identical tail.
        while True:
            a = rr.next_unit(rr_links)
            b = wl.next_unit(wl_links)
            assert a == b
            if a is None:
                break
            rr_links.settle(a)
            wl_links.settle(b)

    def test_registry(self):
        assert set(SCHEDULERS) == {"roundrobin", "worklist"}
        assert isinstance(make_scheduler("worklist", 4), WorklistScheduler)
        assert isinstance(make_scheduler("roundrobin", 4), RoundRobinScheduler)
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lifo", 4)


def lockstep_nets(cfg, nets, load, seed, cycles, fault_plan=()):
    """Drive identical traffic through all nets, asserting equal
    snapshots and per-cycle delta counts every cycle.  ``fault_plan`` is
    ``(cycle, fn)`` pairs; ``fn(net)`` applies the same fault to each."""
    drivers = [
        TrafficDriver(
            net, be=BernoulliBeTraffic(cfg, load, uniform_random(cfg), seed=seed)
        )
        for net in nets
    ]
    plan = dict()
    for cycle, fn in fault_plan:
        plan.setdefault(cycle, []).append(fn)
    for t in range(cycles):
        for fn in plan.get(t, []):
            for net in nets:
                fn(net)
        for driver in drivers:
            driver.step()
        reference = nets[0].snapshot()
        ref_deltas = nets[0].metrics.per_cycle[-1]
        for net in nets[1:]:
            assert net.snapshot() == reference, f"state divergence at cycle {t}"
            assert net.metrics.per_cycle[-1] == ref_deltas, (
                f"delta-count divergence at cycle {t}"
            )
    assert len({net.metrics.total_deltas for net in nets}) == 1


class TestSimulationEquivalence:
    def test_4x4_torus_vs_reference(self):
        """Worklist (plain and packed) against the literal round-robin
        scan (plain and packed): bit-identical states and delta counts on
        every cycle."""
        cfg = NetworkConfig(4, 4, topology="torus")
        nets = [
            SequentialNetwork(cfg, scheduler="roundrobin"),
            SequentialNetwork(cfg, packed=True, scheduler="roundrobin"),
            SequentialNetwork(cfg, scheduler="worklist"),
            SequentialNetwork(cfg, packed=True, scheduler="worklist"),
        ]
        lockstep_nets(cfg, nets, load=0.12, seed=0x5C4E, cycles=120)

    def test_heterogeneous_config(self):
        """Per-router queue-depth overrides (section 7.1) through the
        same scheduler/packing matrix."""
        cfg = NetworkConfig(
            3,
            3,
            topology="mesh",
            router_overrides=(
                (2, RouterConfig(queue_depth=8)),
                (5, RouterConfig(queue_depth=2)),
            ),
        )
        nets = [
            SequentialNetwork(cfg, scheduler="roundrobin"),
            SequentialNetwork(cfg, scheduler="worklist"),
            SequentialNetwork(cfg, packed=True, scheduler="worklist"),
        ]
        lockstep_nets(cfg, nets, load=0.15, seed=0x4E7, cycles=100)

    def test_equivalence_under_wire_faults(self):
        """Transient and stuck wire faults applied identically to every
        net: the worklist scan, plain and packed, stays bit-identical to
        the round-robin scan through transient and stuck wire values."""
        cfg = NetworkConfig(4, 4, topology="torus")
        nets = [
            SequentialNetwork(cfg, scheduler="roundrobin"),
            SequentialNetwork(cfg, scheduler="worklist"),
            SequentialNetwork(cfg, packed=True, scheduler="worklist"),
        ]

        def transient(net):
            net.links.inject_value_fault(7, 0b1011)

        def transient2(net):
            net.links.inject_value_fault(23, 0x3F)

        def stuck(net):
            net.links.set_stuck(11, bit=2, value=1)

        lockstep_nets(
            cfg,
            nets,
            load=0.12,
            seed=0xFA17,
            cycles=90,
            fault_plan=[(25, transient), (40, stuck), (60, transient2)],
        )
        # The stuck wire stays installed: the whole tail ran under it.
        assert all(net.links.stuck for net in nets)
