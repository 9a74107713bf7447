"""Bit-equivalence of the sequential simulator with the golden network.

This is the reproduction's analogue of the paper's central correctness
claim: the FPGA sequential simulator produces exactly the results of the
parallel design, "without compromising the cycle and bit level accuracy".
We drive the golden model and the sequential simulator(s) in lockstep on
identical traffic and compare every architectural bit every cycle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Network, NetworkConfig, RouterConfig
from repro.seqsim import SequentialNetwork, StaticSequentialNetwork

from tests.helpers import PacketDriver, be_packet, gt_packet


def lockstep(cfg, engines, schedule, cycles):
    """Run identical traffic through several engines, checking snapshots
    every cycle. ``schedule`` = list of (cycle, src, vc, packet)."""
    drivers = [PacketDriver(e) for e in engines]
    by_cycle = {}
    for cycle, vc, packet in schedule:
        by_cycle.setdefault(cycle, []).append((vc, packet))
    for t in range(cycles):
        for vc, packet in by_cycle.get(t, []):
            for driver in drivers:
                driver.send(packet, vc)
        for driver in drivers:
            driver.pump()
        for engine in engines:
            engine.step()
        reference = engines[0].snapshot()
        for engine in engines[1:]:
            assert engine.snapshot() == reference, (
                f"divergence at cycle {t} in {type(engine).__name__}"
            )
    for driver in drivers:
        driver.harvest()
    return drivers


def random_schedule(cfg, rng, n_packets, horizon):
    schedule = []
    for seq in range(n_packets):
        src = rng.randrange(cfg.n_routers)
        dest = rng.randrange(cfg.n_routers)
        nbytes = rng.choice([2, 10, 24])
        packet = be_packet(cfg, src, dest, nbytes=nbytes, seq=seq)
        schedule.append((rng.randrange(horizon), rng.choice([2, 3]), packet))
    return schedule


class TestDynamicEquivalence:
    def test_idle_network_equivalent(self):
        cfg = NetworkConfig(3, 3)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        for _ in range(5):
            golden.step()
            seq.step()
            assert seq.snapshot() == golden.snapshot()

    def test_single_packet_equivalent(self):
        cfg = NetworkConfig(4, 4)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        packet = be_packet(cfg, 0, cfg.index(3, 2))
        lockstep(cfg, [golden, seq], [(0, 2, packet)], cycles=40)
        assert [r.__dict__ for r in seq.ejections] == [
            r.__dict__ for r in golden.ejections
        ]
        assert [r.__dict__ for r in seq.injections] == [
            r.__dict__ for r in golden.injections
        ]

    def test_random_traffic_equivalent(self):
        cfg = NetworkConfig(4, 3, topology="torus")
        rng = random.Random(1234)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        schedule = random_schedule(cfg, rng, n_packets=25, horizon=60)
        lockstep(cfg, [golden, seq], schedule, cycles=150)
        assert len(seq.ejections) == len(golden.ejections) > 0

    def test_mesh_random_traffic_equivalent(self):
        cfg = NetworkConfig(3, 4, topology="mesh")
        rng = random.Random(99)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        schedule = random_schedule(cfg, rng, n_packets=20, horizon=50)
        lockstep(cfg, [golden, seq], schedule, cycles=120)

    def test_gt_traffic_equivalent(self):
        cfg = NetworkConfig(4, 4)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        schedule = [
            (0, 0, gt_packet(cfg, 0, cfg.index(2, 0), nbytes=32)),
            (0, 2, be_packet(cfg, 0, cfg.index(2, 0), nbytes=24)),
            (5, 1, gt_packet(cfg, cfg.index(1, 0), cfg.index(3, 0), nbytes=32)),
        ]
        lockstep(cfg, [golden, seq], schedule, cycles=120)

    def test_queue_depth_2_equivalent(self):
        cfg = NetworkConfig(3, 3, router=RouterConfig(queue_depth=2))
        rng = random.Random(7)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        schedule = random_schedule(cfg, rng, n_packets=15, horizon=40)
        lockstep(cfg, [golden, seq], schedule, cycles=120)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31))
    def test_equivalence_property(self, seed):
        cfg = NetworkConfig(3, 3)
        rng = random.Random(seed)
        golden, seq = Network(cfg), SequentialNetwork(cfg)
        schedule = random_schedule(cfg, rng, n_packets=10, horizon=30)
        lockstep(cfg, [golden, seq], schedule, cycles=60)


class TestPackedEquivalence:
    """packed=True routes every unit evaluation through the 1912-bit
    memory words — the bit-accuracy claim exercised end to end."""

    def test_packed_random_traffic(self):
        cfg = NetworkConfig(3, 3)
        rng = random.Random(5150)
        golden = Network(cfg)
        packed = SequentialNetwork(cfg, packed=True)
        schedule = random_schedule(cfg, rng, n_packets=10, horizon=30)
        lockstep(cfg, [golden, packed], schedule, cycles=80)
        assert packed.statemem.swaps == 80
        assert packed.statemem.reads > 0

    def test_packed_bank_alternates(self):
        cfg = NetworkConfig(2, 2)
        packed = SequentialNetwork(cfg, packed=True)
        banks = []
        for _ in range(4):
            banks.append(packed.statemem.current_bank)
            packed.step()
        assert banks == [0, 1, 0, 1]


class TestStaticScheduleEquivalence:
    def test_static_matches_golden(self):
        cfg = NetworkConfig(3, 3)
        rng = random.Random(31337)
        golden, static = Network(cfg), StaticSequentialNetwork(cfg)
        schedule = random_schedule(cfg, rng, n_packets=15, horizon=40)
        lockstep(cfg, [golden, static], schedule, cycles=100)

    def test_static_delta_count_is_3n(self):
        cfg = NetworkConfig(3, 3)
        static = StaticSequentialNetwork(cfg)
        static.run(10)
        assert static.metrics.per_cycle == [27] * 10


class TestDeltaAccounting:
    def test_idle_cycle_minimum_deltas(self):
        """With no traffic and settled wires, every unit is evaluated
        exactly once: the section 6 minimum."""
        cfg = NetworkConfig(4, 4)
        seq = SequentialNetwork(cfg)
        seq.run(5)
        # Cycle 0 may include re-evaluations while the reset wire values
        # settle; afterwards the count must sit at the floor.
        assert seq.metrics.per_cycle[1:] == [16] * 4

    def test_eastward_traffic_needs_no_reevaluation(self):
        """Scheduler luck: a packet moving in ascending router-index
        direction has all its forward wires written before their readers
        are evaluated, so the HBR bits never force a re-evaluation."""
        cfg = NetworkConfig(4, 4, topology="mesh")
        seq = SequentialNetwork(cfg)
        driver = PacketDriver(seq)
        driver.send(be_packet(cfg, cfg.index(0, 0), cfg.index(3, 0), nbytes=24), vc=2)
        driver.run_until_drained()
        assert seq.metrics.extra_deltas == 0

    def test_westward_traffic_causes_extra_deltas(self):
        """A packet moving against the scheduler's scan order is read
        stale first, so its readers must be re-evaluated (paper section 6:
        extra delta cycles grow with offered load)."""
        cfg = NetworkConfig(4, 4, topology="mesh")
        seq = SequentialNetwork(cfg)
        driver = PacketDriver(seq)
        driver.send(be_packet(cfg, cfg.index(3, 0), cfg.index(0, 0), nbytes=24), vc=2)
        driver.run_until_drained()
        assert seq.metrics.extra_deltas > 0
        assert seq.metrics.extra_fraction() < 2.0  # bounded re-evaluation

    def test_convergence_within_three_sweeps(self):
        """The NoC's wire dependencies are acyclic (state->room->fwd), so
        no cycle may need more than ~3 evaluations per unit."""
        cfg = NetworkConfig(3, 3)
        seq = SequentialNetwork(cfg)
        driver = PacketDriver(seq)
        for seq_no in range(8):
            driver.send(be_packet(cfg, seq_no % 9, (seq_no * 2 + 3) % 9, seq=seq_no), vc=2)
        driver.run_until_drained()
        assert max(seq.metrics.per_cycle) <= 3 * cfg.n_routers

    def test_deliveries_match_golden_counts(self):
        cfg = NetworkConfig(4, 4)
        seq = SequentialNetwork(cfg)
        driver = PacketDriver(seq)
        for s in range(6):
            driver.send(be_packet(cfg, s, (s + 5) % 16, seq=s), vc=2)
        driver.run_until_drained()
        assert len(driver.delivered) == 6


VARIANTS = {
    "plain": lambda cfg: SequentialNetwork(cfg),
    "roundrobin": lambda cfg: SequentialNetwork(cfg, scheduler="roundrobin"),
    "packed": lambda cfg: SequentialNetwork(cfg, packed=True),
}


def fig1_run(variant):
    """300 cycles of load-0.08 uniform BE traffic on the Fig. 1 network."""
    from repro.experiments.common import fig1_network
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    cfg = fig1_network()
    net = VARIANTS[variant](cfg)
    driver = TrafficDriver(
        net, be=BernoulliBeTraffic(cfg, 0.08, uniform_random(cfg), seed=0xBEE)
    )
    for cycle in range(300):
        driver.generate(cycle)
        driver.pump()
        net.step()
    return (
        net.links.wire_writes,
        net.links.value_changes,
        tuple(net.metrics.per_cycle),
        net.snapshot(),
    )


class TestLinkTrafficCounters:
    """Every scheduler and state-memory variant produces the plain
    model's link-memory traffic counters, per-cycle delta counts and
    state, and the plain model's counters are pinned."""

    @pytest.fixture(scope="class")
    def plain(self):
        return fig1_run("plain")

    @pytest.mark.parametrize("variant", ["roundrobin", "packed"])
    def test_counters_equal_the_fast_path(self, plain, variant):
        assert (plain[0], plain[1], sum(plain[2])) == (107416, 5497, 13427)
        assert fig1_run(variant) == plain
