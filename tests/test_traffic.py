"""Tests for traffic generation: RNG, patterns, generators, the driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import CycleEngine
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.packet import PacketClass, flits_per_packet
from repro.traffic import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    HardwareLfsr,
    NetworkOverloadError,
    SoftwareRand,
    TrafficDriver,
    bit_complement,
    hotspot,
    neighbor_shift,
    transpose,
    uniform_random,
)
from repro.traffic.generators import reserve_shift_streams


class TestHardwareLfsr:
    def test_deterministic(self):
        a, b = HardwareLfsr(42), HardwareLfsr(42)
        assert [a.next_u32() for _ in range(10)] == [b.next_u32() for _ in range(10)]

    def test_nonzero_forever(self):
        rng = HardwareLfsr(1)
        assert all(rng.next_u32() != 0 for _ in range(1000))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            HardwareLfsr(0)
        with pytest.raises(ValueError):
            HardwareLfsr(2**32)

    def test_next_below_in_range(self):
        rng = HardwareLfsr(7)
        values = [rng.next_below(13) for _ in range(500)]
        assert all(0 <= v < 13 for v in values)
        assert len(set(values)) == 13  # covers the range

    def test_bernoulli_rates(self):
        rng = HardwareLfsr(99)
        hits = sum(rng.bernoulli(0.25) for _ in range(4000))
        assert 800 <= hits <= 1200  # ~1000 expected

    def test_bernoulli_extremes(self):
        rng = HardwareLfsr(3)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))

    def test_reasonable_bit_balance(self):
        rng = HardwareLfsr(0xABCDEF)
        ones = sum(bin(rng.next_u32()).count("1") for _ in range(200))
        assert 2800 <= ones <= 3600  # ~3200 of 6400 bits

    def test_words_read_counter(self):
        rng = HardwareLfsr()
        rng.next_u32()
        rng.next_u32()
        assert rng.words_read == 2


class TestSoftwareRand:
    def test_matches_lcg_recurrence(self):
        rng = SoftwareRand(1)
        assert rng.rand() == (1 * 1103515245 + 12345) & 0x7FFFFFFF

    def test_call_counter_measures_cost(self):
        rng = SoftwareRand()
        rng.next_u32()
        assert rng.calls == 2  # two rand() calls per 32-bit word

    def test_next_below(self):
        rng = SoftwareRand(5)
        assert all(0 <= rng.next_below(10) < 10 for _ in range(100))


class TestPatterns:
    def setup_method(self):
        self.net = NetworkConfig(4, 4)
        self.rng = HardwareLfsr(11)

    def test_uniform_never_self(self):
        pattern = uniform_random(self.net)
        for src in range(16):
            for _ in range(50):
                assert pattern(src, self.rng) != src

    def test_transpose(self):
        pattern = transpose(self.net)
        assert pattern(self.net.index(1, 3), None) == self.net.index(3, 1)
        diag = self.net.index(2, 2)
        assert pattern(diag, None) != diag

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            transpose(NetworkConfig(4, 2))

    def test_bit_complement(self):
        pattern = bit_complement(self.net)
        assert pattern(self.net.index(0, 0), None) == self.net.index(3, 3)

    def test_hotspot_concentrates(self):
        pattern = hotspot(self.net, target=5, fraction=0.9)
        hits = sum(pattern(0, self.rng) == 5 for _ in range(300))
        assert hits > 200

    def test_neighbor_shift_wraps(self):
        pattern = neighbor_shift(self.net, dx=1)
        assert pattern(self.net.index(3, 0), None) == self.net.index(0, 0)


class TestGenerators:
    def setup_method(self):
        self.net = NetworkConfig(4, 4)

    def test_be_load_calibration(self):
        """Offered flits/cycle/node approximates the requested load."""
        load = 0.1
        traffic = BernoulliBeTraffic(self.net, load, uniform_random(self.net))
        cycles = 4000
        flits = sum(
            flits_per_packet(10) * len(traffic.packets_for_cycle(t))
            for t in range(cycles)
        )
        measured = flits / (cycles * self.net.n_routers)
        assert measured == pytest.approx(load, rel=0.15)

    def test_zero_load_generates_nothing(self):
        traffic = BernoulliBeTraffic(self.net, 0.0, uniform_random(self.net))
        assert all(not traffic.packets_for_cycle(t) for t in range(100))

    def test_load_bounds(self):
        with pytest.raises(ValueError):
            BernoulliBeTraffic(self.net, 1.5, uniform_random(self.net))

    def test_gt_streams_periodic(self):
        table = reserve_shift_streams(self.net, dx=1)
        traffic = GtStreamTraffic(self.net, table.streams, period=200, payload_bytes=16)
        emitted = [len(traffic.packets_for_cycle(t)) for t in range(400)]
        assert sum(emitted) == 2 * len(table.streams)

    def test_gt_packets_carry_reserved_vc(self):
        table = reserve_shift_streams(self.net, dx=1)
        traffic = GtStreamTraffic(self.net, table.streams, period=50, payload_bytes=4)
        seen = [vc for t in range(50) for _, vc in traffic.packets_for_cycle(t)]
        assert seen and all(vc in self.net.router.gt_vcs for vc in seen)

    def test_gt_load_per_stream(self):
        traffic = GtStreamTraffic(self.net, [], period=1000)
        assert traffic.load_per_stream == pytest.approx(130 / 1000)


class TestTrafficDriver:
    def test_low_load_delivers_everything(self):
        net = NetworkConfig(3, 3)
        engine = CycleEngine(net)
        be = BernoulliBeTraffic(net, 0.05, uniform_random(net), seed=21)
        driver = TrafficDriver(engine, be=be)
        driver.run(300)
        driver.be = None  # stop generating
        driver.drain()
        assert len(engine.injections) == len(engine.ejections)
        assert driver.flits_generated == len(engine.injections)

    def test_gt_and_be_combined(self):
        net = NetworkConfig(3, 3)
        engine = CycleEngine(net)
        table = reserve_shift_streams(net, dx=1)
        gt = GtStreamTraffic(net, table.streams, period=150, payload_bytes=32)
        be = BernoulliBeTraffic(net, 0.04, uniform_random(net), seed=5)
        driver = TrafficDriver(engine, be=be, gt=gt)
        driver.run(300)
        driver.be = None
        driver.gt = None
        driver.drain()
        gt_vcs = net.router.gt_vcs
        assert any(record.vc in gt_vcs for record in engine.ejections)
        assert any(record.vc not in gt_vcs for record in engine.ejections)

    def test_overload_detection(self):
        """Saturating a tiny network trips the paper's overload stop."""
        net = NetworkConfig(2, 2, router=RouterConfig(queue_depth=1))
        engine = CycleEngine(net)
        be = BernoulliBeTraffic(net, 1.0, hotspot(net, target=0, fraction=1.0), seed=9)
        driver = TrafficDriver(engine, be=be, stall_limit=50)
        with pytest.raises(NetworkOverloadError):
            driver.run(3000)
        assert driver.overloaded

    def test_deterministic_across_engines(self):
        from repro.engines import SequentialEngine

        net = NetworkConfig(3, 3)
        logs = []
        for engine_cls in (CycleEngine, SequentialEngine):
            engine = engine_cls(net)
            be = BernoulliBeTraffic(net, 0.06, uniform_random(net), seed=77)
            driver = TrafficDriver(engine, be=be)
            driver.run(150)
            logs.append([r.__dict__ for r in engine.injections])
        assert logs[0] == logs[1]
