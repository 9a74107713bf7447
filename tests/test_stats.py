"""Tests for the statistics package: latency tracking, throughput,
histograms, and the GT guarantee bound."""

import pytest

from repro.engines import CycleEngine
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.packet import PacketClass
from repro.stats import (
    Histogram,
    PacketLatencyTracker,
    ThroughputStats,
    gt_guarantee_bound,
)
from repro.traffic import BernoulliBeTraffic, GtStreamTraffic, TrafficDriver, uniform_random
from repro.traffic.generators import reserve_shift_streams


def run_session(net, be_load=0.05, gt_period=None, cycles=300, seed=3):
    engine = CycleEngine(net)
    gt = None
    if gt_period:
        table = reserve_shift_streams(net, dx=1)
        gt = GtStreamTraffic(net, table.streams, period=gt_period, payload_bytes=32)
    be = BernoulliBeTraffic(net, be_load, uniform_random(net), seed=seed)
    driver = TrafficDriver(engine, be=be, gt=gt)
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    driver.run(cycles)
    driver.be = None
    driver.gt = None
    driver.drain()
    tracker.collect(engine)
    return engine, driver, tracker


class TestLatencyTracker:
    def test_every_delivered_packet_sampled(self):
        net = NetworkConfig(3, 3)
        engine, driver, tracker = run_session(net)
        assert tracker.delivered() == len(driver.submits)

    def test_sample_fields_consistent(self):
        net = NetworkConfig(3, 3)
        _engine, _driver, tracker = run_session(net)
        for sample in tracker.samples:
            assert sample.total_latency > 0
            assert sample.network_latency is not None
            assert sample.network_latency <= sample.total_latency
            assert sample.head_eject_cycle <= sample.tail_eject_cycle
            assert 0 <= sample.hops <= 4

    def test_latency_lower_bound(self):
        """total >= 2*(hops+1) + (flits-1): the idle-network pipeline."""
        net = NetworkConfig(3, 3)
        _engine, _driver, tracker = run_session(net, be_load=0.01, cycles=500)
        for sample in tracker.samples:
            assert sample.total_latency >= 2 * (sample.hops + 1) + 6

    def test_class_separation(self):
        net = NetworkConfig(3, 3)
        _engine, _driver, tracker = run_session(net, gt_period=120)
        gt = tracker.stats(PacketClass.GT)
        be = tracker.stats(PacketClass.BE)
        assert gt is not None and be is not None
        assert gt.count + be.count == tracker.delivered()
        # GT packets are longer (18 flits vs 7): higher latency.
        assert gt.mean > be.mean

    def test_stats_shape(self):
        net = NetworkConfig(3, 3)
        _engine, _driver, tracker = run_session(net)
        stats = tracker.stats()
        assert stats.minimum <= stats.p50 <= stats.p99 <= stats.maximum
        assert stats.minimum <= stats.mean <= stats.maximum

    def test_empty_stats_is_none(self):
        net = NetworkConfig(3, 3)
        tracker = PacketLatencyTracker(net)
        assert tracker.stats() is None


class TestThroughput:
    def test_conservation(self):
        net = NetworkConfig(3, 3)
        engine, driver, _tracker = run_session(net)
        stats = ThroughputStats.from_engine(engine)
        assert stats.flits_injected == stats.flits_ejected
        assert stats.in_flight == 0
        assert 0 < stats.accepted_load < 0.2

    def test_empty_engine(self):
        net = NetworkConfig(2, 2)
        engine = CycleEngine(net)
        assert ThroughputStats.from_engine(engine).accepted_load == 0.0


class TestGuaranteeBound:
    def test_paper_scale_value(self):
        """256-byte GT packet, 4 VCs: the bound lands in the ~550-cycle
        region of Figure 1's guarantee line."""
        cfg = RouterConfig()
        bound = gt_guarantee_bound(cfg, payload_bytes=256, hops=3)
        assert 500 <= bound <= 600

    def test_monotonic_in_hops_and_size(self):
        cfg = RouterConfig()
        assert gt_guarantee_bound(cfg, 256, 4) > gt_guarantee_bound(cfg, 256, 2)
        assert gt_guarantee_bound(cfg, 256, 2) > gt_guarantee_bound(cfg, 64, 2)

    def test_gt_latency_below_guarantee_light_load(self):
        """The Fig. 1 property: measured GT max stays below the bound."""
        net = NetworkConfig(3, 3)
        _engine, _driver, tracker = run_session(net, be_load=0.05, gt_period=100, cycles=600)
        gt_stats = tracker.stats(PacketClass.GT)
        assert gt_stats is not None
        worst_bound = max(
            gt_guarantee_bound(net.router, 32, s.hops)
            for s in tracker.samples
            if s.pclass is PacketClass.GT
        )
        assert gt_stats.maximum <= worst_bound


class TestHistogram:
    def test_binning(self):
        h = Histogram(bin_width=10)
        h.extend([0, 5, 9, 10, 25])
        assert h.bins() == ((0, 10, 3), (10, 20, 1), (20, 30, 1))
        assert h.total == 5

    def test_percentile(self):
        h = Histogram(bin_width=1)
        h.extend(range(100))
        assert h.percentile(50) == pytest.approx(50, abs=2)

    def test_render(self):
        h = Histogram(bin_width=10)
        h.extend([1, 2, 3, 15])
        text = h.render()
        assert "#" in text and "[" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(0)
        h = Histogram()
        with pytest.raises(ValueError):
            h.add(-1)
        with pytest.raises(ValueError):
            h.percentile(50)
