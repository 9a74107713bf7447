"""Tests for the experiment runners: each paper artifact's shape claims
at small budgets (``python -m repro.experiments`` regenerates the full
artifacts)."""

import pytest

from repro.engines import SequentialEngine
from repro.engines.sequential import StaticScheduleEngine
from repro.experiments import deltas, fig1, fig5, patterns, table1, table2, table3, table4
from repro.experiments.common import fig1_gt_streams, fig1_network, render_table
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.layout import table1 as table1_bits
from repro.noc.packet import PacketClass
from repro.stats import PacketLatencyTracker
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random


class TestCommon:
    def test_fig1_network_matches_caption(self):
        net = fig1_network()
        assert (net.width, net.height) == (6, 6)
        assert net.topology == "torus"
        assert net.router.queue_depth == 2

    def test_fig1_gt_streams_feasible(self):
        net = fig1_network()
        table = fig1_gt_streams(net)
        assert len(table.streams) == 36
        assert table.max_link_sharing() == 2  # two streams per east link

    def test_render_table(self):
        text = render_table(["a", "b"], [(1, 2.5), (10, 0.1)], title="t")
        assert "t" in text and "2.5" in text and "10" in text


class TestTable1:
    def test_exact(self):
        result = table1.run()
        assert result.exact()
        assert "2112" in result.render()


class TestTable2:
    def test_exact(self):
        result = table2.run()
        assert result.exact()
        assert 20 <= result.direct.max_routers <= 28


class TestFig5:
    def test_schedules(self):
        result = fig5.run(cycles=3)
        assert result.static_deltas == [3, 3, 3]
        assert all(d >= 3 for d in result.dynamic_deltas)
        assert sum(d > 3 for d in result.dynamic_deltas) >= 1  # re-evaluations
        assert "F1" in result.render()


class TestFig1Small:
    def test_single_point_shape(self):
        result = fig1.run(loads=(0.0, 0.08), cycles=1200)
        assert result.gt_above_be()
        assert result.gt_max_below_guarantee()
        point = result.points[1]
        assert point.gt_packets > 0 and point.be_packets > 0
        assert "Figure 1" in result.render()

    def test_gt_latency_grows(self):
        result = fig1.run(loads=(0.0, 0.12), cycles=1500)
        assert result.gt_latency_increases()
        # GT max grows with load but stays clearly under the bound at idle
        first, last = result.points[0], result.points[-1]
        assert first.gt_max < first.guarantee * 0.8
        assert last.gt_max > first.gt_max


class TestTable3Small:
    def test_hierarchy_and_model(self):
        result = table3.run(base_cycles=120)
        assert result.hierarchy_holds()
        # the platform model against the published 22 kHz / 61.6 kHz
        assert result.modeled_avg_cps == pytest.approx(22_000, rel=0.2)
        assert result.modeled_fast_cps == pytest.approx(61_600, rel=0.2)
        assert result.ceiling_cps == pytest.approx(91_666.7, rel=1e-3)
        lo, hi = result.speedup_vs_systemc
        assert 80 <= lo <= hi <= 300
        assert "Table 3" in result.render()


class TestTable4Small:
    def test_profile_envelope(self):
        result = table4.run(cycles=240)
        assert result.within_paper_ranges()
        envelope = result.envelope()
        # section 6: "the majority of the time is spent in the generation
        # of the data"; the simulation itself is almost free
        assert envelope["generate"][0] == max(lo for lo, _ in envelope.values())
        assert envelope["simulate"][1] <= 3.0
        assert "Generate stimuli" in result.render()


class TestDeltasSmall:
    def test_band_and_linearity(self):
        result = deltas.run(loads=(0.04, 0.08, 0.14), cycles=900)
        assert result.in_band()
        assert result.linear_in_load()
        # the shallow-queue sensitivity result: depth 2 costs more deltas
        r2 = [p.ratio_to_load for p in result.points if p.queue_depth == 2]
        r4 = [p.ratio_to_load for p in result.points if p.queue_depth == 4]
        assert min(r2) > max(r4)


class TestPatternsSmall:
    def test_canonical_orderings(self):
        # abstract: "a large variety of traffic patterns"
        result = patterns.run(cycles=1200)
        assert result.bit_complement_max_distance()
        assert result.hotspot_costs_latency()
        assert result.hotspot_concentrates()


class TestBufferDepthSweep:
    """Section 3's motivating study: Fig. 1 at other queue depths."""

    @staticmethod
    def run_depth(depth, cycles=1200):
        net = NetworkConfig(6, 6, router=RouterConfig(queue_depth=depth))
        engine = SequentialEngine(net)
        be = BernoulliBeTraffic(net, 0.10, uniform_random(net), seed=0xFEED)
        driver = TrafficDriver(engine, be=be)
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)
        driver.run(cycles)
        driver.be = None
        driver.drain()
        tracker.collect(engine)
        bits = table1_bits(net.router)["Input queues"]
        return tracker.stats(PacketClass.BE).mean, bits, engine.metrics.extra_fraction()

    def test_depth_trades_buffer_bits_for_latency_and_deltas(self):
        mean, bits, extra = zip(*(self.run_depth(depth) for depth in (1, 2, 4)))
        assert bits == (360, 720, 1440)  # buffer bits scale with depth
        assert mean[0] >= mean[1] >= mean[2] * 0.9  # depth 1 is the worst
        assert extra[0] > extra[2]  # shallow queues re-evaluate more


class TestScheduleAblation:
    """Section 4: the static schedule costs 3R deltas a cycle; the
    dynamic HBR scheme approaches the R floor at Fig. 1 loads."""

    @staticmethod
    def run_schedule(engine_cls, cycles=300):
        net = fig1_network()
        engine = engine_cls(net)
        be = BernoulliBeTraffic(net, 0.08, uniform_random(net), seed=0xAB1E)
        TrafficDriver(engine, be=be).run(cycles)
        return engine

    def test_static_sweeps_cost_108_deltas_against_the_dynamic_floor(self):
        dynamic = self.run_schedule(SequentialEngine)
        static = self.run_schedule(StaticScheduleEngine)
        assert dynamic.snapshot() == static.snapshot()  # same results
        assert static.metrics.mean_deltas_per_cycle() == 108  # 3 x 36
        assert dynamic.metrics.mean_deltas_per_cycle() < 36 * 1.6
        assert static.metrics.total_deltas / dynamic.metrics.total_deltas > 1.8


class TestCli:
    def test_main_runs_cheap_experiments(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "table1", "table2", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["prog", "nope"]) == 2
