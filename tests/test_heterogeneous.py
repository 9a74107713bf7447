"""Heterogeneous networks (paper section 7.1): per-position router
functionality, here as per-router queue depths."""

import random

import pytest

from repro.engines import CycleEngine, RtlEngine, SequentialEngine, run_lockstep
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.layout import table1
from repro.seqsim.sequential import SequentialNetwork

from tests.helpers import PacketDriver, be_packet
from tests.test_rtl_engine import traffic_from_packets


def hetero_net(width=3, height=3):
    """Deep queues at the center (a hotspot buffer), shallow elsewhere."""
    base = RouterConfig(queue_depth=2)
    deep = RouterConfig(queue_depth=8)
    center = (width * height) // 2
    return NetworkConfig(
        width, height, router=base, router_overrides=((center, deep),)
    )


class TestConfigValidation:
    def test_router_at(self):
        cfg = hetero_net()
        assert cfg.router_at(4).queue_depth == 8
        assert cfg.router_at(0).queue_depth == 2
        assert cfg.is_heterogeneous

    def test_wire_format_must_match(self):
        with pytest.raises(ValueError, match="wire formats"):
            NetworkConfig(
                3, 3,
                router=RouterConfig(),
                router_overrides=((0, RouterConfig(data_width=14)),),
            )
        with pytest.raises(ValueError, match="wire formats"):
            NetworkConfig(
                3, 3,
                router=RouterConfig(),
                router_overrides=((0, RouterConfig(gt_vcs=frozenset({0}))),),
            )

    def test_override_index_range(self):
        with pytest.raises(ValueError, match="out of range"):
            NetworkConfig(2, 2, router_overrides=((9, RouterConfig()),))

    def test_homogeneous_flag(self):
        assert not NetworkConfig(2, 2).is_heterogeneous


class TestHeterogeneousBehavior:
    def test_delivery_through_mixed_depths(self):
        cfg = hetero_net()
        engine = CycleEngine(cfg)
        driver = PacketDriver(engine)
        for seq in range(10):
            driver.send(be_packet(cfg, seq % 9, (seq * 4 + 2) % 9, nbytes=20, seq=seq), vc=2)
        driver.run_until_drained()
        assert len(driver.delivered) == 10

    def test_state_words_differ_per_router(self):
        cfg = hetero_net()
        shallow = table1(cfg.router_at(0))["Total"]
        deep = table1(cfg.router_at(4))["Total"]
        assert deep > shallow

    def test_deep_center_buffers_more(self):
        cfg = hetero_net()
        engine = CycleEngine(cfg)
        driver = PacketDriver(engine)
        # Two long flows merge at the center, competing for its SOUTH
        # output (X-first routing): one comes straight down the column,
        # one turns at the center. The loser queues in the deep buffers.
        for seq in range(3):
            driver.send(be_packet(cfg, cfg.index(1, 0), cfg.index(1, 2), nbytes=30, seq=seq), vc=2)
            driver.send(be_packet(cfg, cfg.index(0, 1), cfg.index(1, 2), nbytes=30, seq=seq + 10), vc=2)
        peak = 0
        for _ in range(40):
            driver.pump()
            engine.step()
            peak = max(peak, engine.states[4].total_buffered())
        # The 8-deep center queues actually fill beyond a 2-deep router's
        # capacity on the traversed VC path.
        assert peak > 4
        driver.run_until_drained()

    def test_three_engine_equivalence_heterogeneous(self):
        cfg = hetero_net(3, 2)
        rng = random.Random(2026)
        sends = [
            (
                rng.randrange(12),
                rng.choice([2, 3]),
                be_packet(cfg, rng.randrange(6), rng.randrange(6), nbytes=10, seq=s),
            )
            for s in range(6)
        ]
        engines = [CycleEngine(cfg), SequentialEngine(cfg), RtlEngine(cfg)]
        report = run_lockstep(engines, cycles=60, traffic=traffic_from_packets(cfg, sends))
        assert report, f"{report.diverged_engine}: {report.detail}"

    def test_packed_mode_heterogeneous(self):
        """The packed state memory pads to the widest unit word."""
        cfg = hetero_net(3, 2)
        golden = CycleEngine(cfg)
        packed = SequentialNetwork(cfg, packed=True)
        rng = random.Random(5)
        sends = [
            (
                rng.randrange(10),
                2,
                be_packet(cfg, rng.randrange(6), rng.randrange(6), nbytes=8, seq=s),
            )
            for s in range(4)
        ]
        report = run_lockstep(
            [golden, packed], cycles=50, traffic=traffic_from_packets(cfg, sends)
        )
        assert report, report.detail
        # Word width is governed by the deep router (the override sits
        # at the centre index of the 3x2 grid).
        deep_core = table1(cfg.router_at(3))["Total"] - 200 - 180
        assert packed.statemem.width == deep_core + 180
