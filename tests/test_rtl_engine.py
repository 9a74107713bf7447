"""Three-way engine equivalence: event-driven RTL vs cycle-based vs
FPGA-sequential — the reproduction's strongest correctness statement."""

import random

import pytest

from repro.engines import CycleEngine, RtlEngine, SequentialEngine, run_lockstep
from repro.engines.base import list_engines, make_engine
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.flit import Flit
from repro.noc.packet import segment

from tests.helpers import be_packet, gt_packet


def traffic_from_packets(cfg, sends):
    """Build a traffic callback from [(cycle, vc, packet)].

    Flits of a packet are offered in consecutive cycles (one injection
    register load per cycle), starting at the scheduled cycle.
    """
    offers = {}
    for start, vc, packet in sends:
        for i, flit in enumerate(segment(packet, cfg)):
            offers.setdefault(start + i, []).append((packet.src, vc, flit))
    return lambda t: offers.get(t, [])


class TestRtlEngineAlone:
    def test_idle_snapshot_matches_cycle_engine(self):
        cfg = NetworkConfig(2, 2)
        rtl, cyc = RtlEngine(cfg), CycleEngine(cfg)
        for _ in range(3):
            rtl.step()
            cyc.step()
        assert rtl.snapshot() == cyc.snapshot()

    def test_offer_and_pending(self):
        cfg = NetworkConfig(2, 2)
        rtl = RtlEngine(cfg)
        flit = Flit.decode(0x2_0001)
        assert rtl.offer(0, 2, flit)
        assert not rtl.offer(0, 2, flit)
        assert rtl.injection_pending(0, 2)

    def test_multi_vc_offers_between_cycles(self):
        """Two offers to different VCs of one router in the same gap must
        both survive (regression for signal write-after-write)."""
        cfg = NetworkConfig(2, 2)
        rtl = RtlEngine(cfg)
        header = be_packet(cfg, 0, 1)
        flits = segment(header, cfg)
        assert rtl.offer(0, 2, flits[0])
        assert rtl.offer(0, 3, flits[0])
        rtl.step()
        # Both were loaded; one was sent (round-robin), one still pending.
        pending = [rtl.injection_pending(0, vc) for vc in (2, 3)]
        assert pending.count(True) == 1

    def test_kernel_stats_grow(self):
        cfg = NetworkConfig(2, 2)
        rtl = RtlEngine(cfg)
        rtl.run(3)
        assert rtl.kernel_stats.delta_cycles > 0
        assert rtl.kernel_stats.process_activations > 0


class TestThreeWayEquivalence:
    def three_engines(self, cfg):
        return [CycleEngine(cfg), SequentialEngine(cfg), RtlEngine(cfg)]

    def test_single_be_packet(self):
        cfg = NetworkConfig(2, 2)
        engines = self.three_engines(cfg)
        traffic = traffic_from_packets(cfg, [(0, 2, be_packet(cfg, 0, 3))])
        report = run_lockstep(engines, cycles=30, traffic=traffic)
        assert report, report.detail
        assert report.ejections == 7  # all flits delivered everywhere

    def test_gt_packet(self):
        cfg = NetworkConfig(2, 2)
        engines = self.three_engines(cfg)
        traffic = traffic_from_packets(cfg, [(0, 0, gt_packet(cfg, 0, 3, nbytes=12))])
        report = run_lockstep(engines, cycles=30, traffic=traffic)
        assert report, report.detail

    def test_random_traffic_torus(self):
        cfg = NetworkConfig(3, 2, topology="torus")
        rng = random.Random(2024)
        sends = []
        for seq in range(8):
            sends.append(
                (
                    rng.randrange(20),
                    rng.choice([2, 3]),
                    be_packet(
                        cfg,
                        rng.randrange(cfg.n_routers),
                        rng.randrange(cfg.n_routers),
                        nbytes=rng.choice([2, 8]),
                        seq=seq,
                    ),
                )
            )
        engines = self.three_engines(cfg)
        report = run_lockstep(engines, cycles=70, traffic=traffic_from_packets(cfg, sends))
        assert report, f"{report.diverged_engine}: {report.detail} @ {report.first_divergence}"
        assert report.ejections > 0

    def test_random_traffic_mesh_depth2(self):
        cfg = NetworkConfig(2, 3, topology="mesh", router=RouterConfig(queue_depth=2))
        rng = random.Random(77)
        sends = [
            (
                rng.randrange(15),
                rng.choice([2, 3]),
                be_packet(cfg, rng.randrange(6), rng.randrange(6), nbytes=8, seq=s),
            )
            for s in range(6)
        ]
        engines = self.three_engines(cfg)
        report = run_lockstep(engines, cycles=60, traffic=traffic_from_packets(cfg, sends))
        assert report, f"{report.diverged_engine}: {report.detail} @ {report.first_divergence}"

    def test_contention_same_destination(self):
        cfg = NetworkConfig(2, 2)
        sends = [
            (0, 2, be_packet(cfg, 0, 3, nbytes=16, seq=1)),
            (0, 2, be_packet(cfg, 1, 3, nbytes=16, seq=2)),
            (0, 3, be_packet(cfg, 2, 3, nbytes=16, seq=3)),
        ]
        engines = self.three_engines(cfg)
        report = run_lockstep(engines, cycles=80, traffic=traffic_from_packets(cfg, sends))
        assert report, f"{report.diverged_engine}: {report.detail} @ {report.first_divergence}"


class TestEngineRegistry:
    def test_engines_registered(self):
        names = {e.name for e in list_engines()}
        assert names == {"rtl", "cycle", "sequential", "batch"}

    def test_make_engine(self):
        cfg = NetworkConfig(2, 2)
        for name in ("rtl", "cycle", "sequential", "batch"):
            engine = make_engine(name, cfg)
            engine.step()
            assert engine.cycle == 1

    def test_unknown_engine(self):
        with pytest.raises(KeyError):
            make_engine("verilator", NetworkConfig(2, 2))

    def test_registry_describes_paper_analogues(self):
        analogues = " ".join(e.paper_analogue for e in list_engines())
        assert "VHDL" in analogues and "SystemC" in analogues and "FPGA" in analogues
