"""Tests for the section-5.2 log buffers and checkpointing."""

import pytest

from repro.engines import CycleEngine, SequentialEngine
from repro.noc import NetworkConfig, Port, RouterConfig
from repro.noc.checkpoint import (
    Checkpoint,
    CheckpointError,
    restore_checkpoint,
    save_checkpoint,
)
from repro.platform.logs import AccessDelayLog, LinkTrafficLog
from repro.seqsim.sequential import SequentialNetwork
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

from tests.helpers import PacketDriver, be_packet


class TestLinkTrafficLog:
    def test_captures_every_flit_on_the_link(self):
        net = NetworkConfig(4, 4, topology="mesh")
        engine = CycleEngine(net)
        driver = PacketDriver(engine)
        # One packet crossing link (0,0)->(1,0): monitor at router 1, WEST in.
        driver.send(be_packet(net, net.index(0, 0), net.index(3, 0)), vc=2)
        log = LinkTrafficLog(engine, router=net.index(1, 0), port=Port.WEST)
        for _ in range(40):
            driver.pump()
            engine.step()
            log.observe()
        samples = log.samples()
        assert len(samples) == 7  # all flits of the packet
        assert all(s.vc == 2 for s in samples)
        # back-to-back streaming: consecutive cycles
        cycles = [s.cycle for s in samples]
        assert cycles == list(range(cycles[0], cycles[0] + 7))

    def test_quiet_link_logs_nothing(self):
        net = NetworkConfig(3, 3)
        engine = CycleEngine(net)
        log = LinkTrafficLog(engine, router=0, port=Port.NORTH)
        for _ in range(10):
            engine.step()
            log.observe()
        assert log.samples() == []
        assert log.utilisation() == 0.0

    def test_local_port_rejected(self):
        net = NetworkConfig(3, 3)
        with pytest.raises(ValueError):
            LinkTrafficLog(CycleEngine(net), 0, Port.LOCAL)

    def test_overflow_drops_oldest(self):
        net = NetworkConfig(2, 2)
        engine = CycleEngine(net)
        be = BernoulliBeTraffic(net, 0.5, uniform_random(net), seed=4)
        driver = TrafficDriver(engine, be=be)
        log = LinkTrafficLog(engine, router=1, port=Port.WEST)
        for _ in range(1500):
            driver.generate(engine.cycle)
            driver.pump()
            engine.step()
            log.observe()
        assert log.dropped > 0
        assert log.buffer.count <= 512


class TestAccessDelayLog:
    def test_collects_delays(self):
        net = NetworkConfig(3, 3)
        engine = CycleEngine(net)
        be = BernoulliBeTraffic(net, 0.1, uniform_random(net), seed=6)
        driver = TrafficDriver(engine, be=be)
        log = AccessDelayLog(engine)
        for _ in range(200):
            driver.generate(engine.cycle)
            driver.pump()
            engine.step()
            log.observe()
        delays = log.delays()
        assert len(delays) == min(512, len(engine.injections)) or log.dropped
        assert all(d >= 0 for d in delays)


def run_with_traffic(engine, n_packets=8, cycles=25):
    cfg = engine.cfg
    driver = PacketDriver(engine)
    for seq in range(n_packets):
        driver.send(
            be_packet(cfg, seq % cfg.n_routers, (seq * 3 + 1) % cfg.n_routers,
                      nbytes=16, seq=seq),
            vc=2,
        )
    driver.run(cycles)
    return driver


class TestCheckpoint:
    def test_roundtrip_same_engine(self):
        cfg = NetworkConfig(3, 3)
        a = CycleEngine(cfg)
        run_with_traffic(a)  # leaves flits in flight
        assert a.total_buffered() > 0
        checkpoint = save_checkpoint(a)

        b = CycleEngine(cfg)
        restore_checkpoint(b, checkpoint)
        assert b.snapshot() == a.snapshot()
        ejections_before = len(a.ejections)
        a.run(30)
        b.run(30)
        assert b.snapshot() == a.snapshot()
        # Logs are host-side: the restored engine reproduces everything
        # ejected *after* the checkpoint.
        assert [r.__dict__ for r in b.ejections] == [
            r.__dict__ for r in a.ejections[ejections_before:]
        ]

    def test_cross_engine_restore(self):
        """A checkpoint saved by the cycle engine resumes bit-identically
        on the sequential (FPGA) method — its packed Python model and the
        engine's array state alike — and back: bit accuracy across methods."""
        cfg = NetworkConfig(3, 3)
        a = CycleEngine(cfg)
        run_with_traffic(a)
        checkpoint = save_checkpoint(a)
        a.run(25)
        for b in (SequentialNetwork(cfg, packed=True), SequentialEngine(cfg)):
            restore_checkpoint(b, checkpoint)
            assert save_checkpoint(b) == checkpoint
            b.run(25)
            assert b.snapshot() == a.snapshot()

    def test_json_roundtrip(self):
        cfg = NetworkConfig(3, 3)
        a = CycleEngine(cfg)
        run_with_traffic(a)
        checkpoint = save_checkpoint(a)
        again = Checkpoint.from_json(checkpoint.to_json())
        assert again == checkpoint
        b = CycleEngine(cfg)
        restore_checkpoint(b, again)
        assert b.snapshot() == a.snapshot()

    def test_shape_mismatch_rejected(self):
        a = CycleEngine(NetworkConfig(3, 3))
        checkpoint = save_checkpoint(a)
        with pytest.raises(CheckpointError):
            restore_checkpoint(CycleEngine(NetworkConfig(4, 3)), checkpoint)

    def test_config_mismatch_rejected(self):
        a = CycleEngine(NetworkConfig(3, 3))
        checkpoint = save_checkpoint(a)
        target = CycleEngine(NetworkConfig(3, 3, router=RouterConfig(queue_depth=2)))
        with pytest.raises(CheckpointError):
            restore_checkpoint(target, checkpoint)

    def test_cycle_counter_restored(self):
        cfg = NetworkConfig(3, 3)
        a = CycleEngine(cfg)
        a.run(17)
        b = CycleEngine(cfg)
        restore_checkpoint(b, save_checkpoint(a))
        assert b.cycle == 17


class TestCheckpointErrorPaths:
    def test_garbled_json_rejected(self):
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            Checkpoint.from_json("{not json at all")

    def test_truncated_json_rejected(self):
        a = CycleEngine(NetworkConfig(3, 3))
        run_with_traffic(a)
        text = save_checkpoint(a).to_json()
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            Checkpoint.from_json(text[: len(text) // 2])

    def test_missing_key_rejected(self):
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            Checkpoint.from_json('{"cycle": 3}')

    def test_wrong_payload_type_rejected(self):
        with pytest.raises(CheckpointError):
            Checkpoint.from_json('["a", "list", "not", "a", "dict"]')

    def test_wrong_size_restore_rejected(self):
        a = CycleEngine(NetworkConfig(3, 3))
        checkpoint = save_checkpoint(a)
        with pytest.raises(CheckpointError):
            restore_checkpoint(CycleEngine(NetworkConfig(2, 2)), checkpoint)


class TestCheckpointAfterRollback:
    def test_cross_engine_restore_after_rollback(self):
        """A checkpoint taken from a packed sequential engine that has
        been through fault -> rollback restores bit-identically onto the
        reference cycle engine: rollback leaves no hidden corruption."""
        cfg = NetworkConfig(3, 3)
        engine = SequentialNetwork(cfg, packed=True)
        run_with_traffic(engine)
        pristine = save_checkpoint(engine)

        # Corrupt a packed word in each bank, then roll back.
        engine.statemem.inject_fault(2, 1 << 5)
        engine.statemem.inject_fault(4, 1 << 9, bank="next")
        assert engine.statemem.verify() != []
        restore_checkpoint(engine, pristine)
        assert engine.statemem.verify() == []  # both banks healed

        after = save_checkpoint(engine)
        reference = CycleEngine(cfg)
        restore_checkpoint(reference, after)
        engine.run(25)
        reference.run(25)
        assert reference.snapshot() == engine.snapshot()
