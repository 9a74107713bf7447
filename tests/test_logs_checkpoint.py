"""Tests for checkpointing."""

import pytest

from repro.engines import CycleEngine, SequentialEngine
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.checkpoint import CheckpointError, restore_checkpoint, save_checkpoint
from repro.seqsim.sequential import SequentialNetwork

from tests.helpers import PacketDriver, be_packet


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
