"""Fault injection, detection (parity + watchdog) and rollback recovery.

Covers the robustness extension end to end: the parity property of the
packed state memory, the livelock watchdog, link-memory fault modes,
the controller's checkpoint/rollback machinery, and the seeded campaign
runner with its acceptance thresholds (100% detection for
parity-protected state words, >= 90% rollback recovery, deterministic
under a fixed seed).
"""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import parity
from repro.faults import (
    CampaignConfig,
    ConvergenceError,
    FaultDomain,
    FaultKind,
    LivelockError,
    ParityError,
    RecoveryExhaustedError,
    run_campaign,
)
from repro.faults.model import FaultInjector, FaultModel
from repro.noc import NetworkConfig
from repro.noc.routing import RoutingTable, UnroutableError
from repro.platform.controller import SimulationController
from repro.platform.cyclic_buffer import (
    BufferOverrunError,
    BufferUnderrunError,
    CyclicBuffer,
)
from repro.seqsim import (
    ConvergenceWatchdog,
    PackedStateMemory,
    RoundRobinScheduler,
    SequentialNetwork,
)
from repro.traffic import BernoulliBeTraffic, uniform_random

from tests.helpers import PacketDriver, be_packet


def make_engine(width=3, height=3, topology="torus", **kw):
    cfg = NetworkConfig(width, height, topology=topology)
    return SequentialNetwork(cfg, RoutingTable(cfg), packed=True, **kw)


def warm_up(engine, cycles=10, n_packets=6):
    driver = PacketDriver(engine)
    cfg = engine.cfg
    for seq in range(n_packets):
        driver.send(
            be_packet(cfg, seq % cfg.n_routers, (seq * 5 + 2) % cfg.n_routers,
                      nbytes=12, seq=seq),
            vc=2,
        )
    driver.run(cycles)
    return driver


# ---------------------------------------------------------------------------
# parity: the detection invariant
# ---------------------------------------------------------------------------
class TestParity:
    @given(word=st.integers(min_value=0, max_value=(1 << 256) - 1),
           bit=st.integers(min_value=0, max_value=255))
    def test_single_bit_flip_always_changes_parity(self, word, bit):
        assert parity(word ^ (1 << bit)) != parity(word)

    @given(addr=st.integers(min_value=0, max_value=8),
           bit=st.integers(min_value=0, max_value=63),
           word=st.integers(min_value=0, max_value=(1 << 64) - 1),
           bank=st.sampled_from(["current", "next"]))
    @settings(max_examples=60)
    def test_memory_detects_any_single_bit_flip(self, addr, bit, word, bank):
        mem = PackedStateMemory(depth=9, width=64)
        mem.initialize(addr, word)
        mem.inject_fault(addr, 1 << bit, bank=bank)
        bad = mem.verify()
        assert any(a == addr for _bank, a in bad)
        with pytest.raises(ParityError):
            mem.swap()

    def test_every_bit_of_a_real_router_core_word(self):
        """Exhaustive: flipping ANY single bit of a real packed
        router-core word is caught by the parity check."""
        engine = make_engine(2, 2)
        warm_up(engine, cycles=6)
        width = engine.state_word_width
        mem = engine.statemem
        for bit in range(width):
            mem.inject_fault(1, 1 << bit)
            bad = mem.verify()
            assert bad == [(mem.current_bank, 1)], f"bit {bit} escaped parity"
            mem.inject_fault(1, 1 << bit)  # flip back: word is clean again
            assert mem.verify() == []

    def test_even_weight_burst_escapes_parity(self):
        """Parity's documented blind spot: even-weight corruptions."""
        mem = PackedStateMemory(depth=2, width=32)
        mem.initialize(0, 0x1234)
        mem.inject_fault(0, 0b11)  # two bits: even weight
        assert mem.verify() == []

    def test_legal_writes_maintain_parity(self):
        mem = PackedStateMemory(depth=4, width=32)
        for address in range(4):
            mem.initialize(address, 0xDEAD << address)
        for cycle in range(6):
            for address in range(4):
                mem.write(address, (0xBEEF * (cycle + 1) + address) & 0xFFFFFFFF)
            mem.swap()  # raises if any parity went stale
        assert mem.parity_checks == 6

    def test_parity_error_payload(self):
        mem = PackedStateMemory(depth=4, width=16)
        mem.inject_fault(2, 1 << 3)
        mem.inject_fault(3, 1 << 1, bank="next")
        with pytest.raises(ParityError) as excinfo:
            mem.check_parity()
        assert excinfo.value.addresses == (2, 3)

    def test_unprotected_memory_skips_checks(self):
        mem = PackedStateMemory(depth=2, width=16, parity_protected=False)
        mem.inject_fault(0, 1)
        mem.swap()  # no ParityError


# ---------------------------------------------------------------------------
# scheduler guards + watchdog
# ---------------------------------------------------------------------------
class TestSchedulerGuards:
    def test_zero_units_rejected(self):
        with pytest.raises(ValueError, match="at least one unit"):
            RoundRobinScheduler(0)

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError, match="n_units=-3"):
            RoundRobinScheduler(-3)

    def test_watchdog_zero_units_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceWatchdog(0)


class TestWatchdog:
    def test_flap_fault_trips_livelock_with_diagnosis(self):
        engine = make_engine(3, 3, watchdog_factor=8)
        warm_up(engine, cycles=4)
        fwd_name, room_name = engine.install_flap_fault(4, 1)
        with pytest.raises(LivelockError) as excinfo:
            for _ in range(4):
                engine.step()
        err = excinfo.value
        # The error names the routers that never settled...
        assert err.unstable_units
        assert all(0 <= u < 9 for u in err.unstable_units)
        assert "unstable routers" in str(err)
        # ...and singles out the flapping wires.
        assert set(err.suspect_wires) == {fwd_name, room_name}
        assert err.deltas > err.limit
        # LivelockError is a ConvergenceError: legacy handlers still work.
        assert isinstance(err, ConvergenceError)

    def test_fault_free_run_never_trips(self):
        engine = make_engine(3, 3)
        warm_up(engine, cycles=30)
        assert engine.watchdog.trips == 0

    def test_quarantine_stops_the_flapping(self):
        engine = make_engine(3, 3, watchdog_factor=8)
        warm_up(engine, cycles=4)
        names = engine.install_flap_fault(4, 1)
        with pytest.raises(LivelockError):
            engine.step()
        quarantined = engine.quarantine_wires(names)
        assert quarantined  # physical links taken out of service
        assert engine.quarantined_links
        for _ in range(20):
            engine.step()  # settles again: the flap is gone


# ---------------------------------------------------------------------------
# link memory fault modes
# ---------------------------------------------------------------------------
class TestLinkFaults:
    def test_stuck_at_forces_bit_on_every_write(self):
        engine = make_engine(2, 2)
        links = engine.links
        wid = 0
        links.set_stuck(wid, 1, 1)  # bit 1 stuck at 1
        links.write_wire(wid, 0)
        assert links.values[wid] == 0b10
        links.write_wire(wid, 0b101)
        assert links.values[wid] == 0b111

    def test_quarantined_wire_drops_writes(self):
        engine = make_engine(2, 2)
        links = engine.links
        links.quarantine(3, frozen_value=0)
        links.write_wire(3, 0x7)
        assert links.values[3] == 0

    def test_transient_is_absorbed_by_reconvergence(self):
        """The HBR protocol's self-healing: a transient wire flip is
        rewritten by its (uncorrupted) writer and the reader
        re-evaluates, so the run converges to the fault-free result."""
        a = make_engine(3, 3)
        b = make_engine(3, 3)
        drv_a = warm_up(a, cycles=8)
        drv_b = warm_up(b, cycles=8)
        assert a.snapshot() == b.snapshot()
        b.links.inject_value_fault(b.links.wire_id("fwd:0.1"), 1 << 2)
        for _ in range(12):
            a.step()
            b.step()
        assert a.snapshot() == b.snapshot()


# ---------------------------------------------------------------------------
# cyclic buffer satellites
# ---------------------------------------------------------------------------
class TestCyclicBufferGuards:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="got 0"):
            CyclicBuffer(0, "stim")
        with pytest.raises(ValueError, match="got -2"):
            CyclicBuffer(-2)

    def test_overrun_message_carries_pointer_state(self):
        buf = CyclicBuffer(2, "stim[0,1]")
        buf.write(0, 10)
        buf.write(1, 11)
        with pytest.raises(BufferOverrunError) as excinfo:
            buf.write(2, 12)
        message = str(excinfo.value)
        assert "stim[0,1]" in message
        assert "rd=0" in message and "wr=2" in message
        assert "count=2" in message and "capacity=2" in message

    def test_underrun_message_carries_pointer_state(self):
        buf = CyclicBuffer(3, "out[5]")
        buf.write(0, 1)
        buf.read()
        with pytest.raises(BufferUnderrunError) as excinfo:
            buf.read()
        message = str(excinfo.value)
        assert "out[5]" in message
        assert "rd=1" in message and "wr=1" in message and "read=1" in message

    def test_inject_fault_corrupts_pending_entry(self):
        buf = CyclicBuffer(4)
        buf.write(0, 0b1000)
        buf.write(1, 0b0110)
        buf.inject_fault(1, 0b0011)
        assert buf.read().payload == 0b1000
        assert buf.read().payload == 0b0101

    def test_inject_fault_range_checked(self):
        buf = CyclicBuffer(4)
        buf.write(0, 1)
        with pytest.raises(IndexError):
            buf.inject_fault(1, 1)


# ---------------------------------------------------------------------------
# routing around quarantined links
# ---------------------------------------------------------------------------
class TestQuarantineRouting:
    def test_routes_avoid_blocked_link(self):
        cfg = NetworkConfig(4, 4, topology="torus")
        table = RoutingTable(cfg)
        blocked = {(5, int(table.port(5, 6)))}
        table.recompute_avoiding(blocked)
        for dest in range(cfg.n_routers):
            for src in range(cfg.n_routers):
                links = table.links_on_path(src, dest)
                assert not (set((r, int(p)) for r, p in links) & blocked)

    def test_disconnection_raises_unroutable(self):
        cfg = NetworkConfig(3, 3, topology="torus")
        table = RoutingTable(cfg)
        # Block every link *into* router 4 (all neighbours' ports to it).
        from repro.noc.config import Port
        from repro.noc.topology import Topology

        topo = Topology(cfg)
        blocked = set()
        for p in range(1, cfg.router.n_ports):
            nb = topo.neighbor(4, Port(p))
            blocked.add((nb, int(Port(p).opposite)))
        with pytest.raises(UnroutableError):
            table.recompute_avoiding(blocked)


# ---------------------------------------------------------------------------
# controller rollback recovery
# ---------------------------------------------------------------------------
def make_controller(seed=9, checkpoint_interval=1, **kw):
    cfg = NetworkConfig(3, 3, topology="torus")
    engine = SequentialNetwork(cfg, RoutingTable(cfg), packed=True)
    be = BernoulliBeTraffic(cfg, load=0.10, pattern=uniform_random(cfg), seed=seed)
    controller = SimulationController(
        engine, be=be, period=8, checkpoint_interval=checkpoint_interval, **kw
    )
    return controller


class TestRollbackRecovery:
    def test_transient_recovered_bit_exactly(self):
        """A detected-and-rolled-back transient leaves the run
        bit-identical to a fault-free run of the same seed."""
        clean = make_controller()
        faulty = make_controller()

        def strike(engine, fired=[]):
            if engine.cycle == 21 and not fired:
                fired.append(True)
                engine.inject_state_fault(4, 100)

        faulty.engine.pre_step_hooks.append(strike)
        report_clean = clean.run(48)
        report_faulty = faulty.run(48)

        assert report_faulty.fault_detections == 1
        assert report_faulty.rollbacks >= 1
        assert report_faulty.recoveries == 1
        assert not report_faulty.recovery_exhausted
        assert report_faulty.recovery_deltas > 0
        # Bit accuracy survives the rollback: identical architectural
        # state and identical delivered flits.  (Ejection *timestamps*
        # may shift: the retry's halved period re-batches best-effort
        # stimuli, a platform artifact rather than architectural state.)
        assert faulty.engine.snapshot() == clean.engine.snapshot()
        assert [
            (r.router, r.vc, r.flit_word) for r in faulty.engine.ejections
        ] == [(r.router, r.vc, r.flit_word) for r in clean.engine.ejections]
        # The retry offsets the period grid, so the faulty run may
        # round up to a later boundary — but never finishes early.
        assert report_faulty.cycles >= report_clean.cycles

    def test_recovery_disabled_propagates_fault(self):
        controller = make_controller(checkpoint_interval=0)

        def strike(engine, fired=[]):
            if engine.cycle == 10 and not fired:
                fired.append(True)
                engine.inject_state_fault(0, 7)

        controller.engine.pre_step_hooks.append(strike)
        with pytest.raises(ParityError):
            controller.run(32)

    def test_persistent_fault_exhausts_retries(self):
        """A fault re-injected on every attempt defeats rollback: the
        controller gives up with RecoveryExhaustedError."""
        controller = make_controller(max_retries=2)

        def strike(engine):
            if engine.cycle >= 10:
                engine.inject_state_fault(2, 5)

        controller.engine.pre_step_hooks.append(strike)
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            controller.run(64)
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, ParityError)
        assert controller.recovery_exhausted

    def test_backoff_halves_period_on_retry(self):
        controller = make_controller(max_retries=3)
        periods_seen = []

        def strike(engine, fired=[]):
            periods_seen.append(controller.period)
            if engine.cycle == 16 and not fired:
                fired.append(True)
                engine.inject_state_fault(1, 3)

        controller.engine.pre_step_hooks.append(strike)
        controller.run(48)
        assert 4 in periods_seen  # 8 -> 4 after the rollback
        assert controller.period == 8  # restored after clean period

    def test_livelock_quarantine_reroutes_and_recovers(self):
        controller = make_controller(max_retries=4)
        engine = controller.engine

        def strike(eng, fired=[]):
            if eng.cycle == 16 and not fired:
                fired.append(True)
                eng.install_flap_fault(4, 1)

        engine.pre_step_hooks.append(strike)
        report = controller.run(64)
        assert report.fault_detections >= 2  # livelock trips, then re-trips
        assert report.quarantined_links  # permanent fault taken out
        assert report.recoveries >= 1
        assert not report.recovery_exhausted


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------
class TestCampaign:
    def test_campaign_deterministic_under_fixed_seed(self):
        config = CampaignConfig(n_faults=12, seed=42, include_flap=True)
        first = run_campaign(config)
        second = run_campaign(config)
        assert first.render() == second.render()
        assert [
            (o.fault, o.detected, o.detect_cycle, o.error) for o in first.outcomes
        ] == [
            (o.fault, o.detected, o.detect_cycle, o.error) for o in second.outcomes
        ]

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (1, "3c9df1f1b8f348233256962da6dca55e78a2d5e57a5027893eb93e56c967866c"),
            (3, "f60f5d3990308c9feadadce09ee149673bda54f5c9b67e0631479e16593722f4"),
        ],
    )
    def test_a_short_campaign_renders_its_pinned_report(self, seed, digest):
        """Byte-for-byte oracle of the model under packed state words,
        wire and state faults, rollback and flap quarantine: a change to
        the model's evaluation must leave every report byte in place."""
        import hashlib

        report = run_campaign(CampaignConfig(n_faults=20, seed=seed, include_flap=True))
        assert hashlib.sha256(report.render().encode()).hexdigest() == digest

    def test_different_seeds_differ(self):
        a = run_campaign(CampaignConfig(n_faults=8, seed=1))
        b = run_campaign(CampaignConfig(n_faults=8, seed=2))
        assert [o.fault for o in a.outcomes] != [o.fault for o in b.outcomes]

    def test_acceptance_campaign(self):
        """The ISSUE acceptance bar: >= 100 single-bit state/link faults
        on a 4x4 torus; every parity-protected state-word corruption is
        detected; >= 90% of detections recover by rollback."""
        report = run_campaign(CampaignConfig(n_faults=100, seed=1))
        assert report.injected >= 100
        state_detected, state_total = report.per_domain["state"]
        assert state_total > 0
        assert state_detected == state_total  # 100% for parity-protected words
        assert report.detection_rate > 0
        assert report.recovery_rate >= 0.90
        assert not report.recovery_exhausted
        assert report.mean_cycles_to_detection <= 1.0  # caught at the swap

    def test_flap_campaign_quarantines(self):
        report = run_campaign(
            CampaignConfig(n_faults=2, seed=7, include_flap=True,
                           domains=(FaultDomain.STATE,))
        )
        assert report.quarantined_links
        flap = report.outcomes[-1]
        assert flap.fault.kind is FaultKind.FLAP
        assert flap.detected
        assert "LivelockError" in flap.error
        assert "unstable routers" in flap.error

    def test_injector_fires_each_fault_once(self):
        engine = make_engine(2, 2)
        model = FaultModel(engine, seed=0)
        faults = model.sample(3, first_cycle=2, spacing=2,
                              domains=(FaultDomain.LINK,))
        injector = FaultInjector(model, faults).attach()
        for _ in range(12):
            try:
                engine.step()
            except Exception:
                pass
        assert len(injector.fired) == 3
        assert not injector.pending
        injector.detach()
        assert not engine.pre_step_hooks


# ---------------------------------------------------------------------------
# CI satellite: the whole tree must at least compile
# ---------------------------------------------------------------------------
def test_sources_compile():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
