"""Bit-identity gates for the fused levelized batch kernel and
quiescence fast-forward.

The levelized chunk kernel (``repro.kernels.batchlevel``) replaces the
per-cycle dynamic allocation sweep with one fused C walk of the static
level schedule per cycle, whole chunks at a time — it is only allowed
to be *faster*, never *different*.  Every test here pins some facet of
that contract: lane-for-lane lockstep against the NumPy reference and
the dynamic-sweep JIT, chunked-versus-per-cycle identity, per-lane
fallback when a fault is resident, and exact overload diagnosis parity.

Fast-forward (``run_batched(..., fast_forward=True)``) gets the safety
battery the design doc promises: it never skips while a fault is
resident, a planned fault mid-skip-window still lands on exactly its
cycle, and a livelock-style diagnosis is byte-identical with the flag
on or off.

The closed-form LFSR jump underneath fast-forward (and the farm's
checkpoint cross-check) is property-tested with hypothesis over random
widths, tap masks and distances.

The columnar chunk boundary adds two identities: one windowed C traffic
scan equals ``stop - start`` per-cycle ``generate`` calls in every piece
of driver state, and the same scan in probe mode (the fast-forward's
idle-window proof) leaves every lane exactly where stepping would —
within a fixed budget of LFSR words per skipped cycle.

``jit`` and ``levelized`` are one generated body, so the auto engine
chunks too, and the traffic windows own the driver sets users run: the
Fig. 1 set (GT streams beside per-lane BE loads, a zero-load lane, a
``be=None`` lane) is pinned chunked ≡ per-cycle Python ≡ solo golden
engine on every piece of engine, driver, generator and tracker state.
"""

from __future__ import annotations

import dataclasses
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.base import make_engine
from repro.engines import CycleEngine
from repro.engines.batch import (
    BatchEngine,
    _try_fast_forward,
    chunk_decline,
    chunk_kernel,
    drain_batched,
    run_batched,
)
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels import cbackend, probe_backends, trafficgen
from repro.kernels.batchlevel import CompiledBatchLevel, generate_level_source
from repro.noc import NetworkConfig, Packet, PacketClass, RouterConfig
from repro.noc.router import ProtocolError
from repro.noc.flit import IDLE_FLIT, Flit, FlitType, Header
from repro.seqsim.arraystate import FIELDS
from repro.stats.latency import PacketLatencyTracker
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    hotspot,
    transpose,
    uniform_random,
)
from repro.traffic.rng import HardwareLfsr, lfsr_jump
from repro.traffic.stimuli import (
    F_CYCLE,
    NetworkOverloadError,
    TrafficDriver,
    settle,
)

from tests.helpers import PacketDriver, gt_packet

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"cffi backend unavailable: {JIT_REASON}"
)


def torus(width: int = 3, height: int = 3, queue_depth: int = 2) -> NetworkConfig:
    return NetworkConfig(
        width, height, topology="torus", router=RouterConfig(queue_depth=queue_depth)
    )


def lane_driver(target, load, seed, gt_period=None, stall_limit=10_000):
    """A Bernoulli-BE (optionally plus GT) driver over ``target`` — a
    lane of a batch engine, or a solo engine."""
    net = target.cfg
    gt = None
    if gt_period is not None:
        gt = GtStreamTraffic(net, fig1_gt_streams(net).streams, period=gt_period)
    be = (
        BernoulliBeTraffic(net, load, uniform_random(net), seed=seed)
        if load is not None
        else None
    )
    return TrafficDriver(target, be=be, gt=gt, stall_limit=stall_limit)


def make_drivers(engine, load, seed=0xBEE, gt_period=None, stall_limit=10_000):
    """One :func:`lane_driver` per lane, seeds ascending."""
    return [
        lane_driver(engine.lane(i), load, seed + i, gt_period, stall_limit)
        for i in range(engine.lanes)
    ]


def driver_digest(driver):
    """The driver half of the lockstep contract."""
    be = driver.be
    return (
        {k: list(q) for k, q in driver.queues.items()},
        dict(driver._stall),
        repr(driver.submits),
        driver.flits_generated,
        None if be is None else (be.rng.state, be.rng.words_read),
    )


def full_digest(engine, drivers):
    """Everything the lockstep contract covers, per lane plus globals."""
    lanes = [
        (
            engine.lane_snapshot(i),
            [r.__dict__ for r in engine.lane_injections(i)],
            [r.__dict__ for r in engine.lane_ejections(i)],
            *driver_digest(driver),
        )
        for i, driver in enumerate(drivers)
    ]
    return lanes, engine.cycle, list(engine.metrics.per_cycle)


def run_case(
    kernel,
    cycles=240,
    lanes=3,
    load=0.05,
    cfg=None,
    fast_forward=False,
    gt_period=None,
    mutate=None,
):
    """Build, run, digest one batched workload under the given kernel.

    ``mutate`` maps run-progress checkpoints onto engine surgery:
    ``{cycle: fn(engine, drivers)}`` applied between run segments, so
    both sides of a comparison flip the same fault at the same cycle.
    """
    engine = BatchEngine(cfg or torus(), lanes=lanes, kernel=kernel)
    drivers = make_drivers(engine, load, gt_period=gt_period)
    marks = sorted((mutate or {}).items())
    at = 0
    for cycle, fn in marks:
        run_batched(engine, drivers, cycle - at, fast_forward=fast_forward)
        fn(engine, drivers)
        at = cycle
    run_batched(engine, drivers, cycles - at, fast_forward=fast_forward)
    return full_digest(engine, drivers)


@pytest.mark.kernel_smoke
class TestLevelizedKernelSmoke:
    @needs_jit
    def test_backend_selected(self):
        engine = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert engine.kernel == "levelized"
        assert engine.schedule is not None
        assert hasattr(engine._compiled, "run_chunk")

    @needs_jit
    def test_short_lockstep_vs_python(self):
        assert run_case("levelized", cycles=120, lanes=2) == run_case(
            "python", cycles=120, lanes=2
        )

    def test_generated_c_compiles_without_a_warning(self, tmp_path):
        # an argument or scratch row a rewrite leaves unused fails here
        reason = cbackend.availability()
        if reason is not None:
            pytest.skip(reason)
        gt_less = NetworkConfig(
            3, 3, topology="torus", router=RouterConfig(gt_vcs=frozenset())
        )
        units = {"stimuli": trafficgen._SOURCE}
        for name, net in (("fig1", fig1_network()), ("gt-less", gt_less)):
            spec = cbackend.KernelSpec.from_engine(BatchEngine(net, kernel="python"))
            units[name] = generate_level_source(spec)
        # the sequential engine's variant: the same body + the HBR pass
        units["fig1-hbr"] = generate_level_source(dataclasses.replace(spec, hbr=True))
        assert "#define HBR 1" in units["fig1-hbr"] and "#define HBR 0" in units["fig1"]
        for name, source in units.items():
            path = tmp_path / f"{name}.c"
            path.write_text(source)
            proc = subprocess.run(
                [cbackend._find_compiler(), "-Wall", "-Wextra", "-Werror",
                 "-fsyntax-only", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{name}:\n{proc.stderr}"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="auto|python|levelized|jit"):
            BatchEngine(torus(), kernel="bogus")
        with pytest.raises(ValueError, match="auto|python|levelized|jit"):
            make_engine("batch", torus(), kernel="bogus")


class TestLevelizedLockstep:
    @needs_jit
    def test_matches_python_reference(self):
        assert run_case("levelized") == run_case("python")

    @needs_jit
    def test_matches_jit_dynamic_sweep(self):
        assert run_case("levelized") == run_case("jit")

    @needs_jit
    def test_gt_plus_be_workload(self):
        kw = dict(cycles=200, lanes=2, load=0.03, cfg=fig1_network(), gt_period=40)
        assert run_case("levelized", **kw) == run_case("python", **kw)

    @needs_jit
    def test_mid_run_quarantine_keeps_identity(self):
        # A quarantined link repacks the route tables mid-run; the
        # chunk kernel must notice the stale schedule and rebind.
        mutate = {100: lambda engine, drivers: engine.quarantine_link(5, 1)}
        assert run_case("levelized", mutate=mutate) == run_case("python", mutate=mutate)

    @needs_jit
    def test_lane_fault_falls_back_per_lane(self):
        # Lane 1 carries a resident fault for the middle third: it must
        # ride the dynamic sweep while lanes 0/2 stay on the fused
        # kernel, and rejoin cleanly after the fault clears.
        mutate = {
            80: lambda engine, drivers: engine.mark_lane_fault(1),
            160: lambda engine, drivers: engine.clear_lane_fault(1),
        }
        lev = run_case("levelized", mutate=mutate)
        assert lev == run_case("python", mutate=mutate)

    def test_numpy_fallback_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        engine = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert engine._compiled is None
        assert engine.kernel_reason == "backend ladder selected numpy"
        drivers = make_drivers(engine, 0.05)
        run_batched(engine, drivers, 120)
        monkeypatch.delenv("REPRO_KERNELS")
        assert full_digest(engine, drivers) == run_case(
            "python", cycles=120, lanes=2
        )

    @needs_jit
    def test_overload_diagnosis_parity(self):
        # Saturate a queue_depth-1 fabric until a driver diagnoses the
        # livelock.  The diagnostic string, cycle, architectural state,
        # events, metrics and stall counters must be byte-identical to
        # the reference — and so must the drivers: the chunked path
        # generates its whole window before the fatal pump, then rewinds
        # queues, submits, counters and RNG to where the per-cycle loop
        # stops (lanes after the failing one have not generated the
        # fatal cycle).
        for lanes, failing in ((2, 0), (3, 2)):  # the first / the last lane fails
            results = {}
            for kernel in ("python", "levelized"):
                engine = BatchEngine(torus(queue_depth=1), lanes=lanes, kernel=kernel)
                drivers = make_drivers(engine, 0.8, stall_limit=20)
                with pytest.raises(NetworkOverloadError) as err:
                    run_batched(engine, drivers, 2000)
                results[kernel] = (
                    str(err.value),
                    full_digest(engine, drivers),
                    [d.overloaded for d in drivers],
                    [
                        (list(d.be._seq), list(d._be_vc_toggle), list(d.queues))
                        for d in drivers
                    ],
                )
                assert engine.cycle % 64  # mid-chunk
            assert results["levelized"] == results["python"]
            assert results["python"][2].index(True) == failing

    @needs_jit
    def test_overload_parity_with_python_generated_windows(self):
        # transpose: no C scan, the chunk's window comes from the drivers'
        # own generators — and rewinds through them
        cfg = NetworkConfig(
            4, 4, topology="torus", router=RouterConfig(queue_depth=1)
        )
        results = {}
        for kernel in ("python", "levelized"):
            engine = BatchEngine(cfg, lanes=2, kernel=kernel)
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(cfg, 0.9, transpose(cfg), seed=0xBEE + i),
                    stall_limit=20,
                )
                for i in range(2)
            ]
            with pytest.raises(NetworkOverloadError) as err:
                run_batched(engine, drivers, 2000)
            results[kernel] = (str(err.value), full_digest(engine, drivers))
        assert results["levelized"] == results["python"]


class PlannedFault:
    """A pre-step hook that fires once at a planned cycle.

    Advertises :meth:`next_fire_cycle` so fast-forward may skip right
    up to — but never over — the fire cycle, mirroring the
    :class:`repro.faults.model.FaultInjector` protocol.
    """

    def __init__(self, cycle, action):
        self.cycle = cycle
        self.action = action
        self.fired_at = []

    def next_fire_cycle(self, engine):
        return self.cycle if not self.fired_at else None

    def __call__(self, engine):
        if engine.cycle >= self.cycle and not self.fired_at:
            self.fired_at.append(engine.cycle)
            self.action(engine)


class LivelockWatchdog:
    """Flap-style diagnosis hook: raises its report at a planned cycle."""

    def __init__(self, cycle):
        self.cycle = cycle

    def next_fire_cycle(self, engine):
        return self.cycle

    def __call__(self, engine):
        if engine.cycle >= self.cycle:
            raise RuntimeError(
                f"livelock diagnosed at cycle {engine.cycle}: "
                f"{len(engine.metrics.per_cycle)} cycle records, "
                f"{engine.total_buffered()} flits buffered"
            )


def spy_skips(engine):
    """Record every skip_cycles(D) the engine commits."""
    calls = []
    original = engine.skip_cycles

    def recording(cycles):
        calls.append(cycles)
        original(cycles)

    engine.skip_cycles = recording
    return calls


class TestFastForward:
    def test_identity_python_kernel(self):
        kw = dict(cycles=800, lanes=2, load=0.004)
        assert run_case("python", fast_forward=True, **kw) == run_case(
            "python", fast_forward=False, **kw
        )

    @needs_jit
    def test_identity_levelized_kernel(self):
        kw = dict(cycles=800, lanes=2, load=0.004)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "levelized", fast_forward=False, **kw
        )

    @needs_jit
    def test_identity_gt_only(self):
        kw = dict(cycles=400, lanes=2, load=None, cfg=fig1_network(), gt_period=97)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "levelized", fast_forward=False, **kw
        )

    @pytest.mark.kernel_smoke
    def test_zero_load_skips_whole_run(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        calls = spy_skips(engine)
        run_batched(engine, drivers, 20_000, fast_forward=True)
        assert calls == [20_000]
        assert engine.cycle == 20_000
        assert len(engine.metrics.per_cycle) == 20_000

    def test_never_skips_while_fault_resident(self):
        # Quarantined link: fabric idle, but no skip may fire.
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.quarantine_link(5, 1)
        assert engine.fault_resident
        assert _try_fast_forward(engine, drivers, 100) == 0
        calls = spy_skips(engine)
        run_batched(engine, drivers, 50, fast_forward=True)
        assert calls == []
        assert engine.cycle == 50

        # Lane fault: same veto.
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.mark_lane_fault(0)
        assert _try_fast_forward(engine, drivers, 100) == 0
        engine.clear_lane_fault(0)
        assert _try_fast_forward(engine, drivers, 100) == 100

    def test_planned_fault_lands_on_its_cycle(self):
        # A fault planned mid-skip-window: fast-forward may jump to the
        # fire cycle but not across it, and once the fault is resident
        # no further skips fire.
        results = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.0)
            fault = PlannedFault(700, lambda e: e.mark_lane_fault(0))
            engine.pre_step_hooks.append(fault)
            calls = spy_skips(engine)
            run_batched(engine, drivers, 2000, fast_forward=fast_forward)
            assert fault.fired_at == [700]
            if fast_forward:
                assert calls == [700]  # one jump, stopping exactly at the fault
            results[fast_forward] = (engine.cycle, list(engine.metrics.per_cycle))
        assert results[True] == results[False]

    def test_planned_fault_with_traffic_identity(self):
        # The SEU analogue with real traffic around it: results must be
        # byte-identical with fast-forward on or off, and the fault must
        # land on its cycle both ways.
        digests = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.01)
            fault = PlannedFault(300, lambda e: e.quarantine_link(5, 1))
            engine.pre_step_hooks.append(fault)
            run_batched(engine, drivers, 600, fast_forward=fast_forward)
            assert fault.fired_at == [300]
            digests[fast_forward] = full_digest(engine, drivers)
        assert digests[True] == digests[False]

    def test_livelock_diagnosis_byte_identical(self):
        # The flap-livelock style diagnosis: a watchdog that reports at
        # a planned cycle must produce the identical report whether the
        # idle span before it was stepped or skipped.
        reports = {}
        for fast_forward in (False, True):
            engine = BatchEngine(torus(), lanes=2, kernel="python")
            drivers = make_drivers(engine, 0.0)
            engine.pre_step_hooks.append(LivelockWatchdog(1234))
            with pytest.raises(RuntimeError) as err:
                run_batched(engine, drivers, 5000, fast_forward=fast_forward)
            reports[fast_forward] = (str(err.value), engine.cycle)
        assert reports[True] == reports[False]
        assert "cycle 1234" in reports[True][0]

    def test_opaque_hook_vetoes_skip(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        drivers = make_drivers(engine, 0.0)
        engine.pre_step_hooks.append(lambda e: None)  # no next_fire_cycle
        assert _try_fast_forward(engine, drivers, 100) == 0


def driver_state(driver):
    """Everything generation touches, on any driver (``be``, ``gt`` and
    the tracker may be ``None``)."""
    be, gt, tracker = driver.be, driver.gt, driver.tracker
    return (
        repr(driver.submits),
        {k: list(q) for k, q in driver.queues.items()},
        list(driver.queues),
        None if tracker is None else tracker.pending(),
        driver.flits_generated,
        None if be is None else (be.rng.state, be.rng.words_read, list(be._seq)),
        None if gt is None else list(gt._seq),
        list(driver._be_vc_toggle),
    )


def generation_state(drivers):
    return [driver_state(driver) for driver in drivers]


def admit_window(drivers, window):
    """What a consumer that does not simulate a window does with it:
    queue its flits, book its packets."""
    before = [d.queues.admit(window, lane) for lane, d in enumerate(drivers)]
    settle(drivers, window, before)


@needs_jit
class TestWindowGeneration:
    """One C scan per window ≡ one ``generate`` call per cycle."""

    def build(self, lanes=3, load=0.3):
        engine = BatchEngine(torus(), lanes=lanes, kernel="python")
        drivers = make_drivers(engine, load)
        for driver in drivers:
            driver.attach_tracker(PacketLatencyTracker(engine.cfg))
        return drivers

    def test_window_equals_per_cycle_generate(self):
        windowed, stepped, batched = self.build(), self.build(), self.build()
        generator, _ = trafficgen.batched_be_generator(windowed)
        per_cycle, _ = trafficgen.batched_be_generator(batched)
        start = 0
        for width in (1, 7, 64, 7, 1):
            window = generator.generate_window(start, start + width)
            for cycle in range(start, start + width):
                admit_window(batched, per_cycle.generate_window(cycle, cycle + 1))
                for driver in stepped:
                    driver.generate(cycle)
            released = window.flits[F_CYCLE]
            assert ((start <= released) & (released < start + width)).all()
            assert window.flits.shape[1] == sum(window.lane_flits)
            admit_window(windowed, window)
            assert generation_state(windowed) == generation_state(stepped)
            assert generation_state(batched) == generation_state(stepped)
            start += width
        assert sum(len(d.submits) for d in stepped) > 50

    def test_probe_stops_before_the_first_hit_in_any_lane(self):
        probed, stepped = self.build(lanes=4, load=0.01), self.build(lanes=4, load=0.01)
        generator, _ = trafficgen.batched_be_generator(probed)
        n_routers = probed[0].net.n_routers
        cycle = 0
        for _ in range(12):
            skipped = generator.skip_idle(cycle, 10_000)
            for c in range(cycle, cycle + skipped):
                for driver in stepped:
                    driver.generate(c)
            cycle += skipped
            assert generation_state(probed) == generation_state(stepped)
            # the very next cycle generates in at least one lane
            before = sum(len(d.submits) for d in stepped)
            admit_window(probed, generator.generate_window(cycle, cycle + 1))
            for driver in stepped:
                driver.generate(cycle)
            cycle += 1
            assert sum(len(d.submits) for d in stepped) > before
            assert generation_state(probed) == generation_state(stepped)
        assert cycle > 100
        assert generator.skip_idle(cycle, 0) == 0
        # a bounded probe stops at its limit, never past it
        limited = generator.skip_idle(cycle, 1)
        assert limited in (0, 1)
        assert generator.probe_words <= 2 * 4 * n_routers * cycle


def columnar_case(widths, loads, gt_period, data_width, be_bytes, gt_bytes):
    """Windows of ``widths`` cycles from the C scan (fewer where the
    flit budget ends one early) ≡ the same cycles of per-cycle
    ``TrafficDriver.generate``."""
    cfg = NetworkConfig(
        3, 3, topology="torus", router=RouterConfig(data_width=data_width)
    )
    streams = fig1_gt_streams(cfg).streams

    def build():
        engine = BatchEngine(cfg, lanes=len(loads), kernel="python")
        return [
            TrafficDriver(
                engine.lane(lane),
                be=None
                if load is None
                else BernoulliBeTraffic(
                    cfg, load, uniform_random(cfg), payload_bytes=be_bytes, seed=0xBEE + lane
                ),
                gt=None
                if gt_period is None
                else GtStreamTraffic(cfg, streams, period=gt_period, payload_bytes=gt_bytes),
            )
            for lane, load in enumerate(loads)
        ]

    windowed, stepped = build(), build()
    generator, reason = trafficgen.batched_be_generator(windowed)
    assert reason is None, reason
    start = 0
    for width in widths:
        for driver in stepped:
            for cycle in range(start, start + width):
                driver.generate(cycle)
        stop = start + width
        while start < stop:
            window = generator.generate_window(start, stop)
            assert start < window.stop <= stop
            admit_window(windowed, window)
            start = window.stop
        assert generation_state(windowed) == generation_state(stepped)
    return stepped


class TestColumnarStimuli:
    """The in-bound chunk boundary is integer columns: equal to the
    per-cycle driver in every piece of state, and object-free."""

    @needs_jit
    @pytest.mark.kernel_smoke
    def test_one_window_of_every_shape(self):
        # GT period 1: every stream's sequence number wraps at 256 inside
        # the 300-cycle window; 7 payload bytes on a 32-bit data path: the
        # last flit is short
        stepped = columnar_case(
            (1, 7, 64, 300), (0.3, 0.0, None, 0.9), gt_period=1,
            data_width=32, be_bytes=7, gt_bytes=5,
        )
        assert max(stepped[0].gt._seq) < 256 and len(stepped[0].submits) > 9 * 372
        assert stepped[1].be.rng.words_read == 0  # zero load draws nothing

    @needs_jit
    @given(
        widths=st.lists(st.sampled_from((1, 7, 64, 300)), min_size=1, max_size=4),
        loads=st.lists(
            st.sampled_from((None, 0.0, 0.02, 0.3, 1.0)), min_size=1, max_size=3
        ).filter(lambda loads: any(loads)),
        gt_period=st.sampled_from((None, 1, 3, 97)),
        data_width=st.sampled_from((16, 24, 32)),
        be_bytes=st.sampled_from((1, 7, 10)),
        gt_bytes=st.sampled_from((4, 9, 256)),
    )
    @settings(max_examples=25, deadline=None)
    def test_window_equals_per_cycle_generate(
        self, widths, loads, gt_period, data_width, be_bytes, gt_bytes
    ):
        columnar_case(widths, loads, gt_period, data_width, be_bytes, gt_bytes)

    @needs_jit
    def test_narrow_data_path_keeps_the_python_generators(self):
        # below 16 bits the header tag / source seq fields overflow the
        # data path and the reference encoder raises: the C scan declines
        cfg = NetworkConfig(3, 3, router=RouterConfig(data_width=12))
        engine = BatchEngine(cfg, lanes=1)
        drivers = [
            TrafficDriver(
                engine.lane(0), be=BernoulliBeTraffic(cfg, 0.3, uniform_random(cfg))
            )
        ]
        generator, reason = trafficgen.batched_be_generator(drivers)
        assert generator is None and "data path" in reason

    @needs_jit
    def test_backlog_rides_across_chunks_as_columns(self, monkeypatch):
        # load 0.14 beside GT streams on a queue_depth-1 fabric: stimuli
        # queue up faster than they inject, so every window (a flit
        # budget's worth: ~100 cycles here) starts from the previous
        # window's unconsumed tail
        carried = []
        real = CompiledBatchLevel.run_chunk

        def run_chunk(self, drivers, k, window=None):
            real(self, drivers, k, window)
            carried.append(sum(d.backlog() for d in drivers))

        monkeypatch.setattr(CompiledBatchLevel, "run_chunk", run_chunk)
        kw = dict(
            cycles=5 * 64 + 17, lanes=2, load=0.14,
            cfg=NetworkConfig(
                6, 6, topology="torus", router=RouterConfig(queue_depth=1)
            ),
            gt_period=150,
        )
        chunked = run_case("levelized", **kw)
        assert len(carried) > 2 and min(carried) > 100
        assert chunked == run_case("python", **kw)

    @needs_jit
    @pytest.mark.parametrize("gt_period", [None, 130])
    def test_chunked_run_builds_no_packet_record_or_entry(self, monkeypatch, gt_period):
        # BE-only and the Fig. 1 GT + BE set, trackers attached: run,
        # drain and latency collection touch arrays only
        from repro.noc.network import EjectionRecord, InjectionRecord
        from repro.noc.packet import Packet
        from repro.stats.latency import LatencySample
        from repro.traffic.stimuli import StimuliEntry, SubmitRecord

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the chunked path")

        engine = BatchEngine(fig1_network(), lanes=3)
        drivers = make_drivers(engine, 0.1, gt_period=gt_period)
        for driver in drivers:
            driver.attach_tracker(PacketLatencyTracker(engine.cfg))
        with monkeypatch.context() as patch:
            for cls in (
                Packet,
                SubmitRecord,
                StimuliEntry,
                InjectionRecord,
                EjectionRecord,
                LatencySample,
            ):
                patch.setattr(cls, "__init__", forbidden)
            run_batched(engine, drivers, 300)
            assert sum(d.backlog() for d in drivers) > 0
            for driver in drivers:
                driver.be = driver.gt = None
            drain_batched(engine, drivers)
            for lane, driver in enumerate(drivers):
                driver.tracker.collect(engine.lane(lane))
                assert len(driver.tracker.samples) == len(driver.submits) > 100
                assert driver.tracker.stats().count == driver.tracker.delivered()
        # ... and they are all there the moment a test reads them
        assert drivers[0].tracker.samples[0].total_latency > 0
        assert drivers[0].submits[0].packet.payload
        assert repr(drivers[0].submits).count("SubmitRecord(") == len(drivers[0].submits)


def capture_generator(monkeypatch):
    """Collect the batched generators ``run_batched`` builds."""
    made = []
    real = trafficgen.batched_be_generator

    def recording(drivers):
        generator, reason = real(drivers)
        made.append(generator)
        return generator, reason

    monkeypatch.setattr(trafficgen, "batched_be_generator", recording)
    return made


@needs_jit
class TestColumnarFastForward:
    @pytest.mark.parametrize("lanes", [1, 4, 16])
    def test_on_equals_off_and_probe_work_is_bounded(self, lanes, monkeypatch):
        # Distinct seeds per lane (make_drivers: seed + lane).  The
        # digest covers snapshots, full logs, queues, submits, RNG state
        # and words_read, the cycle counter and every DeltaMetrics row.
        # The load shrinks with the lane count: the fabric is idle only
        # while *every* lane is, so this keeps idle windows at any width.
        kw = dict(cycles=6000, lanes=lanes, load=0.001 / lanes, cfg=fig1_network())
        reference = run_case("levelized", fast_forward=False, **kw)
        made = capture_generator(monkeypatch)
        engine = BatchEngine(kw["cfg"], lanes=lanes, kernel="levelized")
        drivers = make_drivers(engine, kw["load"])
        skips = spy_skips(engine)
        run_batched(engine, drivers, kw["cycles"], fast_forward=True)
        assert full_digest(engine, drivers) == reference
        assert engine.metrics.total_deltas == 3 * engine.cfg.n_routers * kw["cycles"]
        # The probe is one C scan of every lane per attempt: never more
        # than 2 x lanes x n_routers LFSR words per skipped cycle, where
        # the old look-ahead rescanned lane 0 for every other lane's
        # arrival.  On the chunk path it fires once — up to the first
        # arrival; the rest of this near-idle run is one traffic window,
        # whose idle gaps the kernel jumps.  Deterministic: seeds and
        # loads are fixed.
        (generator,) = made
        (skipped,) = skips
        assert 200 < skipped < kw["cycles"] // 4 and engine.kernel_windows == 1
        assert 0 < generator.probe_words <= 2 * lanes * engine.cfg.n_routers * skipped

    def test_on_equals_off_with_a_gt_stream_present(self, monkeypatch):
        kw = dict(cycles=600, lanes=4, load=0.002, cfg=fig1_network(), gt_period=97)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "levelized", fast_forward=False, **kw
        )
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "python", fast_forward=False, **kw
        )
        # Two short GT streams, sparse BE: the idle window the run opens
        # on is found by the C probe and cut at the next GT firing —
        # within the same word budget as without GT.
        cfg = fig1_network()
        streams = fig1_gt_streams(cfg).streams[:2]
        made = capture_generator(monkeypatch)
        digests = {}
        for kernel, fast_forward in (("python", False), ("levelized", True)):
            engine = BatchEngine(cfg, lanes=2, kernel=kernel)
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(cfg, 0.0004, uniform_random(cfg), seed=0xBEE + i),
                    gt=GtStreamTraffic(cfg, streams, period=400, payload_bytes=8),
                )
                for i in range(2)
            ]
            skips = spy_skips(engine)
            run_batched(engine, drivers, 4000, fast_forward=fast_forward)
            digests[kernel] = full_digest(engine, drivers)
        assert digests["levelized"] == digests["python"]
        generator = made[-1]
        assert generator is not None and len(generator._gts) == 2
        assert len(skips) == 1 and 0 < skips[0] < 400
        assert 0 < generator.probe_words <= 2 * 2 * cfg.n_routers * sum(skips)

    def test_multi_segment_run_keeps_identity(self):
        # run_batched builds a fresh generator per call; the LFSR state
        # lives in the drivers, so segments compose.
        mutate = {n: (lambda engine, drivers: None) for n in (100, 1777, 1778)}
        kw = dict(cycles=3000, lanes=2, load=0.001, mutate=mutate)
        assert run_case("levelized", fast_forward=True, **kw) == run_case(
            "python", fast_forward=False, cycles=3000, lanes=2, load=0.001
        )


#: the Fig. 1 driver set in small: per-lane BE loads on a *shared* seed
#: (a zero-load lane and a ``be=None`` lane among them) beside the 36
#: reserved GT streams, GT period short enough to fire several times.
FIG1_LANE_LOADS = (0.0, 0.04, None, 0.14, 0.08)
FIG1_GT_PERIOD = 130
FIG1_SEED = 0x5EED


def fig1_driver(target, load, streams):
    net = target.cfg
    be = (
        None
        if load is None
        else BernoulliBeTraffic(net, load, uniform_random(net), seed=FIG1_SEED)
    )
    driver = TrafficDriver(
        target, be=be, gt=GtStreamTraffic(net, streams, period=FIG1_GT_PERIOD)
    )
    driver.attach_tracker(PacketLatencyTracker(net))
    return driver


def fig1_lane_digest(view, driver, be, gt, drained):
    """One lane (or one solo engine) after run + drain + collect."""
    driver.tracker.collect(view)
    return (
        view.snapshot(),
        [r.__dict__ for r in view.injections],
        [r.__dict__ for r in view.ejections],
        repr(driver.submits),
        driver.tracker.samples,
        None if be is None else (be.rng.state, be.rng.words_read, list(be._seq)),
        list(gt._seq),
        list(driver._be_vc_toggle),
        dict(driver._stall),
        drained,
    )


def run_fig1_batched(kernel, cycles):
    engine = BatchEngine(fig1_network(), lanes=len(FIG1_LANE_LOADS), kernel=kernel)
    streams = fig1_gt_streams(engine.cfg).streams
    assert len(streams) == 36
    drivers = [
        fig1_driver(engine.lane(i), load, streams)
        for i, load in enumerate(FIG1_LANE_LOADS)
    ]
    sources = [(d.be, d.gt) for d in drivers]
    run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = driver.gt = None
    drained = drain_batched(engine, drivers)
    return engine, [
        fig1_lane_digest(engine.lane(i), driver, *sources[i], drained[i])
        for i, driver in enumerate(drivers)
    ]


class TestOneBodyOwnsFig1:
    @needs_jit
    def test_auto_engine_is_the_jit_tier_and_chunks(self):
        engine = BatchEngine(torus(), lanes=2)
        assert engine.kernel == "jit" and engine.kernel_reason is None
        assert isinstance(engine._compiled, CompiledBatchLevel)
        assert engine.schedule is None  # natural order: no levelize() call
        explicit = BatchEngine(torus(), lanes=2, kernel="levelized")
        assert explicit.kernel == "levelized" and explicit.kernel_reason is None
        # one body, one .so: the fabric and the orders are runtime arguments
        assert engine._compiled._lib is explicit._compiled._lib
        assert BatchEngine(torus(4, 4), lanes=1)._compiled._lib is engine._compiled._lib

    @needs_jit
    def test_fig1_set_chunked_equals_python_equals_solo_golden(self, monkeypatch):
        cycles = 300
        chunks = []
        real = CompiledBatchLevel.run_chunk
        monkeypatch.setattr(
            CompiledBatchLevel,
            "run_chunk",
            lambda self, drivers, k, window=None: (
                chunks.append(window is not None),
                real(self, drivers, k, window),
            )[1],
        )
        engine, chunked = run_fig1_batched("auto", cycles)
        assert engine.kernel == "jit"
        assert len(chunks) > 1 and all(chunks)  # every window from the C scan
        ran = len(chunks)
        _, stepped = run_fig1_batched("python", cycles)
        assert len(chunks) == ran
        assert chunked == stepped
        streams = fig1_gt_streams(fig1_network()).streams
        for lane, load in enumerate(FIG1_LANE_LOADS):
            golden = CycleEngine(fig1_network())
            driver = fig1_driver(golden, load, streams)
            be, gt = driver.be, driver.gt
            driver.run(cycles)
            driver.be = driver.gt = None
            drained = driver.drain()
            # lanes that drain early idle until the slowest one has
            golden.run(engine.cycle - golden.cycle)
            assert chunked[lane] == fig1_lane_digest(golden, driver, be, gt, drained)
        # the lanes did carry what the name says
        assert sum(len(d[1]) for d in chunked) > 2000
        assert chunked[0][5][1] == 0  # zero load: no LFSR word drawn
        assert chunked[2][5] is None  # be=None
        assert chunked[3][5][1] > 36 * cycles  # 0.14: draws and destinations

    @needs_jit
    def test_numpy_env_steps_the_fig1_set_bit_identically(self, monkeypatch):
        _, reference = run_fig1_batched("python", 200)
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        engine, stepped = run_fig1_batched("auto", 200)
        assert engine.kernel == "python" and engine._compiled is None
        assert stepped == reference

    @needs_jit
    def test_windows_equal_per_cycle_generate_with_gt_and_mixed_loads(self):
        def build():
            engine = BatchEngine(fig1_network(), lanes=len(FIG1_LANE_LOADS), kernel="python")
            streams = fig1_gt_streams(engine.cfg).streams
            return [
                fig1_driver(engine.lane(i), load, streams)
                for i, load in enumerate(FIG1_LANE_LOADS)
            ]

        windowed, stepped, batched = build(), build(), build()
        generator, reason = trafficgen.batched_be_generator(windowed)
        per_cycle, _ = trafficgen.batched_be_generator(batched)
        assert generator is not None and reason is None
        start = 0
        for width in (1, 7, 64, 64, 7, 1, 150):  # 150: wider than the GT period
            for cycle in range(start, start + width):
                admit_window(batched, per_cycle.generate_window(cycle, cycle + 1))
                for driver in stepped:
                    driver.generate(cycle)
            stop = start + width
            while start < stop:  # the flit budget ends a window early
                window = generator.generate_window(start, stop)
                ends = [0, *window.queues[3].tolist()]
                for lo, hi in zip(ends, ends[1:]):  # each queue's run: in release order
                    assert (window.flits[F_CYCLE, lo + 1 : hi] >= window.flits[F_CYCLE, lo : hi - 1]).all()
                admit_window(windowed, window)
                start = window.stop
            assert generation_state(windowed) == generation_state(stepped)
            assert generation_state(batched) == generation_state(stepped)
        gt_packets = sum(sum(d.gt._seq) for d in stepped)
        assert gt_packets >= 2 * 36 * len(stepped)

    @needs_jit
    def test_non_uniform_patterns_generate_in_python_inside_chunks(self, monkeypatch):
        cfg = NetworkConfig(6, 6, topology="torus")

        def run(kernel):
            engine = BatchEngine(cfg, lanes=2, kernel=kernel)
            patterns = (transpose(cfg), hotspot(cfg, target=14, fraction=0.4))
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(cfg, 0.1, pattern, seed=0x7A77),
                )
                for i, pattern in enumerate(patterns)
            ]
            generator, reason = trafficgen.batched_be_generator(drivers)
            assert generator is None and "non-uniform destination pattern" in reason
            run_batched(engine, drivers, 200)
            return full_digest(engine, drivers)

        chunks = []
        real = CompiledBatchLevel.run_chunk
        monkeypatch.setattr(
            CompiledBatchLevel,
            "run_chunk",
            lambda self, drivers, k, window=None: (
                chunks.append(window.objects is not None),
                real(self, drivers, k, window),
            )[1],
        )
        assert run("auto") == run("python")
        assert chunks and all(chunks)  # chunked; windows of packet objects

    @needs_jit
    def test_single_cycle_steps_coalesce_into_few_log_parts(self):
        # An opaque hook keeps run_batched on the per-cycle path, where
        # the compiled tiers log through one-cycle step_range calls.
        cycles = 700
        results = {}
        for kernel in ("python", "jit"):
            engine = BatchEngine(torus(), lanes=3, kernel=kernel)
            engine.pre_step_hooks.append(lambda e: None)
            drivers = make_drivers(engine, 0.1)
            run_batched(engine, drivers, cycles)
            results[kernel] = (engine, full_digest(engine, drivers))
        assert results["jit"][1] == results["python"][1]
        engine = results["jit"][0]
        reference = results["python"][0]
        for lane in range(3):
            for log, want in (
                (engine.lane_injections(lane), reference.lane_injections(lane)),
                (engine.lane_ejections(lane), reference.lane_ejections(lane)),
            ):
                assert len(log) > 200 and log == list(want)
                assert len(log._parts) <= 2 + cycles // 64


# -- the corner battery of the activity-driven body --------------------------
#
# The body derives its occupancy masks from the state arrays at call
# entry and evaluates only routers that hold something.  Every corner
# where a stale or wrong mask would show is driven here against the NumPy
# sweeps on every lane and against the golden cycle engine on the first
# and last: saturation (full-masks, stalls, overload parity), depth 1,
# per-router depths, mesh edges, a link quarantined mid-run, GT + BE,
# chunk lengths 1 / 7 / 64 around single steps of a lane sub-range (a
# fault-pinned lane splits the others into ``step_range`` calls), and
# state changed *between* calls — by ``offer()`` (an idle word too: sent,
# never buffered), by a restore that rebinds every state array, by direct
# ``ArrayState`` writes — so lanes also enter calls with latched eject
# flags and valid injection registers.

CORNER_FABRICS = {
    "depth 1": lambda: torus(queue_depth=1),
    "per-router depths": lambda: NetworkConfig(
        3,
        3,
        topology="torus",
        router=RouterConfig(queue_depth=2),
        router_overrides=(
            (4, RouterConfig(queue_depth=5)),
            (7, RouterConfig(queue_depth=1)),
        ),
    ),
    "mesh": lambda: NetworkConfig(
        3, 4, topology="mesh", router=RouterConfig(queue_depth=2)
    ),
    "fig1": fig1_network,
}


def planted_words(net, dest):
    """A complete two-flit GT packet for ``dest``: HEAD, TAIL."""
    dw = net.router.data_width
    x, y = net.coords(dest)
    return [
        Header(x, y, gt=True).head_flit().encode(dw),
        Flit(FlitType.TAIL, 0x5A).encode(dw),
    ]


class BatchCorner:
    """One batched engine walking a corner plan."""

    def __init__(self, kernel, net, lanes, load, gt_period, stall_limit):
        self.net = net
        self.engine = BatchEngine(net, lanes=lanes, kernel=kernel)
        self.drivers = make_drivers(
            self.engine, load, gt_period=gt_period, stall_limit=stall_limit
        )
        self.extras = [PacketDriver(self.engine.lane(i)) for i in range(lanes)]

    def run(self, cycles):
        run_batched(self.engine, self.drivers, cycles)

    def fault(self, lane, cycles):
        self.engine.mark_lane_fault(lane)
        self.run(cycles)
        self.engine.clear_lane_fault(lane)

    def offer(self, lane, src, dest):
        self.extras[lane].send(gt_packet(self.net, src, dest, nbytes=6), 0)

    def idle(self, lane, router):
        self.engine.offer(router, 3, IDLE_FLIT, lane=lane)

    def rebind(self):
        state = self.engine.state
        for name in FIELDS:
            setattr(state, name, getattr(state, name).copy())

    def plant(self, lane, router, dest):
        S = self.engine.state
        words = planted_words(self.net, dest)
        if (
            S.count[lane, router, 1]
            or S.queue_alloc[lane, router, 1] >= 0
            or S.depth[router] < len(words)
        ):
            return
        for word in words:
            S.mem[lane, router, 1, S.wr[lane, router, 1]] = word
            S.wr[lane, router, 1] = (S.wr[lane, router, 1] + 1) % S.depth[router]
            S.count[lane, router, 1] += 1

    def quarantine(self, router, port):
        self.engine.quarantine_link(router, port)

    def boundary(self):
        for extra in self.extras:
            extra.pump()

    def digest(self):
        return full_digest(self.engine, self.drivers)


class GoldenCorner:
    """The golden cycle engine walking the same plan as one lane."""

    def __init__(self, net, lane, load, gt_period, stall_limit):
        self.net = net
        self.lane = lane
        self.engine = CycleEngine(net)
        self.driver = lane_driver(self.engine, load, 0xBEE + lane, gt_period, stall_limit)
        self.extra = PacketDriver(self.engine)

    def run(self, cycles):
        for _ in range(cycles):
            self.driver.step()

    def fault(self, lane, cycles):
        self.run(cycles)

    def offer(self, lane, src, dest):
        if lane == self.lane:
            self.extra.send(gt_packet(self.net, src, dest, nbytes=6), 0)

    def idle(self, lane, router):
        if lane == self.lane:
            self.engine.offer(router, 3, IDLE_FLIT)

    def rebind(self):
        pass

    def plant(self, lane, router, dest):
        queue = self.engine.states[router].queues[1]
        words = planted_words(self.net, dest)
        if lane != self.lane or queue.count or queue.depth < len(words):
            return
        if self.engine.states[router].queue_alloc[1] >= 0:
            return
        for word in words:
            queue.push(word)

    def quarantine(self, router, port):
        self.engine.quarantine_link(router, port)

    def boundary(self):
        self.extra.pump()


def walk(corner, plan):
    """Apply ``plan`` step by step; returns the overload message, if the
    run ended in one."""
    try:
        for step, *args in plan:
            getattr(corner, step)(*args)
            corner.boundary()
    except NetworkOverloadError as exc:
        return str(exc)
    return None


def check_corner(fabric, load, plan, lanes=3, gt_period=None, stall_limit=10_000):
    net = CORNER_FABRICS[fabric]()
    sides = {}
    for kernel in ("levelized", "python"):
        corner = BatchCorner(kernel, net, lanes, load, gt_period, stall_limit)
        error = walk(corner, plan)
        sides[kernel] = (error, corner.digest(), [d.overloaded for d in corner.drivers])
    assert sides["levelized"] == sides["python"]
    engine = corner.engine  # the reference: the compiled side equals it
    error = sides["python"][0]
    if error is not None:
        return error  # the solo engines stop elsewhere; parity is the claim
    for lane in sorted({0, lanes - 1}):
        golden = GoldenCorner(net, lane, load, gt_period, stall_limit)
        assert walk(golden, plan) is None
        assert engine.lane_snapshot(lane) == golden.engine.snapshot()
        assert engine.lane_injections(lane) == golden.engine.injections
        assert engine.lane_ejections(lane) == golden.engine.ejections
        assert driver_digest(corner.drivers[lane]) == driver_digest(golden.driver)
    return None


@st.composite
def corner_plans(draw):
    fabric = draw(st.sampled_from(sorted(CORNER_FABRICS)))
    gt = fabric == "fig1"
    routers = CORNER_FABRICS[fabric]().n_routers
    router = st.integers(min_value=0, max_value=routers - 1)
    lane = st.integers(min_value=0, max_value=2)
    steps = [
        st.tuples(st.just("run"), st.sampled_from([1, 7, 64])),
        st.tuples(st.just("fault"), lane, st.sampled_from([1, 3])),
        st.tuples(st.just("rebind")),
        st.tuples(st.just("idle"), lane, router),
    ]
    if not gt:  # the GT VCs are free for traffic from outside the drivers
        steps += [
            st.tuples(st.just("offer"), lane, router, router),
            st.tuples(st.just("plant"), lane, router, router),
        ]
    if fabric != "mesh":  # a mesh has no second path to reroute onto
        steps.append(st.tuples(st.just("quarantine"), router, st.integers(1, 4)))
    plan = draw(st.lists(st.one_of(steps), min_size=4, max_size=10))
    load = draw(st.sampled_from([0.05, 0.3, 0.6, 1.0]))
    stall_limit = draw(st.sampled_from([25, 10_000]))
    return fabric, load, plan, (40 if gt else None), stall_limit


class TestCornerBattery:
    @needs_jit
    @given(case=corner_plans())
    @settings(max_examples=25, deadline=None)
    def test_compiled_equals_numpy_equals_golden(self, case):
        fabric, load, plan, gt_period, stall_limit = case
        check_corner(fabric, load, plan, gt_period=gt_period, stall_limit=stall_limit)

    @needs_jit
    @pytest.mark.kernel_smoke
    def test_fixed_point_visits_every_corner(self):
        plan = [
            ("run", 7),
            ("offer", 0, 2, 5),
            ("run", 1),
            ("plant", 2, 4, 0),
            ("run", 1),
            ("fault", 1, 3),
            ("rebind",),
            ("idle", 0, 6),
            ("run", 64),
            ("quarantine", 5, 1),
            ("offer", 2, 8, 1),
            ("run", 7),
            ("plant", 0, 3, 7),
            ("run", 1),
            ("run", 64),
        ]
        assert check_corner("per-router depths", 0.3, plan) is None
        # saturated, depth 1: the run ends in the reference's diagnosis
        error = check_corner("depth 1", 1.0, plan, stall_limit=25)
        assert error is not None and "network overloaded" in error
        assert check_corner("mesh", 0.6, [s for s in plan if s[0] != "quarantine"]) is None
        gt_plan = [("run", 7), ("fault", 0, 1), ("rebind",), ("run", 64), ("run", 1)]
        assert check_corner("fig1", 0.3, gt_plan, gt_period=40) is None


def poisoned_run(kernel, poison, at=75):
    """BE traffic on two lanes with ``poison`` — ``(lane, router, head
    flit)`` triples — staged at the head of a BE queue for cycle ``at``,
    mid-chunk: every head is offered at ``at``, buffered in that cycle's
    commit and decoded, fatally, in the next."""
    engine = BatchEngine(torus(), lanes=2, kernel=kernel)
    drivers = make_drivers(engine, 0.05)
    dw = engine.cfg.router.data_width
    vc = engine.cfg.router.be_vcs[0]
    tail = Flit(FlitType.TAIL, 0).encode(dw)
    for lane, router, head in poison:
        drivers[lane].queues.append(router, vc, [head.encode(dw), tail], at, 10_000)
    with pytest.raises((IndexError, ProtocolError)) as err:
        run_batched(engine, drivers, 200)
    assert engine.cycle == at + 1
    # the engine stands where the per-cycle reference stops (the traffic
    # does not: a chunk's window is generated ahead, and only an overload
    # — an error the *drivers* diagnose — rewinds it)
    lanes, cycle, deltas = full_digest(engine, drivers)
    return type(err.value), str(err.value), [lane[:3] for lane in lanes], cycle, deltas


@needs_jit
class TestChunkErrorParity:
    """Architectural errors raised mid-chunk, with candidates on several
    lanes in one cycle: the class precedence and the lowest-flat-index
    rule of the vectorized sweep, and the reference's state after it."""

    LOST = Header(dest_x=9, dest_y=9).head_flit()
    ASTRAY = Header(dest_x=8, dest_y=8).head_flit()
    GT_ON_BE = Header(dest_x=1, dest_y=0, gt=True).head_flit()

    def both(self, poison):
        compiled = poisoned_run("levelized", poison)
        assert compiled == poisoned_run("python", poison)
        return compiled

    def test_route_error_outranks_gt_error_on_a_lower_lane(self):
        kind, message, *_ = self.both([(1, 2, self.LOST), (0, 1, self.GT_ON_BE)])
        assert kind is IndexError and "(9, 9)" in message

    def test_lowest_lane_then_router_wins_within_a_class(self):
        _, message, *_ = self.both([(1, 0, self.ASTRAY), (0, 5, self.LOST)])
        assert "(9, 9)" in message  # lane 0, whatever the router
        _, message, *_ = self.both([(1, 6, self.LOST), (1, 2, self.ASTRAY)])
        assert "(8, 8)" in message  # one lane: router 2 before router 6
        kind, message, *_ = self.both([(1, 1, self.GT_ON_BE), (0, 7, self.GT_ON_BE)])
        assert kind is ProtocolError and message.startswith("router 7: GT head")

    def test_corrupted_count_trips_the_overflow_check(self):
        # The full-mask says "room" only while count < depth; a count
        # corrupted beyond the depth breaks that as soon as the queue
        # pops, and the commit's check of every push still catches it.
        cfg = NetworkConfig(4, 4, topology="torus", router=RouterConfig(queue_depth=2))
        engine = BatchEngine(cfg, lanes=1, kernel="levelized")
        drivers = [TrafficDriver(engine.lane(0))]
        drivers[0].send_packet(
            Packet(src=0, dest=2, pclass=PacketClass.BE, payload=bytes(80)),
            cfg.router.be_vcs[0],
        )
        run_batched(engine, drivers, 8)  # the worm now streams through router 1
        state = engine.state
        (queue,) = np.flatnonzero((state.count[0, 1] > 0) & (state.queue_alloc[0, 1] >= 0))
        state.count[0, 1, queue] = state.depth[1] + 2
        with pytest.raises(ProtocolError, match="queue overflow: upstream ignored room"):
            run_batched(engine, drivers, 8)


@needs_jit
class TestActivityCounters:
    """``kernel_router_evals`` / ``kernel_lane_cycles`` are counts: they
    repeat exactly, however the run is cut into calls."""

    CYCLES = 448

    def run(self, length, hook=False):
        engine = BatchEngine(torus(), lanes=3, kernel="levelized")
        if hook:  # declines the chunk path: one call per cycle
            engine.pre_step_hooks.append(lambda e: None)
        drivers = make_drivers(engine, 0.08)
        for _ in range(self.CYCLES // length):
            run_batched(engine, drivers, length)
        assert engine.cycle == self.CYCLES
        return engine.kernel_router_evals, engine.kernel_lane_cycles

    def test_repeat_across_runs_and_chunk_lengths(self):
        evals, lane_cycles = self.run(64)
        assert (evals, lane_cycles) == self.run(64)
        assert (evals, lane_cycles) == self.run(7)
        assert (evals, lane_cycles) == self.run(1)
        assert (evals, lane_cycles) == self.run(64, hook=True)
        assert 0 < lane_cycles <= 3 * self.CYCLES
        assert 0 < evals <= lane_cycles * 9
        # the delta metrics stay nominal: three sweeps of every router
        engine = BatchEngine(torus(), lanes=3, kernel="levelized")
        run_batched(engine, make_drivers(engine, 0.08), 70)
        assert engine.metrics.total_deltas == 70 * 3 * 9

    def test_numpy_sweeps_count_nothing(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        run_batched(engine, make_drivers(engine, 0.08), 40)
        assert (engine.kernel_router_evals, engine.kernel_lane_cycles) == (0, 0)


class TestChunkDecline:
    """Every way ``run_batched`` drops to one call per cycle has a name."""

    def reason(self, engine, drivers=None):
        drivers = make_drivers(engine, 0.05) if drivers is None else drivers
        reason = chunk_decline(engine, drivers)
        assert (chunk_kernel(engine, drivers) is None) == (reason is not None)
        return reason

    def test_no_body(self):
        engine = BatchEngine(torus(), lanes=2, kernel="python")
        assert self.reason(engine) == "the engine has no generated-C body"
        assert self.reason(CycleEngine(torus()), []) == "the engine has no generated-C body"

    @needs_jit
    def test_each_objection(self):
        engine = BatchEngine(torus(), lanes=2, kernel="levelized")
        drivers = make_drivers(engine, 0.05)
        assert self.reason(engine, drivers) is None
        engine.pre_step_hooks.append(lambda e: None)
        assert "pre-step hook" in self.reason(engine, drivers)
        engine.pre_step_hooks.clear()
        engine.mark_lane_fault(1)
        assert "resident fault" in self.reason(engine, drivers)
        engine.clear_lane_fault(1)
        assert self.reason(engine, drivers[:1]) == "1 drivers for 2 lanes"
        assert "bound to lane 1" in self.reason(engine, drivers[::-1])
        other = make_drivers(BatchEngine(torus(), lanes=2, kernel="levelized"), 0.05)
        assert "another engine" in self.reason(engine, [drivers[0], other[1]])

        class Custom(TrafficDriver):
            pass

        custom = Custom(engine.lane(1))
        assert "is a Custom" in self.reason(engine, [drivers[0], custom])
        mixed = make_drivers(engine, 0.05, stall_limit=7)
        assert "stall limits differ" in self.reason(engine, [drivers[0], mixed[1]])
        assert self.reason(engine, drivers) is None


def test_fast_forward_without_c_tier_just_steps(monkeypatch):
    # No C tier: there is no BE look-ahead at all, so a live BE stream
    # vetoes every skip and the run steps — bit-identical by construction.
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    engine = BatchEngine(torus(), lanes=2, kernel="levelized")
    assert engine._compiled is None
    drivers = make_drivers(engine, 0.004)
    skips = spy_skips(engine)
    run_batched(engine, drivers, 800, fast_forward=True)
    monkeypatch.delenv("REPRO_KERNELS")
    assert skips == []
    assert full_digest(engine, drivers) == run_case(
        "python", cycles=800, lanes=2, load=0.004
    )


def _reference_shift(state: int, mask: int, width: int) -> int:
    """One Galois right-shift step, the O(steps) reference."""
    lsb = state & 1
    state >>= 1
    if lsb:
        state ^= mask
    return state


class TestLfsrJump:
    """The closed-form jump is bit-identical to iterated single steps —
    over random widths, tap masks and distances, not just the shipped
    32-bit Galois polynomial."""

    @given(
        width=st.integers(min_value=2, max_value=48),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_jump_equals_iterated_steps(self, width, data):
        mask = data.draw(st.integers(min_value=1, max_value=(1 << width) - 1))
        state = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        steps = data.draw(st.integers(min_value=0, max_value=300))
        expected = state
        for _ in range(steps):
            expected = _reference_shift(expected, mask, width)
        assert lfsr_jump(state, steps, mask=mask, width=width) == expected

    @given(
        state=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=0, max_value=10_000),
        b=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_jump_composes(self, state, a, b):
        assert lfsr_jump(lfsr_jump(state, a), b) == lfsr_jump(state, a + b)

    @given(words=st.integers(min_value=0, max_value=400))
    @settings(max_examples=30, deadline=None)
    def test_hardware_jump_matches_reads(self, words):
        stepped = HardwareLfsr(seed=0xDEADBEEF)
        jumped = HardwareLfsr(seed=0xDEADBEEF)
        for _ in range(words):
            stepped.next_u32()
        returned = jumped.jump(words)
        assert returned == jumped.state == stepped.state
        assert jumped.words_read == stepped.words_read == words

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            lfsr_jump(1, -1)
        with pytest.raises(ValueError):
            lfsr_jump(1 << 32, 1)
        with pytest.raises(ValueError):
            HardwareLfsr().jump(-1)


class TestFarmRngResumeCheck:
    """The farm reuses lfsr_jump to cross-check a resumed checkpoint's
    RNG state against its word count."""

    def test_consistent_pair_accepted(self):
        from repro.farm.jobs import _validate_rng_resume

        rng = HardwareLfsr(seed=0x5EED)
        for _ in range(37):
            rng.next_u32()
        _validate_rng_resume(
            HardwareLfsr(seed=0x5EED),
            {"rng_state": rng.state, "rng_words": rng.words_read},
        )

    def test_torn_pair_rejected(self):
        from repro.farm.jobs import _validate_rng_resume

        rng = HardwareLfsr(seed=0x5EED)
        for _ in range(37):
            rng.next_u32()
        with pytest.raises(ValueError, match="does not match its word count"):
            _validate_rng_resume(
                HardwareLfsr(seed=0x5EED),
                {"rng_state": rng.state, "rng_words": rng.words_read - 1},
            )
