"""The choice of execution body: the ``kernel=`` labels.

Capability probing, the one rule (the ``kernel=`` argument and what the
host can build), which engine takes which label, the
degrade-with-one-warning contract and a host without a C compiler.
"""

import warnings

import pytest

import repro.engines.batch as batch
from repro.kernels import KernelUnavailableError, kernel_versions, probe_backends
from repro.noc import NetworkConfig
from tests.test_batch_levelized import needs_jit


class TestEngineFallback:
    def test_levelized_rejects_bad_kernel_name(self):
        from repro.engines import make_engine

        cfg = NetworkConfig(3, 3)
        # the sequential engine takes no tier label; the error says its
        # default already is the compiled body
        for kernel in ("levelized", "jit"):
            with pytest.raises(
                ValueError,
                match="'sequential'.*auto already binds the generated-C body",
            ):
                make_engine("sequential", cfg, kernel=kernel)
        with pytest.raises(ValueError, match="'sequential'") as excinfo:
            make_engine("sequential", cfg, kernel="bogus")
        assert "--engine batch" not in str(excinfo.value)
        with pytest.raises(ValueError, match="batch"):
            make_engine("batch", cfg, kernel="bogus")
        with pytest.raises(ValueError, match="rtl"):
            make_engine("rtl", cfg, kernel="jit")
        # batch + levelized is a valid pairing: the fused chunk kernel
        # (KernelUnavailableError where the host cannot build it).
        if probe_backends()["cffi"] == "ok":
            assert make_engine("batch", cfg, kernel="levelized").kernel == "levelized"


class TestBackendLadder:
    def test_probe_backends_shape(self):
        probes = probe_backends()
        assert set(probes) == {"cffi", "numpy"}
        assert probes["numpy"] == "ok"

    def test_kernel_versions_shape(self):
        versions = kernel_versions()
        assert set(versions) == {"cffi", "cc"}

    def test_resolve_mode_rejects_unknown(self):
        from repro.engines import BatchEngine, SequentialEngine

        cfg = NetworkConfig(3, 3)
        with pytest.raises(ValueError, match="auto|python|levelized|jit"):
            BatchEngine(cfg, kernel="fortran")
        with pytest.raises(ValueError, match="auto|python"):
            SequentialEngine(cfg, kernel="fortran")

    def test_numpy_mode_forces_fallback(self):
        from repro.engines import BatchEngine

        engine = BatchEngine(NetworkConfig(3, 3), lanes=2, kernel="python")
        assert engine.kernel == "python" and engine._compiled is None
        assert engine.kernel_reason is None  # asked for, not fallen back to

    def test_degrade_warns_exactly_once(self, monkeypatch, no_cc):
        from repro.engines import BatchEngine

        monkeypatch.setattr(batch, "_warned_degrade", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                assert BatchEngine(NetworkConfig(3, 3)).kernel == "python"
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)
        assert "no C compiler" in str(runtime[0].message)

    def test_jit_mode_raises_when_unavailable(self, no_cc):
        from repro.engines import BatchEngine

        for kernel in ("jit", "levelized"):
            with pytest.raises(KernelUnavailableError, match="no C compiler"):
                BatchEngine(NetworkConfig(3, 3), kernel=kernel)

    def test_batch_engine_degrades_with_reason(self, monkeypatch):
        from repro.engines import BatchEngine

        from repro.kernels import cbackend

        monkeypatch.setattr(
            cbackend, "availability", lambda: "cffi is not installed"
        )
        monkeypatch.setattr(batch, "_warned_degrade", True)  # quiet
        engine = BatchEngine(NetworkConfig(3, 3), lanes=2)
        assert engine.kernel == "python"
        assert engine.kernel_reason == "cffi is not installed"
        with pytest.raises(KernelUnavailableError, match="cffi is not installed"):
            BatchEngine(NetworkConfig(3, 3), lanes=2, kernel="jit")

    @needs_jit
    def test_without_a_compiler_every_consumer_ends_bit_identical(self, request):
        """Each consumer of the generated-C tier falls back to its
        reference with the reason named — same state, logs and samples
        as on the C bodies — and an explicit ``jit`` / ``levelized``
        refuses."""
        from repro.engines import BatchEngine

        compiled, bodies, reasons = run_every_consumer()
        assert bodies == ("jit", "jit", None, ["c", "c"])
        assert set(reasons) == {None}
        request.getfixturevalue("no_cc")
        degraded, bodies, reasons = run_every_consumer()
        assert degraded == compiled
        assert bodies == (
            "python",
            "python",
            "the engine has no generated-C body",
            ["numpy", "numpy"],
        )
        assert all("no C compiler" in reason for reason in reasons)
        for kernel in ("jit", "levelized"):
            with pytest.raises(KernelUnavailableError, match="no C compiler"):
                BatchEngine(NetworkConfig(4, 4, topology="torus"), kernel=kernel)


def run_every_consumer():
    """One workload through every consumer of the C tier, each on the
    body the host allows: a two-lane auto :class:`BatchEngine` (its
    windows from ``window_source``), a latency tracker per lane and the
    auto sequential engine.  Returns what they computed, the bodies they
    ran on and their recorded reasons."""
    from repro.engines import BatchEngine, SequentialEngine, drain_batched, run_batched
    from repro.engines.batch import window_source
    from repro.kernels.trafficgen import batched_be_generator
    from repro.stats import PacketLatencyTracker
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    cfg = NetworkConfig(4, 4, topology="torus")

    def driver(target, seed):
        be = BernoulliBeTraffic(cfg, 0.1, uniform_random(cfg), seed=seed)
        return TrafficDriver(target, be=be)

    engine = BatchEngine(cfg, lanes=2)
    drivers = [driver(engine.lane(i), 7 + i) for i in range(2)]
    source = window_source(engine, drivers)
    _, scan_reason = batched_be_generator(drivers)
    run_batched(engine, drivers, 300)
    drain_batched(engine, drivers)
    trackers = []
    for lane, lane_driver in enumerate(drivers):
        tracker = PacketLatencyTracker(cfg)
        for record in lane_driver.submits:
            tracker.note_submit(record)
        tracker.collect(engine.lane(lane))
        trackers.append(tracker)
    sequential = SequentialEngine(cfg)
    driver(sequential, 9).run(300)
    computed = (
        [
            (engine.lane_snapshot(i), list(engine.lane_injections(i)),
             list(engine.lane_ejections(i)), trackers[i].samples.columns.tolist())
            for i in range(2)
        ],
        engine.cycle,
        sequential.snapshot(),
        list(sequential.injections),
        list(sequential.ejections),
        list(sequential.metrics.per_cycle),
    )
    bodies = (
        engine.kernel,
        sequential.kernel,
        source.reason,
        [tracker.kernel for tracker in trackers],
    )
    reasons = (
        engine.kernel_reason,
        sequential.kernel_reason,
        scan_reason,
        *(tracker.kernel_reason for tracker in trackers),
    )
    return computed, bodies, reasons
