"""The sequential engine: two statements of section 4.2, one count.

``SequentialEngine(cfg)`` is one lane of the generated body with its HBR
accounting pass on; ``SequentialNetwork`` is the Python model of the same
protocol and stays the reference.  Every drive path of the engine — per
cycle, ``TrafficDriver.run``, chunked, fast-forwarded — must reproduce
the model's delta count of *every cycle*, next to the state, logs and
driver books the batch batteries already pin; and where no generated-C
tier can be bound the engine *is* the model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, SequentialEngine, lane_views, make_engine, run_batched
from repro.engines.batch import chunk_decline
from repro.engines.sequential import CompiledSequentialEngine, ModelSequentialEngine
from repro.kernels import probe_backends
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.reservation import GtReservationTable, ReservationError
from repro.seqsim.sequential import SequentialNetwork
from repro.traffic import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    TrafficDriver,
    uniform_random,
)

from tests.test_batch_levelized import driver_state

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"no compiled backend: {JIT_REASON}"
)


def model(cfg):
    """The reference: the Python model under the literal round-robin
    scan."""
    return SequentialNetwork(cfg, scheduler="roundrobin")


def network(topology, shape, depth, hetero):
    overrides = ()
    if hetero:  # a deep and a one-flit router among the base depth
        overrides = ((0, RouterConfig(queue_depth=8)), (3, RouterConfig(queue_depth=1)))
    return NetworkConfig(
        *shape,
        topology=topology,
        router=RouterConfig(queue_depth=depth),
        router_overrides=overrides,
    )


def driver_for(engine, load, gt_period, seed):
    cfg = engine.cfg
    gt = None
    if gt_period:
        table = GtReservationTable(cfg)
        for src in range(cfg.n_routers):
            try:
                table.reserve(src, (src + 1) % cfg.n_routers)
            except ReservationError:
                pass
        gt = GtStreamTraffic(cfg, table.streams, period=gt_period, payload_bytes=8)
    be = BernoulliBeTraffic(cfg, load, uniform_random(cfg), seed=seed)
    return TrafficDriver(engine, be=be, gt=gt)


def observed(engine, driver):
    return (
        engine.metrics.per_cycle,
        engine.snapshot(),
        list(engine.injections),
        list(engine.ejections),
        driver_state(driver),
    )


def stepped(driver, cycles):
    for _ in range(cycles):
        driver.step()


scenarios = st.fixed_dictionaries(
    dict(
        topology=st.sampled_from(["torus", "mesh"]),
        shape=st.sampled_from([(2, 2), (3, 3), (4, 3), (3, 5)]),
        depth=st.sampled_from([1, 2, 4]),
        hetero=st.booleans(),
        load=st.sampled_from([0.0, 0.02, 0.08, 0.2, 0.4]),
        gt_period=st.sampled_from([0, 40]),
        seed=st.integers(1, 2**32 - 1),
        # run lengths off the 64-cycle chunk grid, in several calls
        calls=st.lists(
            st.integers(1, 150).filter(lambda n: n % 64), min_size=1, max_size=3
        ),
    )
)


@needs_jit
class TestDeltaEquality:
    """``per_cycle`` list-equal to the model's on every drive path."""

    @settings(deadline=None, max_examples=25)
    @given(case=scenarios)
    def test_per_cycle_and_driver_run_match_the_model(self, case):
        cfg = network(case["topology"], case["shape"], case["depth"], case["hetero"])
        traffic = (case["load"], case["gt_period"], case["seed"])
        reference = model(cfg)
        want_driver = driver_for(reference, *traffic)
        stepped(want_driver, sum(case["calls"]))
        want = observed(reference, want_driver)
        assert min(want[0]) >= cfg.n_routers

        by_cycle = SequentialEngine(cfg)
        driver = driver_for(by_cycle, *traffic)
        stepped(driver, sum(case["calls"]))  # offer / step
        assert observed(by_cycle, driver) == want

        for bound_to in (lambda e: e, lambda e: lane_views(e)[0]):
            handed = SequentialEngine(cfg)
            driver = driver_for(bound_to(handed), *traffic)
            assert chunk_decline(handed, [driver]) is None
            for cycles in case["calls"]:
                driver.run(cycles)  # whole windows: C scan, fused chunks
            assert observed(handed, driver) == want

    @settings(deadline=None, max_examples=5)
    @given(
        topology=st.sampled_from(["torus", "mesh"]),
        depth=st.sampled_from([1, 2]),
        seed=st.integers(1, 2**32 - 1),
        cycles=st.integers(2500, 3500).filter(lambda n: n % 64),
    )
    def test_fast_forward_credits_the_floor_for_every_skipped_cycle(
        self, topology, depth, seed, cycles
    ):
        cfg = network(topology, (3, 3), depth, hetero=False)
        reference = model(cfg)
        want_driver = driver_for(reference, 0.0002, 0, seed)
        stepped(want_driver, cycles)
        engine = SequentialEngine(cfg)
        driver = driver_for(engine, 0.0002, 0, seed)
        run_batched(engine, [driver], cycles, fast_forward=True)
        assert observed(engine, driver) == observed(reference, want_driver)
        # most cycles were never stepped, a few were
        assert 0 < engine.kernel_lane_cycles < cycles // 4 or not engine.injections

    @pytest.mark.parametrize(
        "shape",
        [(8, 8), (13, 5), (9, 8), (16, 8), (16, 16)],
        ids=["64", "65", "72", "128", "256"],
    )
    def test_the_pick_wraps_across_mask_words(self, shape):
        """The non-stable and settled sets are one bit a unit in 64-bit
        words, as many as the body was compiled for: 64 units fill one
        word exactly, 65 spill one unit into a second, 72 and 128 take
        two (128 fills both), 256 four.  Same counts, pointer wrap
        included."""
        cfg = network("torus", shape, 2, hetero=False)
        reference, engine = model(cfg), SequentialEngine(cfg)
        want_driver = driver_for(reference, 0.15, 0, 0x5EED)
        stepped(want_driver, 45)
        driver = driver_for(engine, 0.15, 0, 0x5EED)
        driver.run(45)
        assert observed(engine, driver) == observed(reference, want_driver)
        assert max(engine.metrics.per_cycle) > cfg.n_routers

    def test_a_push_that_changes_no_wire_evaluates_nothing(self):
        """At depth 3 many pushes land in an allocated queue that holds a
        flit and has room left after it: the router's ready set, head
        flit and room words are what they were, so its unit stays
        settled.  The count is the model's all the same, with fewer
        units evaluated than when every push unsettled its router
        (3,309 on this run)."""
        cfg = network("torus", (4, 4), 3, hetero=False)
        reference = model(cfg)
        want_driver = driver_for(reference, 0.2, 0, 0xD3)
        stepped(want_driver, 300)
        engine = SequentialEngine(cfg)
        driver = driver_for(engine, 0.2, 0, 0xD3)
        driver.run(300)
        assert observed(engine, driver) == observed(reference, want_driver)
        assert engine.kernel_hbr_evals < 3309

    def test_the_settled_mask_does_not_outlive_a_call(self):
        """Depth 1 and GT+BE toggle room wires most; the run alternates
        one-cycle ``step`` calls with chunked ones, so every call starts
        from an empty settled mask after the Python side had the state
        (the stimuli pump between steps)."""
        cfg = network("torus", (9, 8), 1, hetero=False)
        traffic = (0.2, 40, 0xC0FFEE)
        reference = model(cfg)
        want_driver = driver_for(reference, *traffic)
        calls = [1, 1, 37, 1, 70, 1, 1, 1, 29, 1]
        stepped(want_driver, sum(calls))
        engine = SequentialEngine(cfg)
        driver = driver_for(engine, *traffic)
        for cycles in calls:
            if cycles == 1:
                driver.step()
            else:
                driver.run(cycles)
        assert observed(engine, driver) == observed(reference, want_driver)
        assert engine.kernel_hbr_evals < engine.metrics.total_deltas

    def test_every_lane_of_a_wider_body_counts_its_own_deltas(self):
        """The settled mask is one bit a flat (lane, router): at 72
        routers lanes 1 and 2 start mid-word.  One chunked call of a
        three-lane body with the pass on counts each lane's deltas and
        evaluates exactly the units that three one-lane engines, one a
        lane's traffic, count and evaluate."""

        class Counting(BatchEngine):
            HBR_ACCOUNTING = True

        cfg = network("torus", (9, 8), 1, hetero=False)
        wide = Counting(cfg, lanes=3, kernel="jit")
        views = lane_views(wide)
        run_batched(wide, [driver_for(v, 0.2, 0, seed) for seed, v in enumerate(views, 1)], 100)
        narrow = [SequentialEngine(cfg) for _ in views]
        for seed, engine in enumerate(narrow, 1):
            run_batched(engine, [driver_for(engine, 0.2, 0, seed)], 100)
        assert [wide.kernel_windows, *(e.kernel_windows for e in narrow)] == [1] * 4
        columns = wide._compiled._buffers["deltas"][0, :300].reshape(3, 100).tolist()
        assert columns == [e.metrics.per_cycle for e in narrow]
        assert wide.kernel_hbr_evals == sum(e.kernel_hbr_evals for e in narrow)
        assert max(narrow[2].metrics.per_cycle) > cfg.n_routers

    @pytest.mark.parametrize("depth", [1, 2])
    def test_an_idle_lane_finds_its_wire_plane_at_reset(self, depth):
        """The invariant the R-per-skipped-cycle credit rests on: when
        the body's own idle test holds (nothing buffered, no valid
        injection register, no latched eject flag) every wire carries
        its reset value, so the cycle costs exactly one evaluation per
        unit — and so does the model's."""
        cfg = network("torus", (3, 3), depth, hetero=False)
        engine, reference = SequentialEngine(cfg), model(cfg)
        drivers = [driver_for(e, 0.03, 0, 0xBEE) for e in (engine, reference)]
        state = engine.state
        reset = state.reset_wires()[:, :-1]  # the pointer keeps rotating
        idle = 0
        for _ in range(600):
            for driver in drivers:
                driver.generate(driver.engine.cycle)
                driver.pump()
            if not (state.count.any() or state.inj_valid.any() or state.eject_valid.any()):
                idle += 1
                assert (state.wires[:, :-1] == reset).all()
                pointer = int(state.wires[0, -1])
                engine.step()
                assert engine.metrics.per_cycle[-1] == cfg.n_routers
                assert int(state.wires[0, -1]) == pointer
            else:
                engine.step()
            reference.step()
            assert engine.metrics.per_cycle[-1] == reference.metrics.per_cycle[-1]
        assert 50 < idle < 550

    def test_the_batch_engine_keeps_nominal_accounting_and_no_plane(self):
        cfg = network("torus", (3, 3), 2, hetero=False)
        engine = BatchEngine(cfg, lanes=2, kernel="jit")
        assert engine.state.wires is None
        drivers = [
            driver_for(view, 0.1, 0, seed)
            for seed, view in enumerate(lane_views(engine), 1)
        ]
        run_batched(engine, drivers, 100)
        engine.step()
        engine.skip_cycles(3)
        assert engine.metrics.per_cycle == [3 * cfg.n_routers] * 104
        assert engine.metrics.extra_fraction() == 2.0

    def test_a_one_lane_batch_engine_is_driven_through_its_lane(self):
        """``TrafficDriver(lane_views(engine)[0]).run`` — what the bench
        builds — steps a one-lane engine and rides its chunks; a lane of
        a wider engine still cannot advance alone."""
        cfg = network("torus", (3, 3), 2, hetero=False)
        chunked, by_cycle = (BatchEngine(cfg, kernel="jit") for _ in range(2))
        driver = driver_for(chunked.lane(0), 0.1, 0, 7)
        driver.run(150)
        other = driver_for(by_cycle.lane(0), 0.1, 0, 7)
        stepped(other, 150)
        assert by_cycle.kernel_lane_cycles and chunked.kernel_lane_cycles
        assert observed(chunked, driver) == observed(by_cycle, other)
        with pytest.raises(RuntimeError, match="cannot step alone"):
            BatchEngine(cfg, lanes=2).lane(0).step()


@needs_jit
class TestSourceShape:
    """One compiled body serves every fabric of its router; the HBR
    variant every fabric of as many mask words."""

    @staticmethod
    def source(shape, engine=BatchEngine):
        from repro.kernels.batchlevel import generate_level_source
        from repro.kernels.cbackend import KernelSpec

        cfg = network("torus", shape, 2, hetero=False)
        spec = KernelSpec.from_engine(engine(cfg, kernel="jit"))
        return generate_level_source(spec, cfg.router.event_layout)

    def test_the_batch_body_does_not_depend_on_the_fabric(self):
        assert "#define HBR 0" in self.source((6, 6))
        assert self.source((6, 6)) == self.source((10, 10))

    def test_the_batch_body_carries_no_hbr_text(self):
        # an edit to the HBR pass must not change the batch kernels'
        # sources, the key they are cached under
        batch = self.source((6, 6))
        assert "hbr_walk" not in batch and "#define W " not in batch

    def test_the_hbr_body_depends_on_its_mask_words_only(self):
        class Counting(BatchEngine):
            HBR_ACCOUNTING = True

        one, full, two = (self.source(s, Counting) for s in ((6, 6), (8, 8), (13, 5)))
        assert "#define HBR 1" in one and "#define W 1" in one
        assert one == full != two and "#define W 2" in two


class TestBodySelection:
    """Compiled where it can be, the model where it cannot — never a
    silent slow path, never an ignored option."""

    CFG = NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=2))

    def run(self, engine):
        driver = driver_for(lane_views(engine)[0], 0.1, 0, 0xC0DE)
        driver.run(130)
        return observed(engine, driver)

    def test_the_compiled_body_is_bound_wherever_it_can_be(self):
        """``bench``'s ``SeqHbr.path_error`` is unconditionally ``None``:
        this is the pin that a silent fallback cannot post a slow
        "valid" number."""
        engine = SequentialEngine(self.CFG)
        if JIT_REASON != "ok":
            assert isinstance(engine, ModelSequentialEngine) and engine.kernel_reason
            return
        assert isinstance(engine, CompiledSequentialEngine)
        assert engine.kernel_reason is None and engine._compiled is not None
        assert engine.name == "sequential" and engine.lanes == 1
        assert type(make_engine("sequential", self.CFG)) is type(engine)

    @pytest.mark.parametrize("how", ["env", "no-cc", "kernel=python"])
    def test_degraded_modes_are_the_model(self, monkeypatch, request, tmp_path, how):
        want = self.run(model(self.CFG))
        if JIT_REASON == "ok":
            assert self.run(SequentialEngine(self.CFG)) == want
        kwargs = {}
        if how == "env":  # an environment whose PATH holds no compiler
            monkeypatch.setenv("PATH", str(tmp_path))
            monkeypatch.delenv("CC", raising=False)
        elif how == "no-cc":
            request.getfixturevalue("no_cc")
        else:
            kwargs["kernel"] = "python"
        for engine in (
            SequentialEngine(self.CFG, **kwargs),
            make_engine("sequential", self.CFG, **kwargs),
        ):
            assert isinstance(engine, SequentialNetwork)
            assert engine.name == "sequential" and engine.kernel == "python"
            assert engine.kernel_reason
            assert self.run(engine) == want
        expected = "python" if how == "kernel=python" else "no C compiler"
        assert expected in engine.kernel_reason

    def test_a_model_option_is_never_ignored(self):
        for option in (
            dict(packed=True),
            dict(scheduler="roundrobin"),
            dict(watchdog_factor=4),
        ):
            with pytest.raises(TypeError, match="SequentialNetwork.*kernel='python'"):
                SequentialEngine(self.CFG, **option)
            engine = SequentialEngine(self.CFG, kernel="python", **option)
            assert isinstance(engine, SequentialNetwork)
        assert engine.watchdog.factor == 4
        with pytest.raises(ValueError, match="auto|python"):
            SequentialEngine(self.CFG, kernel="levelized")

    @needs_jit
    def test_what_the_pass_does_not_model_raises_naming_the_model(self):
        engine = SequentialEngine(self.CFG)
        with pytest.raises(NotImplementedError, match="SequentialNetwork"):
            engine.quarantine_link(4, 1)
