"""Levelizer edge cases and the kernel backend ladder.

The levelizer must never produce a silently wrong schedule: a
combinational cycle raises :class:`CyclicDependencyError`, and
degenerate graphs (single router, quarantined links) levelize to valid
schedules.  The ladder half covers capability probing, the environment
override, and the degrade-with-one-warning contract.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.kernels import (
    KernelUnavailableError,
    kernel_versions,
    probe_backends,
    resolve_kernels_mode,
    select_backend,
)
from repro.kernels.levelize import (
    CyclicDependencyError,
    levelize,
    levelize_graph,
    toposort,
)
from repro.noc import NetworkConfig
from repro.noc.topology import Topology


class TestLevelize:
    def test_torus_levelizes_to_three_kind_levels(self):
        cfg = NetworkConfig(4, 4, topology="torus")
        schedule = levelize(cfg)
        assert schedule.depth == 3
        assert len(schedule) == 3 * cfg.n_routers
        for kind, level in zip(("room", "fwd", "state"), schedule.levels):
            assert len(level) == cfg.n_routers
            assert all(node[0] == kind for node in level)
        nodes, edges = Topology(cfg).signal_graph()
        schedule.validate(nodes, edges)

    def test_mesh_levelizes_and_validates(self):
        cfg = NetworkConfig(3, 5, topology="mesh")
        schedule = levelize(cfg)
        nodes, edges = Topology(cfg).signal_graph()
        schedule.validate(nodes, edges)
        # every edge goes strictly downward in level order
        for src, dst in edges:
            assert schedule.level_of[src] < schedule.level_of[dst]

    def test_single_router_graph(self):
        nodes = [("room", 0), ("fwd", 0), ("state", 0)]
        edges = [(("room", 0), ("fwd", 0)), (("fwd", 0), ("state", 0))]
        schedule = levelize_graph(nodes, edges)
        assert schedule.depth == 3
        assert schedule.order == (("room", 0), ("fwd", 0), ("state", 0))
        schedule.validate(nodes, edges)

    def test_quarantined_link_graph_levelizes(self):
        cfg = NetworkConfig(4, 4, topology="torus")
        topo = Topology(cfg)
        full_nodes, full_edges = topo.signal_graph()
        nodes, edges = topo.signal_graph(exclude_links=[(5, 1)])
        assert nodes == full_nodes
        assert len(edges) < len(full_edges)
        schedule = levelize_graph(nodes, edges)
        assert schedule.depth == 3
        schedule.validate(nodes, edges)

    def test_cycle_raises_with_remaining_nodes(self):
        nodes = ["a", "b", "c", "d"]
        edges = [("a", "b"), ("b", "c"), ("c", "b"), ("a", "d")]
        with pytest.raises(CyclicDependencyError) as excinfo:
            levelize_graph(nodes, edges)
        remaining = set(excinfo.value.remaining)
        assert remaining == {"b", "c"}

    def test_self_loop_is_a_cycle(self):
        with pytest.raises(CyclicDependencyError):
            levelize_graph(["a"], [("a", "a")])

    def test_toposort_linear_chain(self):
        order = toposort([3, 1, 2], [(1, 2), (2, 3)])
        assert order.index(1) < order.index(2) < order.index(3)

    @given(
        n=st.integers(min_value=1, max_value=12),
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_dag_levels_respect_edges(self, n, pairs):
        nodes = list(range(n))
        # orient every pair low -> high: guaranteed acyclic
        edges = [
            (min(a, b), max(a, b))
            for a, b in pairs
            if a != b and max(a, b) < n
        ]
        schedule = levelize_graph(nodes, edges)
        schedule.validate(nodes, edges)
        assert sorted(schedule.order) == nodes
        for src, dst in edges:
            assert schedule.level_of[src] < schedule.level_of[dst]
        # levels are as early as possible: a node's level is one past
        # its deepest predecessor
        preds = {v: [] for v in nodes}
        for src, dst in edges:
            preds[dst].append(src)
        for v in nodes:
            expected = (
                0
                if not preds[v]
                else 1 + max(schedule.level_of[p] for p in preds[v])
            )
            assert schedule.level_of[v] == expected


class TestEngineFallback:
    def test_cyclic_schedule_falls_back_to_natural_order(self, monkeypatch):
        """No 3-level schedule to carry (a combinational cycle, or a
        foreign graph shape): ``kernel="levelized"`` records why and
        binds the ``auto`` tier — still the reference results."""
        import repro.kernels.levelize as levelize_mod
        from repro.engines import BatchEngine, run_batched
        from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

        def cyclic(cfg):
            raise CyclicDependencyError([("fwd", 0), ("room", 1)])

        def two_level(cfg):
            return levelize_graph(["a", "b"], [("a", "b")])

        cfg = NetworkConfig(3, 3, topology="torus")

        def run(engine):
            be = BernoulliBeTraffic(cfg, 0.1, uniform_random(cfg), seed=5)
            run_batched(engine, [TrafficDriver(engine.lane(0), be=be)], 80)
            return engine

        reference = run(BatchEngine(cfg, lanes=1, kernel="python"))
        assert len(reference.ejections) > 0
        for broken in (cyclic, two_level):
            monkeypatch.setattr(levelize_mod, "levelize", broken)
            engine = BatchEngine(cfg, lanes=1, kernel="levelized")
            assert engine.schedule is None
            assert engine.kernel in ("jit", "python")
            assert "natural router order" in engine.kernel_reason
            run(engine)
            assert engine.snapshot() == reference.snapshot()
            assert engine.ejections == reference.ejections

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
        # batch + levelized is a valid pairing: the fused chunk kernel.
        assert make_engine("batch", cfg, kernel="levelized").kernel in (
            "levelized",
            "python",  # no compiler: falls back, never raises
        )


class TestBackendLadder:
    def test_probe_backends_shape(self):
        probes = probe_backends()
        assert set(probes) == {"cffi", "numpy"}
        assert probes["numpy"] == "ok"

    def test_kernel_versions_shape(self):
        versions = kernel_versions()
        assert set(versions) == {"cffi", "cc"}

    def test_resolve_mode_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_kernels_mode("jit") == "jit"
        assert resolve_kernels_mode(None) == "numpy"
        assert resolve_kernels_mode("auto") == "numpy"
        monkeypatch.delenv("REPRO_KERNELS")
        assert resolve_kernels_mode(None) == "auto"

    def test_resolve_mode_rejects_unknown(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown kernels mode"):
            resolve_kernels_mode("fortran")
        monkeypatch.setenv("REPRO_KERNELS", "fortran")
        with pytest.raises(ValueError, match="unknown kernels mode"):
            resolve_kernels_mode(None)

    def test_numpy_mode_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert select_backend(None) == "numpy"

    def test_degrade_warns_exactly_once(self, monkeypatch):
        from repro.kernels import cbackend

        monkeypatch.setattr(
            cbackend, "availability", lambda: "cffi is not installed"
        )
        monkeypatch.setattr(kernels, "_warned_degrade", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert select_backend(None) == "numpy"
            assert select_backend(None) == "numpy"
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)

    def test_jit_mode_raises_when_unavailable(self, monkeypatch):
        from repro.kernels import cbackend

        monkeypatch.setattr(
            cbackend, "availability", lambda: "no C compiler found"
        )
        with pytest.raises(KernelUnavailableError, match="no C compiler"):
            select_backend("jit")

    def test_batch_engine_degrades_with_reason(self, monkeypatch):
        from repro.engines import BatchEngine

        from repro.kernels import cbackend

        monkeypatch.setattr(
            cbackend, "availability", lambda: "cffi is not installed"
        )
        monkeypatch.setattr(kernels, "_warned_degrade", True)  # quiet
        engine = BatchEngine(NetworkConfig(3, 3), lanes=2)
        assert engine.kernel == "python"
        assert engine.kernel_reason
        with pytest.raises(KernelUnavailableError):
            BatchEngine(NetworkConfig(3, 3), lanes=2, kernel="jit")
