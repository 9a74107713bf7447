"""Partitioned large-network simulation: correctness gates.

The tentpole guarantee under test: sharding one NoC across K tile
workers behind the boundary switch is **bit-identical** to the
monolithic sequential simulator — snapshots, injection/ejection logs
and (in lockstep sync) per-cycle delta counts — including under
boundary-link SEUs and quarantine, in every transport (local lockstep,
local rounds, process pool).

Plus the satellite surfaces: partition-map/manifest properties
(hypothesis-randomised), the CLI ``--partitions`` flags, the sweep
``engine_cls`` hook, and the packed-state memory preflight.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.errors import LivelockError
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.config import Port
from repro.noc.topology import Topology
from repro.partition import (
    PartitionMap,
    PartitionedEngine,
    PartitionedEngineFactory,
    grid_partition,
    valid_partition_counts,
)
from repro.seqsim.sequential import SequentialNetwork
from tests.helpers import PacketDriver, be_packet


def torus(width=4, height=4, depth=4):
    return NetworkConfig(
        width, height, topology="torus", router=RouterConfig(queue_depth=depth)
    )


def mesh(width=4, height=4, depth=4):
    return NetworkConfig(
        width, height, topology="mesh", router=RouterConfig(queue_depth=depth)
    )


def mono(cfg):
    return SequentialNetwork(cfg, packed=False, optimize=True)


def random_schedule(cfg, seed, packets=25, horizon=50):
    rng = random.Random(seed)
    out = []
    for i in range(packets):
        src = rng.randrange(cfg.n_routers)
        dest = rng.randrange(cfg.n_routers)
        out.append(
            (
                rng.randrange(horizon),
                rng.choice(cfg.router.be_vcs),
                be_packet(cfg, src, dest, nbytes=rng.randrange(1, 12), seq=i),
            )
        )
    return out


def lockstep(cfg, engines, cycles=100, events=None, check_deltas=False,
             seed=0xA5):
    """Drive identical traffic into every engine; assert identical
    snapshots each cycle and identical logs at the end."""
    sched = random_schedule(cfg, seed)
    drivers = [PacketDriver(e) for e in engines]
    try:
        for c in range(cycles):
            if events and c in events:
                for e in engines:
                    events[c](e)
            for d, e in zip(drivers, engines):
                for when, vc, pkt in sched:
                    if when == c:
                        d.send(pkt, vc)
                d.pump()
                e.step()
            ref = engines[0].snapshot()
            for e in engines[1:]:
                assert e.snapshot() == ref, f"snapshot diverged at cycle {c}"
        ref_inj = [tuple(r.__dict__.items()) for r in engines[0].injections]
        ref_ej = [tuple(r.__dict__.items()) for r in engines[0].ejections]
        for e in engines[1:]:
            assert [tuple(r.__dict__.items()) for r in e.injections] == ref_inj
            assert [tuple(r.__dict__.items()) for r in e.ejections] == ref_ej
        if check_deltas:
            ref_d = engines[0].metrics.per_cycle
            for e in engines[1:]:
                assert e.metrics.per_cycle == ref_d, "delta counts diverged"
    finally:
        for e in engines:
            if hasattr(e, "close"):
                e.close()


class TestGridPartition:
    def test_tiles_cover_exactly_once(self):
        cfg = torus(4, 4)
        for k in valid_partition_counts(cfg):
            pmap = grid_partition(cfg, k)
            flat = sorted(r for tile in pmap.tiles for r in tile)
            assert flat == list(range(cfg.n_routers))

    def test_valid_counts_are_grid_divisors(self):
        assert valid_partition_counts(torus(4, 4)) == [2, 4, 8, 16]
        assert valid_partition_counts(torus(6, 6)) == [
            2, 3, 4, 6, 9, 12, 18, 36,
        ]

    def test_invalid_count_names_valid_ones(self):
        cfg = torus(4, 4)
        with pytest.raises(ValueError) as err:
            grid_partition(cfg, 3)
        assert "2, 4, 8, 16" in str(err.value)

    def test_boundary_links_are_directed_pairs(self):
        cfg = torus(4, 4)
        pmap = grid_partition(cfg, 2)
        links = pmap.boundary_links()
        # every directed boundary link has its reverse in the set
        topo = Topology(cfg)
        as_set = {(r, int(p)) for r, p, _nb in links}
        for r, p, nb in links:
            assert topo.neighbor(r, Port(p)) == nb
            assert (nb, int(Port(p).opposite)) in as_set

    def test_custom_map_rejects_bad_covers(self):
        cfg = torus(4, 4)
        with pytest.raises(ValueError):
            PartitionMap(cfg, ((0, 1), (1, 2)))  # router 1 twice
        with pytest.raises(ValueError):
            PartitionMap(cfg, (tuple(range(15)),))  # router 15 missing


class TestBoundaryManifest:
    """`Topology.extract_partition`: the boundary-port manifest,
    torus wrap-around links included."""

    def test_torus_wraparound_ports_in_manifest(self):
        cfg = torus(4, 4)
        topo = Topology(cfg)
        # the bottom two rows: y in {0, 1}
        tile = tuple(
            r for r in range(cfg.n_routers) if cfg.coords(r)[1] < 2
        )
        _sub, manifest = topo.extract_partition(tile)
        crossing = {(bp.router, bp.neighbor) for bp in manifest.ports}
        # the seam at y=1 -> y=2 and the wrap at y=0 -> y=3 both cross
        seam = [(cfg.index(x, 1), cfg.index(x, 2)) for x in range(4)]
        wrap = [(cfg.index(x, 0), cfg.index(x, 3)) for x in range(4)]
        for pair in seam + wrap:
            assert pair in crossing, f"missing boundary crossing {pair}"
        # east/west links stay internal: never in the manifest
        for bp in manifest.ports:
            assert cfg.coords(bp.router)[0] == cfg.coords(bp.neighbor)[0]

    def test_mesh_edge_has_no_wraparound(self):
        cfg = mesh(4, 4)
        topo = Topology(cfg)
        tile = tuple(
            r for r in range(cfg.n_routers) if cfg.coords(r)[1] < 2
        )
        _sub, manifest = topo.extract_partition(tile)
        crossing = {(bp.router, bp.neighbor) for bp in manifest.ports}
        assert crossing == {
            (cfg.index(x, 1), cfg.index(x, 2)) for x in range(4)
        }

    def test_export_import_names_mirror_between_tiles(self):
        cfg = torus(4, 4)
        topo = Topology(cfg)
        pmap = grid_partition(cfg, 2)
        manifests = [
            topo.extract_partition(tile)[1] for tile in pmap.tiles
        ]
        assert sorted(manifests[0].export_wire_names()) == sorted(
            manifests[1].import_wire_names()
        )
        assert sorted(manifests[0].import_wire_names()) == sorted(
            manifests[1].export_wire_names()
        )


class TestPartitionProperties:
    """Hypothesis: ANY partition map — grid or arbitrary shuffle — of a
    random torus/mesh covers every router exactly once, and every
    boundary channel shows up in exactly two manifests (once per side),
    with export/import wire-name multisets matching globally."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_map_covers_and_matches(self, data):
        width = data.draw(st.integers(2, 6), label="width")
        height = data.draw(st.integers(2, 6), label="height")
        kind = data.draw(st.sampled_from(["torus", "mesh"]), label="topology")
        cfg = NetworkConfig(
            width, height, topology=kind, router=RouterConfig(queue_depth=2)
        )
        n = cfg.n_routers
        k = data.draw(st.integers(2, min(4, n)), label="partitions")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        routers = list(range(n))
        rng.shuffle(routers)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        tiles = tuple(
            tuple(sorted(routers[a:b]))
            for a, b in zip([0] + cuts, cuts + [n])
        )
        pmap = PartitionMap(cfg, tiles)

        # cover exactly once
        assert sorted(r for tile in pmap.tiles for r in tile) == list(range(n))
        owner = pmap.owner()
        assert all(r in pmap.tiles[owner[r]] for r in range(n))

        topo = Topology(cfg)
        exports, imports = Counter(), Counter()
        channels = Counter()
        for tile in pmap.tiles:
            _sub, manifest = topo.extract_partition(tile)
            exports.update(manifest.export_wire_names())
            imports.update(manifest.import_wire_names())
            for bp in manifest.ports:
                key = min(
                    (bp.router, int(bp.port)),
                    (bp.neighbor, int(bp.neighbor_port)),
                )
                channels[key] += 1
        # every exported wire is imported by exactly one other tile
        assert exports == imports
        assert all(count == 1 for count in exports.values())
        # every boundary channel appears exactly twice, once per side
        assert all(count == 2 for count in channels.values())

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=5, deadline=None)
    def test_two_partitions_bit_identical_under_boundary_seu(self, seed):
        """Satellite gate: 2-partition lockstep vs monolithic on 4x4
        with a mid-run SEU on a boundary link, random traffic."""
        cfg = torus(4, 4)
        wire = random.Random(seed).choice(
            ["fwd:1.3", "room:1.3", "fwd:9.4", "room:9.4"]
        )

        def seu(e):
            e.inject_link_fault(wire, seed % 17)

        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=2)],
            cycles=60,
            events={20: seu},
            check_deltas=True,
            seed=seed,
        )


class TestBitIdentical:
    """The tentpole gate: partitioned == monolithic, all transports."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_lockstep_4x4_including_delta_counts(self, k):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=k)],
            check_deltas=True,
        )

    @pytest.mark.parametrize("k", [2, 4])
    def test_rounds_4x4(self, k):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=k, sync="rounds")],
        )

    def test_lockstep_and_rounds_6x6(self):
        cfg = torus(6, 6, depth=2)
        lockstep(
            cfg,
            [
                mono(cfg),
                PartitionedEngine(cfg, partitions=4),
                PartitionedEngine(cfg, partitions=4, sync="rounds"),
            ],
            cycles=80,
        )

    def test_process_transport_4x4(self):
        cfg = torus(4, 4)
        for k in (4, 2):  # one test id, both tile counts
            engine = PartitionedEngine(cfg, partitions=k, transport="process")
            line = engine.layout_line()
            lockstep(cfg, [mono(cfg), engine])
            assert "switch: process/rounds" in line

    def test_lockstep_runs_the_roundrobin_scheduler(self):
        """``scheduler="roundrobin"`` reaches the lockstep coordinator's
        pick loop (it used to scan the worklist mask regardless)."""
        from unittest import mock

        from repro.seqsim.scheduler import RoundRobinScheduler

        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=4, scheduler="roundrobin")
        assert isinstance(engine.scheduler, RoundRobinScheduler)
        with mock.patch.object(
            engine.scheduler, "next_unit", wraps=engine.scheduler.next_unit
        ) as spy:
            lockstep(
                cfg,
                [SequentialNetwork(cfg, scheduler="roundrobin"), engine],
                check_deltas=True,
            )
        assert spy.call_count > 0

    def test_process_transport_without_fork_names_the_way_out(self, monkeypatch):
        from repro.farm import process

        def no_fork():
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(process, "_context", no_fork)
        with pytest.raises(process.SpawnError, match='transport="local"'):
            PartitionedEngine(torus(4, 4), partitions=2, transport="process")

    def test_mesh_partitioned(self):
        cfg = mesh(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=2)],
            check_deltas=True,
        )


class TestFaultEquivalence:
    """Boundary SEU at cycle 20 + boundary quarantine at cycle 45 —
    still bit-identical in every mode (the ISSUE's fault gate)."""

    @staticmethod
    def _seu(e):
        e.inject_link_fault("fwd:1.3", 2)

    @staticmethod
    def _quarantine(e):
        e.quarantine_link(1, 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda cfg: PartitionedEngine(cfg, partitions=2),
            lambda cfg: PartitionedEngine(cfg, partitions=2, sync="rounds"),
            lambda cfg: PartitionedEngine(
                cfg, partitions=2, transport="process"
            ),
        ],
        ids=["lockstep", "rounds", "process"],
    )
    def test_seu_and_quarantine_at_boundary(self, make):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), make(cfg)],
            events={20: self._seu, 45: self._quarantine},
        )

    def test_flap_fault_trips_identical_livelock_diagnosis(self):
        cfg = torus(4, 4)

        def diagnose(engine):
            try:
                engine.install_flap_fault(1, 3)
                with pytest.raises(LivelockError) as err:
                    engine.run(5)
                exc = err.value
                return (
                    exc.cycle,
                    exc.deltas,
                    exc.limit,
                    tuple(sorted(exc.suspect_wires)),
                )
            finally:
                if hasattr(engine, "close"):
                    engine.close()

        ref = diagnose(mono(cfg))
        assert set(ref[3]) == {"fwd:1.3", "room:5.1"}
        for make in (
            lambda: PartitionedEngine(cfg, partitions=2),
            lambda: PartitionedEngine(cfg, partitions=2, sync="rounds"),
            lambda: PartitionedEngine(cfg, partitions=2, transport="process"),
        ):
            assert diagnose(make()) == ref

    def test_quarantine_wires_repairs_diagnosed_link(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2, sync="rounds")
        try:
            names = engine.install_flap_fault(1, 3)
            repaired = engine.quarantine_wires(names)
            assert (1, 3) in repaired
            engine.run(30)  # no livelock after the repair
            assert (1, 3) in engine.quarantined_links
        finally:
            engine.close()


class TestLinkLatency:
    """`link_latency >= 1` is the FireSim-style decoupled discipline:
    one round per cycle, values delayed L cycles — it drains, but it is
    a different machine (registered inter-tile channels)."""

    def test_latency_mode_runs_one_round_and_drains(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2, link_latency=1)
        driver = PacketDriver(engine)
        try:
            for when, vc, pkt in random_schedule(cfg, 0xA5):
                driver.send(pkt, vc)
            driver.run_until_drained(5000)
            assert engine.drained()
            assert engine.mean_boundary_rounds() == 1.0
        finally:
            engine.close()

    def test_latency_requires_rounds(self):
        cfg = torus(4, 4)
        with pytest.raises(ValueError):
            PartitionedEngine(
                cfg, partitions=2, sync="lockstep", link_latency=1
            )


class TestEngineSurface:
    def test_registered_in_engine_registry(self):
        from repro.engines import list_engines, make_engine

        assert "partitioned" in {info.name for info in list_engines()}
        cfg = torus(4, 4)
        engine = make_engine("partitioned", cfg, partitions=2)
        try:
            assert engine.name == "partitioned"
            assert "2 tiles" in engine.layout_line()
        finally:
            engine.close()

    def test_layout_line_names_transport_and_sync(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2)
        try:
            line = engine.layout_line()
            assert "boundary links" in line
            assert "local/lockstep" in line
        finally:
            engine.close()

    def test_sweep_engine_cls_hook(self):
        """fig1/pattern sweeps take the partitioned engine through their
        ``engine_cls`` extension point — points identical to the
        sequential engine's (lockstep sync is the exact protocol)."""
        from repro.experiments.patterns import run_pattern

        ref = run_pattern("transpose", cycles=80)
        part = run_pattern(
            "transpose", cycles=80, engine_cls=PartitionedEngineFactory(2)
        )
        assert part == ref

    def test_boundary_overhead_accounting(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2, sync="rounds")
        driver = PacketDriver(engine)
        try:
            for when, vc, pkt in random_schedule(cfg, 0xA5):
                driver.send(pkt, vc)
            driver.run(60)
            assert len(engine.boundary_rounds) == 60
            assert engine.mean_boundary_rounds() >= 1.0
            assert 0.0 <= engine.boundary_sync_fraction() <= 1.0
        finally:
            engine.close()


class TestMemoryPreflight:
    """Satellite: the packed-state allocator estimates its footprint and
    fails with a plan (reduce --lanes / use --partitions), not an opaque
    numpy MemoryError."""

    def test_estimate_matches_actual_allocation(self):
        from repro.seqsim.arraystate import ArrayState, estimate_bytes

        cfg = torus(4, 4)
        state = ArrayState(cfg, lanes=3)
        actual = sum(
            getattr(state, name).nbytes
            for name in (
                "mem", "rd", "wr", "count", "alloc", "queue_alloc",
                "arb_ptr", "alloc_ptr", "flags", "inj_word", "inj_valid",
                "rr_ptr", "delay", "eject_word", "eject_valid", "stalled",
            )
        )
        assert estimate_bytes(cfg, 3) == actual

    def test_memoryerror_wraps_with_suggestion(self, monkeypatch):
        import numpy as np

        from repro.seqsim import arraystate

        def exploding_zeros(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(arraystate.np, "zeros", exploding_zeros)
        with pytest.raises(MemoryError) as err:
            arraystate.ArrayState(torus(4, 4), lanes=2)
        message = str(err.value)
        assert "--partitions" in message and "--lanes" in message
        assert f"{arraystate.estimate_bytes(torus(4, 4), 2):,}" in message


class TestCli:
    def test_simulate_partitions_prints_layout(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "simulate", "--width", "4", "--height", "4",
                "--partitions", "2", "--cycles", "30",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "partitions: 2 tiles" in out
        assert "boundary links" in out

    def test_simulate_invalid_partition_count_exits_2(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "simulate", "--width", "4", "--height", "4",
                "--partitions", "3", "--cycles", "10",
            ]
        )
        assert rc == 2
        output = capsys.readouterr()
        assert "2, 4, 8, 16" in output.out + output.err

    def test_simulate_partitions_conflicts_with_other_engine(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "simulate", "--width", "4", "--height", "4",
                "--engine", "batch", "--partitions", "2", "--cycles", "10",
            ]
        )
        assert rc == 2

    def test_simulate_process_transport(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "simulate", "--width", "4", "--height", "4",
                "--partitions", "2", "--transport", "process",
                "--cycles", "30",
            ]
        )
        assert rc == 0
        assert "process" in capsys.readouterr().out


@pytest.mark.partition_smoke
class TestPartitionSmoke:
    """Tiny 2-partition 4x4 runs in the default suite — the cheap
    always-on canary for the partition stack (select standalone with
    ``-m partition_smoke``)."""

    def test_tiny_local_partitioned_run(self):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=2)],
            cycles=40,
            check_deltas=True,
        )

    def test_tiny_process_partitioned_run(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2, transport="process")
        driver = PacketDriver(engine)
        try:
            for when, vc, pkt in random_schedule(cfg, 0xB0, packets=10):
                driver.send(pkt, vc)
            driver.run(30)
            assert engine.cycle == 30
        finally:
            engine.close()
