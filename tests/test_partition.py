"""Partitioned large-network simulation: correctness gates.

The guarantee under test: splitting one NoC into K lockstep tiles is
**bit-identical** to the monolithic sequential simulator — snapshots,
injection/ejection logs and per-cycle delta counts — including under
boundary-link SEUs, quarantine and a flapping boundary link.

Plus the partition-map properties (hypothesis-randomised), the CLI
``--partitions`` flags and the sweep ``engine_cls`` hook.
"""

import random

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


def bottom_half(cfg):
    """A two-tile map: rows y < 2 against the rest."""
    bottom = tuple(r for r in range(cfg.n_routers) if cfg.coords(r)[1] < 2)
    top = tuple(r for r in range(cfg.n_routers) if r not in bottom)
    return PartitionMap(cfg, (bottom, top))


class TestBoundaryManifest:
    """`PartitionMap.boundary_links`: the cut links, torus wrap-around
    links included."""

    def test_torus_wraparound_ports_in_manifest(self):
        cfg = torus(4, 4)
        crossing = {(r, nb) for r, _p, nb in bottom_half(cfg).boundary_links()}
        # the seam at y=1 -> y=2 and the wrap at y=0 -> y=3 both cross
        seam = [(cfg.index(x, 1), cfg.index(x, 2)) for x in range(4)]
        wrap = [(cfg.index(x, 0), cfg.index(x, 3)) for x in range(4)]
        for src, dst in seam + wrap:
            assert (src, dst) in crossing, f"missing crossing {src, dst}"
            assert (dst, src) in crossing, f"missing crossing {dst, src}"
        # east/west links stay internal: never cut
        for r, nb in crossing:
            assert cfg.coords(r)[0] == cfg.coords(nb)[0]

    def test_mesh_edge_has_no_wraparound(self):
        cfg = mesh(4, 4)
        crossing = {(r, nb) for r, _p, nb in bottom_half(cfg).boundary_links()}
        seam = {(cfg.index(x, 1), cfg.index(x, 2)) for x in range(4)}
        assert crossing == seam | {(dst, src) for src, dst in seam}


class TestPartitionProperties:
    """Hypothesis: ANY partition map — grid or arbitrary shuffle — of a
    random torus/mesh covers every router exactly once, and its boundary
    links are exactly the links whose ends lie in two tiles, each
    physical channel once per direction."""

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
        cut = pmap.boundary_links(topo)
        assert len(set(cut)) == len(cut)
        # every tile's ports that face another tile, and nothing else
        for index, tile in enumerate(pmap.tiles):
            leaving = {
                (r, int(p))
                for r in tile
                for p in topo.connected_ports(r)
                if topo.neighbor(r, p) not in tile
            }
            assert leaving == {
                (r, int(p)) for r, p, _nb in cut if owner[r] == index
            }
        # each cut channel is cut in both directions
        as_set = {(r, int(p)) for r, p, _nb in cut}
        for r, p, nb in cut:
            assert (nb, int(p.opposite)) in as_set

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
    """The gate: partitioned == monolithic, delta counts included."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_lockstep_4x4_including_delta_counts(self, k):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=k)],
            check_deltas=True,
        )

    def test_lockstep_6x6(self):
        cfg = torus(6, 6, depth=2)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=4)],
            cycles=80,
            check_deltas=True,
        )

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

    def test_heterogeneous_scattered_map(self):
        """Tiles of 2, 5 and 9 routers, none of them contiguous."""
        cfg = torus(4, 4, depth=3)
        routers = list(range(cfg.n_routers))
        random.Random(7).shuffle(routers)
        tiles = (routers[:2], routers[2:7], routers[7:])
        pmap = PartitionMap(cfg, tuple(tuple(sorted(t)) for t in tiles))
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partition_map=pmap)],
            check_deltas=True,
        )

    def test_mesh_partitioned(self):
        cfg = mesh(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=2)],
            check_deltas=True,
        )


class TestFaultEquivalence:
    """Boundary SEU at cycle 20 + boundary quarantine at cycle 45 —
    still bit-identical, delta counts included."""

    @staticmethod
    def _seu(e):
        e.inject_link_fault("fwd:1.3", 2)

    @staticmethod
    def _quarantine(e):
        e.quarantine_link(1, 3)

    def test_seu_and_quarantine_at_boundary(self):
        cfg = torus(4, 4)
        lockstep(
            cfg,
            [mono(cfg), PartitionedEngine(cfg, partitions=2)],
            events={20: self._seu, 45: self._quarantine},
            check_deltas=True,
        )

    def test_flap_fault_trips_identical_livelock_diagnosis(self):
        cfg = torus(4, 4)

        def diagnose(engine):
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

        ref = diagnose(mono(cfg))
        assert set(ref[3]) == {"fwd:1.3", "room:5.1"}
        assert diagnose(PartitionedEngine(cfg, partitions=2)) == ref

    def test_quarantine_wires_repairs_diagnosed_link(self):
        cfg = torus(4, 4)
        engine = PartitionedEngine(cfg, partitions=2)
        names = engine.install_flap_fault(1, 3)
        repaired = engine.quarantine_wires(names)
        assert (1, 3) in repaired
        engine.run(30)  # no livelock after the repair
        assert (1, 3) in engine.quarantined_links


class TestEngineSurface:
    def test_registered_in_engine_registry(self):
        from repro.engines import list_engines, make_engine

        assert "partitioned" in {info.name for info in list_engines()}
        cfg = torus(4, 4)
        engine = make_engine("partitioned", cfg, partitions=2)
        assert engine.name == "partitioned"
        assert engine.layout_line() == (
            "partitions: 2 tiles (1x2 blocks of 4x2, 8 routers each), "
            "16 boundary links"
        )

    def test_layout_line_names_transport_and_sync(self):
        """The banner names tiles and boundary links; with one lockstep
        protocol left it names no transport or sync mode any more."""
        line = PartitionedEngine(torus(4, 4), partitions=2).layout_line()
        assert "boundary links" in line
        assert "local" not in line and "lockstep" not in line
        assert "switch" not in line

    def test_sweep_engine_cls_hook(self):
        """fig1/pattern sweeps take the partitioned engine through their
        ``engine_cls`` extension point — points identical to the
        sequential engine's (the lockstep model is the exact protocol)."""
        from repro.experiments.patterns import run_pattern

        ref = run_pattern("transpose", cycles=80)
        part = run_pattern(
            "transpose", cycles=80, engine_cls=PartitionedEngineFactory(2)
        )
        assert part == ref


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
        """Tiles run in lockstep in one process: there is no transport
        to choose, and the flag is a usage error."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--partitions", "2", "--transport", "process"])
        assert exc.value.code == 2
        assert "--transport" in capsys.readouterr().err


@pytest.mark.partition_smoke
class TestPartitionSmoke:
    """A tiny 2-partition 4x4 run in the default suite — the cheap
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
