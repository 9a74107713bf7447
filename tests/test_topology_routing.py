"""Tests for topology and routing, cross-checked with networkx."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc import NetworkConfig, Port, RoutingTable, Topology
from repro.noc.reservation import GtReservationTable, ReservationError
from repro.noc.routing import route_port


def build_graph(net):
    topo = Topology(net)
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n_routers))
    for src, _sp, dst, _dp in topo.links():
        g.add_edge(src, dst)
    return g, topo


class TestTopology:
    def test_torus_degree(self):
        net = NetworkConfig(4, 4, topology="torus")
        g, _ = build_graph(net)
        assert all(d == 4 for _, d in g.out_degree())
        assert all(d == 4 for _, d in g.in_degree())

    def test_mesh_corner_degree(self):
        net = NetworkConfig(4, 4, topology="mesh")
        g, _ = build_graph(net)
        corner = net.index(0, 0)
        assert g.out_degree(corner) == 2
        center = net.index(1, 1)
        assert g.out_degree(center) == 4

    def test_neighbor_symmetry(self):
        for topology in ("torus", "mesh"):
            net = NetworkConfig(5, 3, topology=topology)
            topo = Topology(net)
            for r in range(net.n_routers):
                for p in topo.connected_ports(r):
                    nb = topo.neighbor(r, p)
                    assert topo.neighbor(nb, p.opposite) == r

    def test_signal_graph_levels_match_networkx(self):
        # The levelizer sorts with its own Kahn scan; networkx is the
        # cross-check: same DAG, a valid order, the same level sets.
        import sys

        from repro.kernels.levelize import levelize, toposort

        for topology in ("torus", "mesh"):
            nodes, edges = Topology(NetworkConfig(4, 3, topology=topology)).signal_graph()
            g = nx.DiGraph()
            g.add_nodes_from(nodes)
            g.add_edges_from(edges)
            assert nx.is_directed_acyclic_graph(g)
            position = {node: i for i, node in enumerate(toposort(nodes, edges))}
            assert all(position[a] < position[b] for a, b in g.edges)
            levels = levelize((nodes, edges)).levels
            assert [set(level) for level in levels] == [
                set(generation) for generation in nx.topological_generations(g)
            ]
        assert "networkx" not in sys.modules["repro.kernels.levelize"].__dict__

    def test_local_port_has_no_neighbor(self):
        topo = Topology(NetworkConfig(3, 3))
        assert topo.neighbor(0, Port.LOCAL) is None

    def test_torus_is_strongly_connected(self):
        g, _ = build_graph(NetworkConfig(6, 6, topology="torus"))
        assert nx.is_strongly_connected(g)

    def test_mesh_is_strongly_connected(self):
        g, _ = build_graph(NetworkConfig(6, 6, topology="mesh"))
        assert nx.is_strongly_connected(g)

    def test_degenerate_1x2(self):
        net = NetworkConfig(1, 2, topology="torus")
        topo = Topology(net)
        # Height-2 torus: north and south both reach the other router.
        assert topo.neighbor(0, Port.NORTH) == 1
        assert topo.neighbor(0, Port.SOUTH) == 1
        assert topo.neighbor(0, Port.EAST) is None  # width-1: self-loop removed

    def test_wires_pair_fwd_and_room(self):
        net = NetworkConfig(3, 3)
        topo = Topology(net)
        wires = topo.wires()
        fwd = [w for w in wires if w.kind == "fwd"]
        room = [w for w in wires if w.kind == "room"]
        assert len(fwd) == len(room) == len(topo.links())
        # Every room wire flows opposite to its forward wire.
        fwd_set = {(w.writer, w.writer_port, w.reader, w.reader_port) for w in fwd}
        for w in room:
            assert (w.reader, w.reader_port, w.writer, w.writer_port) in fwd_set

    def test_hops_matches_networkx(self):
        for topology in ("torus", "mesh"):
            net = NetworkConfig(4, 3, topology=topology)
            g, topo = build_graph(net)
            lengths = dict(nx.all_pairs_shortest_path_length(g))
            for s in range(net.n_routers):
                for d in range(net.n_routers):
                    assert topo.hops(s, d) == lengths[s][d], (topology, s, d)


class TestRouting:
    def test_route_to_self_is_local(self):
        net = NetworkConfig(4, 4)
        assert route_port(net, 5, 5) == Port.LOCAL

    def test_x_before_y(self):
        net = NetworkConfig(6, 6, topology="mesh")
        # From (0,0) to (3,3): must first go EAST.
        assert route_port(net, net.index(0, 0), net.index(3, 3)) == Port.EAST
        # From (3,0) to (3,3): X done, go SOUTH.
        assert route_port(net, net.index(3, 0), net.index(3, 3)) == Port.SOUTH

    def test_torus_wraps_short_way(self):
        net = NetworkConfig(6, 6, topology="torus")
        # (0,0) -> (5,0): one hop WEST via wrap-around beats 5 hops EAST.
        assert route_port(net, net.index(0, 0), net.index(5, 0)) == Port.WEST
        # Tie at distance 3 (6-wide): positive direction wins.
        assert route_port(net, net.index(0, 0), net.index(3, 0)) == Port.EAST

    def test_paths_have_minimal_length(self):
        for topology in ("torus", "mesh"):
            net = NetworkConfig(4, 4, topology=topology)
            table = RoutingTable(net)
            topo = Topology(net)
            for s in range(net.n_routers):
                for d in range(net.n_routers):
                    path = table.path(s, d)
                    assert len(path) - 1 == topo.hops(s, d)
                    assert path[0] == s and path[-1] == d

    @given(st.integers(0, 35), st.integers(0, 35))
    def test_path_terminates_property(self, s, d):
        net = NetworkConfig(6, 6, topology="torus")
        table = RoutingTable(net)
        path = table.path(s, d)
        assert path[-1] == d
        assert len(set(path)) == len(path)  # no revisits under XY routing

    def test_links_on_path(self):
        net = NetworkConfig(4, 4, topology="mesh")
        table = RoutingTable(net)
        links = table.links_on_path(net.index(0, 0), net.index(2, 0))
        assert links == ((net.index(0, 0), Port.EAST), (net.index(1, 0), Port.EAST))


class TestGtReservation:
    def test_disjoint_streams_share_vc0(self):
        net = NetworkConfig(6, 6)
        table = GtReservationTable(net)
        # One-hop east shifts: link-disjoint, all can take VC 0.
        for y in range(6):
            stream = table.reserve(net.index(0, y), net.index(1, y))
            assert stream.vc == 0

    def test_overlapping_streams_get_distinct_vcs(self):
        net = NetworkConfig(6, 6)
        table = GtReservationTable(net)
        s1 = table.reserve(net.index(0, 0), net.index(2, 0))
        s2 = table.reserve(net.index(1, 0), net.index(3, 0))
        # Both use link (1,0)->(2,0): VCs must differ.
        assert s1.vc != s2.vc

    def test_exhaustion_raises(self):
        net = NetworkConfig(6, 6)  # two GT VCs by default
        table = GtReservationTable(net)
        table.reserve(net.index(0, 0), net.index(2, 0))
        table.reserve(net.index(1, 0), net.index(3, 0))
        with pytest.raises(ReservationError):
            # A third stream over link (1,0)->(2,0) cannot be coloured.
            table.reserve(net.index(0, 0), net.index(3, 0))

    def test_same_destination_needs_distinct_vcs(self):
        net = NetworkConfig(6, 6)
        table = GtReservationTable(net)
        s1 = table.reserve(net.index(1, 1), net.index(3, 1))
        s2 = table.reserve(net.index(3, 2), net.index(3, 1))
        assert s1.vc != s2.vc  # they share the ejection link at (3,1)

    def test_self_stream_rejected(self):
        net = NetworkConfig(6, 6)
        with pytest.raises(ReservationError):
            GtReservationTable(net).reserve(3, 3)

    def test_no_gt_vcs_configured(self):
        from repro.noc import RouterConfig

        net = NetworkConfig(4, 4, router=RouterConfig(gt_vcs=frozenset()))
        with pytest.raises(ReservationError):
            GtReservationTable(net)

    def test_max_link_sharing(self):
        net = NetworkConfig(6, 6)
        table = GtReservationTable(net)
        assert table.max_link_sharing() == 0
        table.reserve(net.index(0, 0), net.index(2, 0))
        table.reserve(net.index(1, 0), net.index(3, 0))
        assert table.max_link_sharing() == 2
