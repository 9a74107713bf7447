"""Deadlock avoidance tests: the torus ring scenario and the dateline fix."""

import pytest

from repro.engines import CycleEngine
from repro.noc import NetworkConfig, Port, RouterConfig
from repro.noc.deadlock import dateline_policy, free_policy, make_policy

from tests.helpers import PacketDriver, be_packet


def ring_net(deadlock_avoidance: bool) -> NetworkConfig:
    """A 6x1 torus: a single east-west ring, the minimal deadlock arena."""
    return NetworkConfig(
        6,
        1,
        topology="torus",
        router=RouterConfig(queue_depth=2, deadlock_avoidance=deadlock_avoidance),
    )


def flood_ring(net, packets_per_node=3, nbytes=40):
    """Every node fires long packets halfway around the ring, saturating
    every east link simultaneously."""
    engine = CycleEngine(net)
    driver = PacketDriver(engine)
    seq = 0
    for src in range(6):
        for _ in range(packets_per_node):
            dest = (src + 3) % 6
            driver.send(be_packet(net, src, dest, nbytes=nbytes, seq=seq % 256), vc=2)
            driver.send(be_packet(net, src, dest, nbytes=nbytes, seq=(seq + 1) % 256), vc=3)
            seq += 2
    return engine, driver


class TestRingDeadlock:
    def test_free_allocation_deadlocks(self):
        """Without the dateline the saturated ring wedges: buffered flits
        stop moving even though nothing was delivered yet."""
        net = ring_net(deadlock_avoidance=False)
        engine, driver = flood_ring(net)
        with pytest.raises(AssertionError, match="did not drain"):
            driver.run_until_drained(max_cycles=3000)
        # Confirm a true deadlock, not just slowness: every router's
        # state is frozen (only the interfaces' access-delay counters
        # keep ticking while their flits wait forever).
        before = [s.state_tuple() for s in engine.states]
        buffered = engine.total_buffered()
        engine.run(50)
        assert [s.state_tuple() for s in engine.states] == before
        assert engine.total_buffered() == buffered > 0

    def test_dateline_drains_the_same_workload(self):
        net = ring_net(deadlock_avoidance=True)
        engine, driver = flood_ring(net)
        driver.run_until_drained(max_cycles=6000)
        expected = 6 * 3 * 2
        assert len(driver.delivered) == expected

    def test_dateline_on_6x6_torus_survives_heavy_load(self):
        net = NetworkConfig(6, 6, router=RouterConfig(queue_depth=2))
        engine = CycleEngine(net)
        driver = PacketDriver(engine)
        seq = 0
        for src in range(36):
            dest = (src + 21) % 36
            for vc in (2, 3):
                driver.send(be_packet(net, src, dest, nbytes=30, seq=seq % 256), vc=vc)
                seq += 1
        driver.run_until_drained(max_cycles=8000)
        assert len(driver.delivered) == 72


class TestDatelinePolicy:
    def setup_method(self):
        self.net = NetworkConfig(4, 4, topology="torus")

    def test_wrap_link_forces_high_class(self):
        # Router at x=3: EAST is the dateline.
        policy = dateline_policy(self.net, self.net.index(3, 1))
        assert policy(int(Port.WEST), 2, int(Port.EAST)) == (3,)

    def test_straight_keeps_class(self):
        policy = dateline_policy(self.net, self.net.index(1, 1))
        assert policy(int(Port.WEST), 2, int(Port.EAST)) == (2,)
        assert policy(int(Port.WEST), 3, int(Port.EAST)) == (3,)

    def test_dimension_turn_resets_to_low(self):
        policy = dateline_policy(self.net, self.net.index(1, 1))
        assert policy(int(Port.WEST), 3, int(Port.SOUTH)) == (2,)

    def test_injection_starts_low(self):
        policy = dateline_policy(self.net, self.net.index(1, 1))
        assert policy(int(Port.LOCAL), 2, int(Port.EAST)) == (2,)

    def test_injection_onto_wrap_is_high(self):
        policy = dateline_policy(self.net, self.net.index(0, 0))
        assert policy(int(Port.LOCAL), 2, int(Port.WEST)) == (3,)

    def test_ejection_keeps_class(self):
        policy = dateline_policy(self.net, self.net.index(1, 1))
        assert policy(int(Port.EAST), 3, int(Port.LOCAL)) == (3,)
        assert policy(int(Port.EAST), 2, int(Port.LOCAL)) == (2,)

    def test_mesh_has_no_wrap_links(self):
        mesh = NetworkConfig(4, 4, topology="mesh")
        policy = dateline_policy(mesh, mesh.index(3, 3))
        assert policy(int(Port.WEST), 2, int(Port.EAST)) == (2,)

    def test_needs_two_be_vcs(self):
        net = NetworkConfig(4, 4, router=RouterConfig(gt_vcs=frozenset({0, 1, 2})))
        with pytest.raises(ValueError):
            dateline_policy(net, 0)

    def test_make_policy_falls_back_to_free(self):
        net = NetworkConfig(4, 4, router=RouterConfig(gt_vcs=frozenset({0, 1, 2})))
        policy = make_policy(net, 0)
        assert policy(int(Port.WEST), 3, int(Port.EAST)) == (3,)

    def test_free_policy_offers_all_be_vcs(self):
        policy = free_policy(RouterConfig())
        assert policy(int(Port.LOCAL), 2, int(Port.EAST)) == (2, 3)


class TestPackedPolicy:
    """The batch engine's gather table, built once per dateline class,
    equals the table of one policy call per router and argument."""

    @staticmethod
    def per_call(net):
        import numpy as np

        cfg = net.router
        P, V = cfg.n_ports, cfg.n_vcs
        table = np.full((net.n_routers, P, V, P, V), -1, dtype=np.int64)
        for r in range(net.n_routers):
            policy = make_policy(net, r)
            for in_port in range(P):
                for in_vc in range(V):
                    for out_port in range(P):
                        cands = policy(in_port, in_vc, out_port)
                        table[r, in_port, in_vc, out_port, : len(cands)] = cands
        return table

    @pytest.mark.parametrize(
        "net",
        [
            NetworkConfig(4, 3),
            NetworkConfig(6, 6, topology="torus"),
            NetworkConfig(5, 1, topology="torus"),
            NetworkConfig(
                3, 3, topology="torus", router=RouterConfig(queue_depth=2),
                router_overrides=((4, RouterConfig(queue_depth=8)),),
            ),
            NetworkConfig(
                4, 4, topology="torus", router=RouterConfig(n_vcs=6, gt_vcs=frozenset({0}))
            ),
            NetworkConfig(
                4, 4, topology="torus", router=RouterConfig(gt_vcs=frozenset({0, 1, 2}))
            ),
        ],
        ids=["mesh", "torus", "ring", "heterogeneous", "five-be-vcs", "single-be-vc"],
    )
    def test_packed_table_equals_the_per_call_table(self, net):
        import numpy as np

        from repro.noc.deadlock import packed_policy

        np.testing.assert_array_equal(packed_policy(net), self.per_call(net))
