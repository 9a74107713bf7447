"""Deadlock avoidance for best-effort traffic: the dateline VC scheme.

Wormhole switching on a torus can deadlock: packets buffered all the way
around one of the wrap-around rings form a cyclic channel dependency and
stall forever.  GT traffic is immune (each stream owns a private VC
along its whole path and drains into an always-ready sink), but BE
packets allocate VCs hop by hop and can close the cycle.

The standard fix (Dally's dateline scheme) splits the BE virtual
channels into a *low* and a *high* class per unidirectional ring:

* packets travel on the low class until they cross the ring's wrap-around
  link (the "dateline"), then switch to the high class;
* with minimal (XY) routing a packet crosses each ring's dateline at
  most once, so the channel order  low(0) < low(1) < ... < high(0) <
  high(1) < ...  is acyclic within a ring;
* dimension-order routing never turns from Y back to X, so ordering all
  X-ring channels below all Y-ring channels extends the argument to the
  whole torus.

The policy is expressed as a single callable shared by the functional
router, the RTL router and (through them) the sequential simulator, so
all engines stay bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.noc.config import NetworkConfig, Port, RouterConfig

#: policy signature: (in_port, in_vc, out_port) -> candidate output VCs,
#: tried in order.
BeVcPolicy = Callable[[int, int, int], Tuple[int, ...]]


def free_policy(cfg: RouterConfig) -> BeVcPolicy:
    """No deadlock avoidance: any free BE VC (lowest index first).

    Matches a design that relies on bounded load to avoid ring deadlock;
    kept for the ablation benchmark and for mesh-only deployments.
    """
    candidates = cfg.be_vcs

    def policy(in_port: int, in_vc: int, out_port: int) -> Tuple[int, ...]:
        return candidates

    return policy


_AXIS = {
    int(Port.EAST): 0,
    int(Port.WEST): 0,
    int(Port.NORTH): 1,
    int(Port.SOUTH): 1,
}


def dateline_policy(net: NetworkConfig, position: int) -> BeVcPolicy:
    """Dateline VC selection for the router at ``position``.

    The BE VCs are split in half: the lower indices form the low class,
    the upper ones the high class (the default config's BE VCs {2, 3}
    give one VC per class).  Selection rules:

    * taking a wrap-around link -> high class (the packet is crossing
      the dateline now, or injecting directly onto it);
    * entering a new dimension (or coming from the local port) over a
      normal link -> low class;
    * continuing straight in the same dimension -> keep the current
      class;
    * ejecting locally -> keep the current class.
    """
    cfg = net.router
    be = cfg.be_vcs
    if len(be) < 2:
        raise ValueError(
            "the dateline scheme needs at least two best-effort VCs "
            f"(configured: {be}); use free_policy for single-VC designs"
        )
    half = len(be) // 2
    low: Tuple[int, ...] = be[:half] if half else be
    high: Tuple[int, ...] = be[half:]
    wraps = _wrap_ports(net, position)

    def policy(in_port: int, in_vc: int, out_port: int) -> Tuple[int, ...]:
        if out_port == int(Port.LOCAL):
            return high if in_vc in high else low
        if out_port in wraps:
            return high
        in_axis = _AXIS.get(in_port)  # None for LOCAL
        if in_axis is None or in_axis != _AXIS[out_port]:
            return low  # a fresh ring: start below the dateline
        return high if in_vc in high else low

    return policy


def _wrap_ports(net: NetworkConfig, position: int) -> FrozenSet[int]:
    """The output ports at ``position`` that cross their ring's dateline
    (a torus's wrap-around links)."""
    if net.topology != "torus":
        return frozenset()
    x, y = net.coords(position)
    wraps = set()
    if x == net.width - 1 and net.width > 1:
        wraps.add(int(Port.EAST))
    if x == 0 and net.width > 1:
        wraps.add(int(Port.WEST))
    if y == net.height - 1 and net.height > 1:
        wraps.add(int(Port.SOUTH))
    if y == 0 and net.height > 1:
        wraps.add(int(Port.NORTH))
    return frozenset(wraps)


def _uses_dateline(net: NetworkConfig) -> bool:
    return net.router.deadlock_avoidance and len(net.router.be_vcs) >= 2


def make_policy(net: NetworkConfig, position: int) -> BeVcPolicy:
    """The policy selected by the network configuration."""
    if _uses_dateline(net):
        return dateline_policy(net, position)
    return free_policy(net.router)


def packed_policy(net: NetworkConfig):
    """The whole network's BE VC-selection policy as one gather table.

    Returns an ``[n_routers, n_ports, n_vcs, n_ports, n_vcs]`` int64
    NumPy array: ``table[r, in_port, in_vc, out_port]`` holds the
    candidate output VCs in trial order, padded with ``-1``.  The
    entries are produced by calling :func:`make_policy` itself for every
    argument combination, so the packed table is the exact policy every
    engine shares — the batch engine gathers from it instead of calling
    the closure per HEAD flit.  A router's policy depends on its
    position only through its dateline ports, so one ``[P, V, P, V]``
    table is built per distinct set of them and broadcast to its
    routers.
    """
    import numpy as np

    cfg = net.router
    n_ports, n_vcs = cfg.n_ports, cfg.n_vcs
    classes: Dict[FrozenSet[int], List[int]] = {}
    dateline = _uses_dateline(net)
    for r in range(net.n_routers):
        key = _wrap_ports(net, r) if dateline else frozenset()
        classes.setdefault(key, []).append(r)
    table = np.empty((net.n_routers, n_ports, n_vcs, n_ports, n_vcs), dtype=np.int64)
    for routers in classes.values():
        policy = make_policy(net, routers[0])
        block = np.full((n_ports, n_vcs, n_ports, n_vcs), -1, dtype=np.int64)
        for in_port in range(n_ports):
            for in_vc in range(n_vcs):
                for out_port in range(n_ports):
                    cands = policy(in_port, in_vc, out_port)
                    block[in_port, in_vc, out_port, : len(cands)] = cands
        table[routers] = block
    return table
