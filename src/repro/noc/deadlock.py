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

import functools
from typing import Callable, Dict, FrozenSet, List, Tuple

import numpy as np

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
    give one VC per class).  The rules are stated once, as a table
    (:func:`_dateline_table`); the policy reads it.
    """
    cfg = net.router
    return _dateline_table(cfg.be_vcs, cfg.n_ports, cfg.n_vcs, _wrap_ports(net, position))[1]


@functools.lru_cache(maxsize=None)
def _dateline_table(
    be: Tuple[int, ...], n_ports: int, n_vcs: int, wraps: FrozenSet[int]
) -> Tuple[np.ndarray, BeVcPolicy]:
    """The dateline rules of a router whose wrap-around output ports are
    ``wraps``: ``table[in_port, in_vc, out_port]`` holds the candidate
    output VCs in trial order, padded with ``-1`` (read-only), and the
    policy that reads it.  Selection rules:

    * taking a wrap-around link -> high class (the packet is crossing
      the dateline now, or injecting directly onto it);
    * entering a new dimension (or coming from the local port) over a
      normal link -> low class;
    * continuing straight in the same dimension -> keep the current
      class;
    * ejecting locally -> keep the current class.
    """
    if len(be) < 2:
        raise ValueError(
            "the dateline scheme needs at least two best-effort VCs "
            f"(configured: {be}); use free_policy for single-VC designs"
        )
    low, high = be[: len(be) // 2], be[len(be) // 2 :]
    classes = np.full((2, n_vcs), -1, dtype=np.int64)  # rows: low, high
    classes[0, : len(low)] = low
    classes[1, : len(high)] = high
    if wraps:  # the rules without them, the wrap-around links high
        table = _dateline_table(be, n_ports, n_vcs, frozenset())[0].copy()
        table[:, :, sorted(wraps)] = classes[1]
    else:
        local = int(Port.LOCAL)
        axis = [_AXIS.get(p) for p in range(n_ports)]  # None for LOCAL
        # [in_port][out_port]: whether a packet keeps its class (ejecting,
        # or straight on in its dimension); [in_vc]: whether it is high
        keeps = [[out == local or axis[i] == axis[out] for out in range(n_ports)] for i in range(n_ports)]
        was_high = [vc in high for vc in range(n_vcs)]
        table = classes[
            np.array([[[h and k for k in keep] for h in was_high] for keep in keeps], dtype=np.intp)
        ]
    table.flags.writeable = False
    rows: list = []  # the table as tuples, built at the policy's first call

    def policy(in_port: int, in_vc: int, out_port: int) -> Tuple[int, ...]:
        if not rows:
            rows[:] = [
                [[tuple(c for c in cands if c >= 0) for cands in by_out] for by_out in by_vc]
                for by_vc in table.tolist()
            ]
        return rows[in_port][in_vc][out_port]

    return table, policy


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


def packed_policy(net: NetworkConfig) -> np.ndarray:
    """The whole network's BE VC-selection policy as one gather table.

    Returns an ``[n_routers, n_ports, n_vcs, n_ports, n_vcs]`` int64
    NumPy array: ``table[r, in_port, in_vc, out_port]`` holds the
    candidate output VCs in trial order, padded with ``-1`` — the exact
    policy every engine shares: the batch engine gathers from it instead
    of calling the closure per HEAD flit.  A router's dateline policy
    depends on its position only through its wrap-around ports, so the
    table each distinct set of them reads (:func:`_dateline_table`) is
    broadcast to its routers.
    """
    cfg = net.router
    n_ports, n_vcs = cfg.n_ports, cfg.n_vcs
    table = np.empty((net.n_routers, n_ports, n_vcs, n_ports, n_vcs), dtype=np.int64)
    if not _uses_dateline(net):  # free_policy: every BE VC, whatever the arguments
        table.fill(-1)
        table[..., : len(cfg.be_vcs)] = cfg.be_vcs
        return table
    classes: Dict[FrozenSet[int], List[int]] = {}
    for r in range(net.n_routers):
        classes.setdefault(_wrap_ports(net, r), []).append(r)
    for wraps, routers in classes.items():
        table[routers] = _dateline_table(cfg.be_vcs, n_ports, n_vcs, wraps)[0]
    return table
