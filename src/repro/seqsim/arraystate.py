"""Bit-packed structure-of-arrays state for the batched array simulator.

The paper's central observation (sections 4.1-4.2) is that the whole
simulated SoC is *already* a wide, regular memory: per-router state
words (Table 1) plus a link memory with HBR bits.  That regularity is
exactly what NumPy wants.  This module lays the architectural state of
**B independent simulations** ("lanes", the software analogue of
batched FPGA instances) out as dense integer arrays, one row per
router, one plane per lane:

========================  ==================  =================================
array                     shape               Table-1 analogue
========================  ==================  =================================
``mem``                   ``[B, R, Q, D]``    input-queue storage (1440 b)
``rd`` / ``wr``           ``[B, R, Q]``       queue read/write pointers
``count``                 ``[B, R, Q]``       queue occupancy counters
``alloc``                 ``[B, R, Q]``       output-VC allocation table
``queue_alloc``           ``[B, R, Q]``       inverse allocation map
``arb_ptr``               ``[B, R, P]``       per-output round-robin pointers
``alloc_ptr``             ``[B, R]``          allocator rotating pointer
``flags``                 ``[B, R]``          misc status register
``inj_word``/``inj_valid````[B, R, V]``       stimuli injection head registers
``rr_ptr``                ``[B, R]``          stimuli injection arbiter pointer
``delay``                 ``[B, R, V]``       access-delay counters (20 b)
``eject_word``/``_valid`` ``[B, R]``          ejection capture register
``stalled``               ``[B, R]``          sticky offer-refused flag
========================  ==================  =================================

(R = routers, Q = P*V input queues, D = the widest queue depth, P =
ports, V = virtual channels.)  With ``hbr=True`` the state also carries
the link memory the generated body's HBR accounting pass walks —
``wires``, ``[B, 2*R*P + 1]``: per lane the forward word, then the room
word, each router last wrote at each port, then the round-robin
scheduler's pointer.  It is simulator state, not architecture: no
snapshot or checkpoint holds it.  Every array is a fixed-width integer
dtype — an ``object`` dtype anywhere in here would silently fall back
to per-element Python arithmetic, which is why the CI gate asserts
:func:`packed_dtypes` stays object-free.

Heterogeneous networks (per-router queue depth overrides) pad ``mem``
to the widest depth, exactly like the FPGA provisions the widest word
network-wide; :meth:`ArrayState.snapshot_lane` slices the padding back
off so snapshots compare bit-for-bit against the object-model engines.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.noc.config import NetworkConfig

#: the dtype of every packed state array (words are <= 20 bits, masks
#: <= Q bits; one signed 64-bit lane keeps all the shift/mask arithmetic
#: in a single fast dtype).
DTYPE = np.int64

#: attribute names of all packed state arrays, in layout order.
FIELDS = (
    "mem",
    "rd",
    "wr",
    "count",
    "alloc",
    "queue_alloc",
    "arb_ptr",
    "alloc_ptr",
    "flags",
    "inj_word",
    "inj_valid",
    "rr_ptr",
    "delay",
    "eject_word",
    "eject_valid",
    "stalled",
)


def estimate_bytes(cfg: NetworkConfig, lanes: int) -> int:
    """Bytes :class:`ArrayState` will allocate for ``lanes`` lanes.

    Exact for the packed arrays (every field is one int64 per element);
    the CLI runs this *before* allocating so an over-committed run fails
    with a plan, not an opaque ``numpy`` MemoryError mid-construction.
    """
    rc = cfg.router
    n = cfg.n_routers
    nq = rc.n_queues
    dmax = max(cfg.router_at(r).queue_depth for r in range(n))
    per_router = (
        nq * dmax  # mem
        + 5 * nq  # rd, wr, count, alloc, queue_alloc
        + rc.n_ports  # arb_ptr
        + 3 * rc.n_vcs  # inj_word, inj_valid, delay
        + 6  # alloc_ptr, flags, rr_ptr, eject_word, eject_valid, stalled
    )
    return 8 * lanes * n * per_router


class ArrayState:
    """All architectural state of ``lanes`` independent simulations.

    The reset state matches ``RouterState`` / ``StimuliState``
    construction bit-for-bit: empty queues, free allocation tables,
    round-robin pointers parked on the highest index so the first scan
    starts at 0.
    """

    def __init__(self, cfg: NetworkConfig, lanes: int, hbr: bool = False) -> None:
        if lanes < 1:
            raise ValueError("at least one lane required")
        rc = cfg.router
        n = cfg.n_routers
        nq = rc.n_queues
        self.cfg = cfg
        self.lanes = lanes
        self.n_routers = n
        self.n_queues = nq
        #: per-router queue depth (heterogeneous networks vary it).
        self.depth = np.array(
            [cfg.router_at(r).queue_depth for r in range(n)], dtype=DTYPE
        )
        dmax = int(self.depth.max())
        shape = (lanes, n)
        try:
            self.mem = np.zeros(shape + (nq, dmax), dtype=DTYPE)
            self.rd = np.zeros(shape + (nq,), dtype=DTYPE)
            self.wr = np.zeros(shape + (nq,), dtype=DTYPE)
            self.count = np.zeros(shape + (nq,), dtype=DTYPE)
            self.alloc = np.full(shape + (nq,), -1, dtype=DTYPE)
            self.queue_alloc = np.full(shape + (nq,), -1, dtype=DTYPE)
            self.arb_ptr = np.full(shape + (rc.n_ports,), nq - 1, dtype=DTYPE)
            self.alloc_ptr = np.full(shape, nq - 1, dtype=DTYPE)
            self.flags = np.zeros(shape, dtype=DTYPE)
            self.inj_word = np.zeros(shape + (rc.n_vcs,), dtype=DTYPE)
            self.inj_valid = np.zeros(shape + (rc.n_vcs,), dtype=DTYPE)
            self.rr_ptr = np.full(shape, rc.n_vcs - 1, dtype=DTYPE)
            self.delay = np.zeros(shape + (rc.n_vcs,), dtype=DTYPE)
            self.eject_word = np.zeros(shape, dtype=DTYPE)
            self.eject_valid = np.zeros(shape, dtype=DTYPE)
            self.stalled = np.zeros(shape, dtype=DTYPE)
            #: the HBR wire plane, ``None`` without the accounting pass
            self.wires = self.reset_wires() if hbr else None
        except MemoryError as exc:
            raise MemoryError(
                f"cannot allocate packed state for {lanes} lane(s) of a "
                f"{cfg.width}x{cfg.height} network "
                f"(~{estimate_bytes(cfg, lanes):,} bytes); reduce --lanes"
            ) from exc

    def reset_wires(self) -> np.ndarray:
        """The wire plane at reset — and whenever a lane is idle: idle
        forward words, full room (empty queues have space), the
        scheduler's pointer parked so the first pick is unit 0."""
        rc = self.cfg.router
        plane = self.n_routers * rc.n_ports
        wires = np.zeros((self.lanes, 2 * plane + 1), dtype=DTYPE)
        wires[:, plane : 2 * plane] = (1 << rc.n_vcs) - 1
        wires[:, -1] = self.n_routers - 1
        return wires

    # -- interchange with the object model ---------------------------------
    def load_lane(self, lane: int, states, iface_states) -> None:
        """Overwrite one lane from object-model state lists
        (``RouterState`` / ``StimuliState``), bit-for-bit."""
        for r, state in enumerate(states):
            depth = int(self.depth[r])
            for q, queue in enumerate(state.queues):
                if queue.depth != depth:
                    raise ValueError("queue depth mismatch against config")
                self.mem[lane, r, q, :depth] = queue.mem
                self.rd[lane, r, q] = queue.rd
                self.wr[lane, r, q] = queue.wr
                self.count[lane, r, q] = queue.count
            self.alloc[lane, r] = state.alloc
            self.queue_alloc[lane, r] = state.queue_alloc
            self.arb_ptr[lane, r] = state.arb_ptr
            self.alloc_ptr[lane, r] = state.alloc_ptr
            self.flags[lane, r] = state.flags
        for r, iface in enumerate(iface_states):
            self.inj_word[lane, r] = iface.inj_word
            self.inj_valid[lane, r] = iface.inj_valid
            self.rr_ptr[lane, r] = iface.rr_ptr
            self.delay[lane, r] = iface.delay
            self.eject_word[lane, r] = iface.eject_word
            self.eject_valid[lane, r] = iface.eject_valid
            self.stalled[lane, r] = iface.stalled

    def lane_objects(self, lane: int) -> Tuple[list, list]:
        """One lane as object-model state lists, bit-for-bit — the
        inverse of :meth:`load_lane` (what a checkpoint packs)."""
        from repro.noc.network import StimuliState
        from repro.noc.router import RouterState

        states, ifaces = [], []
        for r in range(self.n_routers):
            rc = self.cfg.router_at(r)
            state = RouterState(rc)
            for q, queue in enumerate(state.queues):
                queue.mem = self.mem[lane, r, q, : rc.queue_depth].tolist()
                queue.rd = int(self.rd[lane, r, q])
                queue.wr = int(self.wr[lane, r, q])
                queue.count = int(self.count[lane, r, q])
            state.alloc = self.alloc[lane, r].tolist()
            state.queue_alloc = self.queue_alloc[lane, r].tolist()
            state.arb_ptr = self.arb_ptr[lane, r].tolist()
            state.alloc_ptr = int(self.alloc_ptr[lane, r])
            state.flags = int(self.flags[lane, r])
            states.append(state)
            iface = StimuliState(rc.n_vcs)
            iface.inj_word = self.inj_word[lane, r].tolist()
            iface.inj_valid = self.inj_valid[lane, r].tolist()
            iface.rr_ptr = int(self.rr_ptr[lane, r])
            iface.delay = self.delay[lane, r].tolist()
            iface.eject_word = int(self.eject_word[lane, r])
            iface.eject_valid = int(self.eject_valid[lane, r])
            iface.stalled = int(self.stalled[lane, r])
            ifaces.append(iface)
        return states, ifaces

    def snapshot_lane(self, lane: int) -> Tuple:
        """Bit-exact architectural snapshot of one lane, in exactly the
        shape :meth:`repro.noc.network.Network.snapshot` produces (plain
        Python ints, queue storage sliced to each router's true depth)."""
        routers = []
        ifaces = []
        for r in range(self.n_routers):
            depth = int(self.depth[r])
            queues = tuple(
                (
                    tuple(self.mem[lane, r, q, :depth].tolist()),
                    int(self.rd[lane, r, q]),
                    int(self.wr[lane, r, q]),
                    int(self.count[lane, r, q]),
                )
                for q in range(self.n_queues)
            )
            routers.append(
                (
                    queues,
                    tuple(self.alloc[lane, r].tolist()),
                    tuple(self.queue_alloc[lane, r].tolist()),
                    tuple(self.arb_ptr[lane, r].tolist()),
                    int(self.alloc_ptr[lane, r]),
                    int(self.flags[lane, r]),
                )
            )
            ifaces.append(
                (
                    tuple(self.inj_word[lane, r].tolist()),
                    tuple(self.inj_valid[lane, r].tolist()),
                    int(self.rr_ptr[lane, r]),
                    tuple(self.delay[lane, r].tolist()),
                    int(self.eject_word[lane, r]),
                    int(self.eject_valid[lane, r]),
                    int(self.stalled[lane, r]),
                )
            )
        return (tuple(routers), tuple(ifaces))

    # -- aggregate queries -------------------------------------------------
    def total_buffered(self, lane=None) -> int:
        """Flits buffered in the fabric (one lane, or all lanes)."""
        if lane is None:
            return int(self.count.sum())
        return int(self.count[lane].sum())

    def drained(self, lane=None) -> bool:
        """True when nothing is buffered and no injection is pending."""
        if lane is None:
            return self.total_buffered() == 0 and int(self.inj_valid.sum()) == 0
        return (
            self.total_buffered(lane) == 0
            and int(self.inj_valid[lane].sum()) == 0
        )

    def packed_dtypes(self) -> dict:
        """Field name -> dtype for every packed array (the CI dtype gate
        asserts none of these is ``object``)."""
        return {name: getattr(self, name).dtype for name in FIELDS}


def assert_packed(arrays: dict) -> List[str]:
    """Return the names of any arrays with a non-integer or ``object``
    dtype — the failure list for the CI dtype gate."""
    bad = []
    for name, dtype in arrays.items():
        if dtype == np.dtype(object) or dtype.kind not in "iu":
            bad.append(name)
    return bad
