"""The vectorized batch engine: NumPy delta sweeps, lane-parallel lanes.

``BatchEngine`` evaluates the whole network with whole-array NumPy
operations over the bit-packed structure-of-arrays state of
:mod:`repro.seqsim.arraystate`.  One :meth:`step` advances **every
router of every lane** through the three bulk-synchronous sweeps of the
static sequential schedule (rooms, forwards, state update — the same
sweep structure as :class:`repro.seqsim.sequential.StaticSequentialNetwork`,
3·R delta cycles per system cycle), so the per-cycle cost is a fixed,
small number of array kernels instead of a Python loop over routers.

The extra **lane axis B** is the paper's "batched FPGA instances"
analogue: B independent simulations (different seeds, offered loads or
traffic patterns) ride through the identical array operations in one
pass.  Each lane is bit-identical to a solo run of the same traffic on
:class:`~repro.engines.sequential.SequentialEngine` or
:class:`~repro.engines.cycle.CycleEngine` — the batch lockstep tests
drive all three and compare every architectural bit every cycle.

Equivalence argument (vs. the golden three-phase semantics, which the
sequential engine's delta iteration provably reproduces):

* **room sweep** — per-queue occupancy compare + bit-pack; Moore, from
  committed state only, exactly phase 1;
* **forward sweep** — the stimuli round-robin grant and the per-output
  crossbar arbitration are bit-scan arithmetic (``x & -x`` /
  trailing-zero-count), the vectorized twin of the shared
  :func:`~repro.rtl.primitives.round_robin_grant`; Mealy only in the
  settled room wires, exactly phase 2;
* **update sweep** — pops, pushes and output-VC allocation decisions
  observe the pre-update state (allocation against the *old* table,
  registered-RTL behaviour), exactly phase 3.  The rotating-priority
  allocation scan is the one data-dependent sequential loop; it runs
  over the Q scan offsets with all lanes and routers advancing together,
  gathering routes and dateline VC candidates from the packed tables
  exported by :mod:`repro.noc` instead of calling per-router closures.

Traffic enters per lane through :meth:`BatchEngine.lane` views (each a
drop-in ``offer``/log surface for one lane); :func:`run_batched` pumps
one :class:`~repro.traffic.stimuli.TrafficDriver` per lane against a
single batched step loop.

The sweeps are the reference body (``kernel="python"``); every other
``kernel=`` binds the generated-C body of :mod:`repro.kernels.batchlevel`
over all lanes at once, where the host can build it
(:meth:`BatchEngine._bind`).
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engines.eventlog import EventLog
from repro.noc.config import NetworkConfig, Port
from repro.noc.deadlock import packed_policy
from repro.noc.flit import X_FIELD, Y_FIELD, FlitType, field
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.noc.router import ProtocolError
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology
from repro.seqsim.arraystate import ArrayState
from repro.seqsim.metrics import DeltaMetrics

__all__ = ["BatchEngine", "BatchLane", "run_batched", "drain_batched"]

_ONE = np.int64(1)

#: the one-warning latch of the degrade path (reset only by tests).
_warned_degrade = False


def _ctz(x):
    """Trailing-zero count of each element; callers mask out zeros
    (x == 0 yields a garbage 1, never an error)."""
    return np.bitwise_count((x & -x) - _ONE)


def _rr_pick(req, last, n, mask):
    """First set bit of ``req`` cyclically above ``last`` (mod ``n``).

    The rotate-and-ctz formulation of the shared round-robin scan:
    rotating ``req`` right by ``last + 1`` turns "first set bit above
    the pointer, wrapping" into a plain trailing-zero count.  Undefined
    where ``req == 0`` — callers mask.
    """
    shift = last + 1
    rot = ((req >> shift) | (req << (n - shift))) & mask
    return (_ctz(rot) + shift) % n


class BatchLane:
    """One lane of a :class:`BatchEngine`, as an offer/log surface.

    Satisfies the traffic-facing half of the engine protocol (``cfg``,
    ``offer``, ``injection_pending``, ``cycle``, ``injections``,
    ``ejections``, ``snapshot``, ``drained``) so a
    :class:`~repro.traffic.stimuli.TrafficDriver` or a latency tracker
    can be pointed at a single lane.  Stepping is a whole-batch action:
    use :func:`run_batched` (or ``engine.step()``) — a lane cannot
    advance alone, which is exactly the bulk-synchronous contract; the
    only lane of a one-lane engine *is* the engine, and steps it.
    """

    def __init__(self, engine: "BatchEngine", lane: int) -> None:
        self.engine = engine
        self.lane = lane
        self.cfg = engine.cfg

    @property
    def cycle(self) -> int:
        return self.engine.cycle

    @property
    def injections(self) -> Sequence[InjectionRecord]:
        return self.engine.lane_injections(self.lane)

    @property
    def ejections(self) -> Sequence[EjectionRecord]:
        return self.engine.lane_ejections(self.lane)

    def offer(self, router: int, vc: int, flit) -> bool:
        return self.engine.offer(router, vc, flit, lane=self.lane)

    def injection_pending(self, router: int, vc: int) -> bool:
        return self.engine.injection_pending(router, vc, lane=self.lane)

    def snapshot(self) -> Tuple:
        return self.engine.lane_snapshot(self.lane)

    def drained(self) -> bool:
        return self.engine.state.drained(self.lane)

    def total_buffered(self) -> int:
        return self.engine.state.total_buffered(self.lane)

    def step(self) -> None:
        if self.engine.lanes != 1:
            raise RuntimeError(
                "a BatchLane cannot step alone: lanes advance together — "
                "step the BatchEngine, or drive lanes with run_batched()"
            )
        self.engine.step()


class BatchEngine:
    """Vectorized bulk-synchronous simulation of ``lanes`` networks.

    With ``lanes=1`` this is a drop-in engine (the default for
    ``make_engine('batch', cfg)`` and ``repro simulate --engine
    batch``); the protocol surface — ``offer``/``snapshot``/logs —
    addresses lane 0.  Additional lanes are driven through
    :meth:`lane` views and :func:`run_batched`.
    """

    name = "batch"

    #: delta cycles per system cycle: the three fixed array sweeps each
    #: evaluate every unit once (the static-schedule accounting).
    SWEEPS_PER_CYCLE = 3

    #: whether the body is generated with the HBR accounting pass and the
    #: metrics hold the paper's delta count per cycle, not the nominal
    #: figure (the sequential engine's; needs the generated body).
    HBR_ACCOUNTING = False

    def __init__(
        self,
        cfg: NetworkConfig,
        routing: Optional[RoutingTable] = None,
        lanes: int = 1,
        kernel: str = "auto",
    ) -> None:
        self.cfg = cfg
        self.lanes = lanes
        self.topology = Topology(cfg)
        self.routing = routing if routing is not None else RoutingTable(cfg)
        rc = cfg.router
        self.state = ArrayState(cfg, lanes, hbr=self.HBR_ACCOUNTING)
        self.cycle = 0
        self.metrics = DeltaMetrics(n_units=cfg.n_routers)
        self.pre_step_hooks: List = []
        self.quarantined_links: set = set()
        #: per-lane logs: list-speed ``append`` on the per-cycle paths,
        #: column blocks from the chunk kernel, records built on read.
        self._injections = [EventLog(InjectionRecord) for _ in range(lanes)]
        self._ejections = [EventLog(EjectionRecord) for _ in range(lanes)]

        # -- static gather tables ------------------------------------------
        n = cfg.n_routers
        self._P = rc.n_ports
        self._V = rc.n_vcs
        self._NQ = rc.n_queues
        self._dw = rc.data_width
        self._vc_shift = rc.data_width + 2
        self._payload_mask = (1 << rc.data_width) - 1
        self._flit_mask = (1 << self._vc_shift) - 1
        self._sink = (1 << rc.n_vcs) - 1
        self._head_t = int(FlitType.HEAD)
        self._tail_t = int(FlitType.TAIL)
        self._idle_t = int(FlitType.IDLE)
        self._gt_mask = sum(1 << vc for vc in rc.gt_vcs)
        nb_idx, nb_mask = self.topology.packed_neighbors()
        opp = np.array(
            [int(Port(p).opposite) if p else 0 for p in range(self._P)],
            dtype=np.int64,
        )
        opp_idx = np.broadcast_to(opp, (n, self._P))
        self._vcs = np.arange(self._V, dtype=np.int64)
        self._pow2_vc = _ONE << self._vcs
        self._route = self.routing.packed()
        self._be_cand = packed_policy(cfg)
        # Flattened gather indices (np.take on precomputed flat offsets
        # beats both take_along_axis and open-grid fancy indexing by a
        # wide margin at these array sizes).
        B, P, NQ = lanes, self._P, self._NQ
        dmax = int(self.state.depth.max())
        #: [B,R,P] flat index into a [B,R,P] wire plane: the neighbour's
        #: opposite port (the link-memory addressing function).
        self._wire_flat = (
            np.arange(B, dtype=np.int64)[:, None, None] * (n * P)
            + nb_idx[None, :, :] * P
            + opp_idx[None, :, :]
        )
        self._wire_maskB = np.broadcast_to(nb_mask, (B, n, P))
        #: [B,R,NQ] flat base into [B,R,NQ,D] queue memory (add rd).
        self._mem_base = (
            np.arange(B * n * NQ, dtype=np.int64) * dmax
        ).reshape(B, n, NQ)
        #: [B,R,1] flat base into a [B,R,NQ] plane (add a queue index).
        self._brq_base = (
            np.arange(B * n, dtype=np.int64) * NQ
        ).reshape(B, n)[:, :, None]
        #: [B,R] flat base into a [B,R,V] plane (add a VC index).
        self._brv_base = (
            np.arange(B * n, dtype=np.int64) * self._V
        ).reshape(B, n)
        self._ones_v = np.ones(self._V, dtype=np.int64)
        self._nq_rrmask = (_ONE << NQ) - 1
        self._v_rrmask = (_ONE << self._V) - 1
        # Read-only cached results for skipped sweeps (never mutated).
        self._zeros_brp = np.zeros((B, n, P), dtype=np.int64)
        self._zeros_br = np.zeros((B, n), dtype=np.int64)
        self._neg1_br = np.full((B, n), -1, dtype=np.int64)

        # -- the execution body ----------------------------------------------
        #: how the execution body was requested: "jit" (the generated-C
        #: body), "levelized" (the same body, bound once the static level
        #: schedule is proved) or "python" (the NumPy sweeps); benches
        #: report this.
        self.kernel = "python"
        #: why ``auto`` fell back to the NumPy sweeps (or ``levelized``
        #: to the ``jit`` binding), when it did.
        self.kernel_reason: Optional[str] = None
        #: what the generated body actually did, summed over its calls:
        #: routers evaluated (a router holding no flit and no valid
        #: injection register is skipped) out of ``kernel_lane_cycles``
        #: x routers — the lane-cycles it stepped, idle lanes and idle
        #: fabric windows left out.  The delta metrics stay nominal.
        self.kernel_router_evals = 0
        self.kernel_lane_cycles = 0
        #: traffic windows it ran, one fused call each, their cycles and
        #: fresh flits: the simulation period as section 5.3 states it.
        self.kernel_windows = 0
        self.kernel_window_cycles = 0
        self.kernel_window_flits = 0
        #: cycles it ran to quiescence in, after the last window (a
        #: drain is no traffic window and counts in none of the above).
        self.kernel_drain_cycles = 0
        self._compiled = None
        #: static level schedule, when the levelized tier carries one.
        self.schedule = None
        self._bind(kernel)

    def _bind(self, kernel: str) -> None:
        """Bind the body ``kernel`` asks for: ``python`` the NumPy sweeps,
        anything else the generated-C body, where the host can build it.
        Where it cannot, ``auto`` falls back to the sweeps with the reason
        (and one warning per process); ``jit`` / ``levelized`` raise it."""
        global _warned_degrade
        if kernel not in ("auto", "python", "levelized", "jit"):
            raise ValueError(
                f"unknown kernel {kernel!r}; known: auto|python|levelized|jit"
            )
        if kernel == "python":
            return
        from repro.kernels import KernelUnavailableError
        from repro.kernels.batchstep import CompiledBatchStep

        try:  # the bind asks cbackend.availability() first
            if kernel == "levelized" and self._init_levelized():
                return
            self._compiled = CompiledBatchStep(self)
            self.kernel = "jit"
            return
        except KernelUnavailableError as exc:
            if kernel != "auto":
                raise
            self.kernel_reason = str(exc)
        if not _warned_degrade:
            _warned_degrade = True
            warnings.warn(
                "repro.engines.batch: no generated-C body "
                f"({self.kernel_reason}); falling back to the NumPy sweeps",
                RuntimeWarning,
                stacklevel=3,
            )

    def _init_levelized(self) -> bool:
        """Bind the body over the level schedule (``kernel="levelized"``).

        Returns ``False`` when there is no schedule to carry (a
        combinational cycle): the caller then binds the ``jit`` body,
        with the reason recorded.
        """
        from repro.kernels.batchlevel import CompiledBatchLevel, level_orders
        from repro.kernels.levelize import CyclicDependencyError, levelize

        try:
            schedule = levelize(self.cfg)
        except CyclicDependencyError as exc:
            self.kernel_reason = f"no static schedule ({exc}); natural router order"
            return False
        if level_orders(schedule) is None:
            self.kernel_reason = (
                "schedule is not the 3-level room/fwd/state shape; "
                "natural router order"
            )
            return False
        self.schedule = schedule
        self.kernel = "levelized"
        self._compiled = CompiledBatchLevel(self, schedule)
        return True

    # -- traffic-side API ---------------------------------------------------
    def lane(self, lane: int) -> BatchLane:
        """A view of one lane for traffic drivers and trackers."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range (lanes={self.lanes})")
        return BatchLane(self, lane)

    def offer(self, router: int, vc: int, flit, lane: int = 0) -> bool:
        """Load one injection head register (see ``Network.offer``)."""
        S = self.state
        if S.inj_valid[lane, router, vc]:
            S.stalled[lane, router] = 1
            return False
        word = flit if isinstance(flit, int) else flit.encode(self._dw)
        S.inj_word[lane, router, vc] = word
        S.inj_valid[lane, router, vc] = 1
        S.delay[lane, router, vc] = 0
        S.stalled[lane, router] = 0
        return True

    def injection_pending(self, router: int, vc: int, lane: int = 0) -> bool:
        return bool(self.state.inj_valid[lane, router, vc])

    # -- logs / inspection ---------------------------------------------------
    @property
    def injections(self) -> Sequence[InjectionRecord]:
        return self._injections[0]

    @property
    def ejections(self) -> Sequence[EjectionRecord]:
        return self._ejections[0]

    def lane_injections(self, lane: int) -> Sequence[InjectionRecord]:
        return self._injections[lane]

    def lane_ejections(self, lane: int) -> Sequence[EjectionRecord]:
        return self._ejections[lane]

    def snapshot(self) -> Tuple:
        return self.state.snapshot_lane(0)

    def lane_snapshot(self, lane: int) -> Tuple:
        return self.state.snapshot_lane(lane)

    def drained(self) -> bool:
        """True when every lane is drained."""
        return self.state.drained()

    def total_buffered(self) -> int:
        return self.state.total_buffered()

    # -- degraded mode -------------------------------------------------------
    def quarantine_link(self, router: int, port: int) -> None:
        """Take a directed link out of service and reroute around it
        (the golden semantics: routing avoids the link; see
        ``Network.quarantine_link``)."""
        self.quarantined_links.add((router, int(port)))
        self.routing.recompute_avoiding(self.quarantined_links)
        self._route = self.routing.packed()

    @property
    def fault_resident(self) -> bool:
        """True while any link is quarantined — quiescence fast-forward
        is disabled then, so watchdog and livelock diagnosis behave
        exactly as without it."""
        return bool(self.quarantined_links)

    def skip_cycles(self, cycles: int) -> None:
        """Advance the clock over provably idle cycles (quiescence
        fast-forward): pure accounting — the metrics record the same
        per-cycle floor an idle stepped cycle records, and no
        architectural state is touched."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.book_cycles(cycles)

    def book_cycles(self, cycles: int, deltas: Optional[Sequence[int]] = None) -> None:
        """Advance the clock over ``cycles`` completed system cycles and
        credit their delta cycles: ``deltas``, one measured count per
        cycle (the HBR pass's column), where given; else
        :data:`SWEEPS_PER_CYCLE` sweeps of every unit each."""
        if deltas is not None:
            self.metrics.record_counts(deltas)
        elif cycles:
            self.metrics.record_cycles(
                cycles, self.SWEEPS_PER_CYCLE * self.cfg.n_routers
            )
        self.cycle += cycles

    # -- the system cycle ----------------------------------------------------
    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        compiled = self._compiled
        deltas = None
        if compiled is None:
            self._step_numpy()
        else:
            compiled.step()
            deltas = compiled.delta_column(1)
        self.book_cycles(1, deltas)

    def _step_numpy(self) -> None:
        """One cycle of the NumPy sweeps over every lane."""
        S = self.state
        B, R = self.lanes, self.cfg.n_routers
        P, V, NQ = self._P, self._V, self._NQ
        dw, vc_shift = self._dw, self._vc_shift
        fabric_active = bool(S.count.any())
        inj_active = bool(S.inj_valid.any())

        # -- sweep 1: room wires (Moore, committed occupancy only) ---------
        if fabric_active or inj_active:
            avail = S.count < S.depth[None, :, None]  # [B,R,NQ]
            # Bit-pack 4 per-VC booleans into a room nibble per port;
            # matmul against the power-of-two vector is the fastest
            # last-axis reduction at this size.
            rooms = avail.reshape(B, R, P, V) @ self._pow2_vc  # [B,R,P]

        # -- sweep 2a: stimuli interface output words ----------------------
        if inj_active:
            rooms_local = rooms[:, :, 0]
            inj_req = (
                (S.inj_valid != 0)
                & (((rooms_local[:, :, None] >> self._vcs) & 1) != 0)
            ) @ self._pow2_vc  # [B,R]
            has_inj = inj_req != 0
            choice = np.where(
                has_inj, _rr_pick(inj_req, S.rr_ptr, V, self._v_rrmask), -1
            )
            inj_sel = np.take(
                S.inj_word.reshape(-1),
                self._brv_base + np.maximum(choice, 0),
            )
            iface_word = np.where(has_inj, (choice << vc_shift) | inj_sel, 0)
        else:
            choice = self._neg1_br
            iface_word = self._zeros_br

        # -- sweep 2b: crossbar arbitration and forward words --------------
        granted_any = False
        fwd_out = self._zeros_brp
        head = None
        if fabric_active:
            head = np.take(S.mem.reshape(-1), self._mem_base + S.rd)
            ready = S.count > 0
            alloc_pv = S.alloc.reshape(B, R, P, V)
            aqc = np.maximum(alloc_pv, 0)
            ready_at = np.take(
                ready.reshape(-1), self._brq_base + aqc.reshape(B, R, NQ)
            ).reshape(B, R, P, V)
            room_in = np.where(
                self._wire_maskB, np.take(rooms.reshape(-1), self._wire_flat), 0
            )
            room_in[:, :, 0] = self._sink  # the local sink always has room
            requesting = (
                (alloc_pv >= 0)
                & (((room_in[:, :, :, None] >> self._vcs) & 1) != 0)
                & ready_at
            )
            # The queues allocated to one port's VCs are always distinct
            # (alloc/queue_alloc are inverse maps), so a sum over the VC
            # axis equals the bitwise OR of their request bits.
            req = np.where(requesting, _ONE << aqc, 0) @ self._ones_v
            granted = req != 0
            granted_any = bool(granted.any())
            if granted_any:
                g = _rr_pick(req, S.arb_ptr, NQ, self._nq_rrmask)
                grant_vc = np.argmax(alloc_pv == g[:, :, :, None], axis=3)
                head_g = np.take(head.reshape(-1), self._brq_base + g)
                fwd_out = np.where(granted, (grant_vc << vc_shift) | head_g, 0)

        fwd_in = np.where(
            self._wire_maskB, np.take(fwd_out.reshape(-1), self._wire_flat), 0
        )
        fwd_in[:, :, 0] = iface_word

        # -- sweep 3a: output-VC allocation decisions (old state only) -----
        decisions = (
            self._allocation_sweep(S, head, ready) if fabric_active else None
        )

        # -- sweep 3b: pops (granted queues emit their head) ---------------
        if granted_any:
            flat = np.flatnonzero(granted)
            bb = flat // (R * P)
            rem = flat - bb * (R * P)
            rr = rem // P
            pp = rem - rr * P
            gq = g[bb, rr, pp]
            words = head[bb, rr, gq]
            dep = S.depth[rr]
            S.rd[bb, rr, gq] = (S.rd[bb, rr, gq] + 1) % dep
            S.count[bb, rr, gq] -= 1
            S.arb_ptr[bb, rr, pp] = gq
            tail = ((words >> dw) & 3) == self._tail_t
            if tail.any():
                ovc = pp * V + grant_vc[bb, rr, pp]
                S.alloc[bb[tail], rr[tail], ovc[tail]] = -1
                S.queue_alloc[bb[tail], rr[tail], gq[tail]] = -1

        # -- sweep 3c: pushes (arriving link words enter the queues) -------
        arriving = ((fwd_in >> dw) & 3) != self._idle_t
        if arriving.any():
            flat = np.flatnonzero(arriving)
            bb = flat // (R * P)
            rem = flat - bb * (R * P)
            rr = rem // P
            pp = rem - rr * P
            words = fwd_in[bb, rr, pp]
            q = pp * V + (words >> vc_shift)
            if (S.count[bb, rr, q] >= S.depth[rr]).any():
                raise ProtocolError("queue overflow: upstream ignored room")
            S.mem[bb, rr, q, S.wr[bb, rr, q]] = words & self._flit_mask
            S.wr[bb, rr, q] = (S.wr[bb, rr, q] + 1) % S.depth[rr]
            S.count[bb, rr, q] += 1

        # -- sweep 3d: apply the allocation decisions ----------------------
        if decisions is not None:
            db, dr, dq, dovc, new_alloc_ptr = decisions
            S.alloc[db, dr, dovc] = dq
            S.queue_alloc[db, dr, dq] = dovc
            S.alloc_ptr[...] = new_alloc_ptr

        # -- sweep 3e: stimuli interface state + event records -------------
        self._stimuli_update(choice, fwd_out[:, :, 0], inj_active)

    def _allocation_sweep(self, S, head, ready):
        """Vectorized rotating-priority output-VC allocation.

        Observes only pre-update state (``alloc``/``queue_alloc``/queue
        heads as of the top of the cycle), exactly like the object
        model's ``Router._allocation_decisions``; the caller applies the
        returned decisions after pops and pushes.
        """
        V, NQ = self._V, self._NQ
        dw = self._dw
        cand = (
            (S.queue_alloc < 0)
            & ready
            & (((head >> dw) & 3) == self._head_t)
        )
        flat = np.flatnonzero(cand)
        if flat.size == 0:
            return None
        R = self.cfg.n_routers
        pb = flat // (R * NQ)
        rem = flat - pb * (R * NQ)
        pr = rem // NQ
        pq = rem - pr * NQ
        # Decode every candidate head at once: route, GT class, VC trial
        # list — all pure gathers from the packed tables.
        data = head[pb, pr, pq] & self._payload_mask
        gt = (data >> 8) & 1
        out_port = self._route[pr, data & 0xFF]
        if (out_port < 0).any():
            bad = int(np.argmax(out_port < 0))
            x, y = int(field(data[bad], X_FIELD)), int(field(data[bad], Y_FIELD))
            raise IndexError(f"coordinates ({x}, {y}) out of range")
        in_vc = pq % V
        in_port = pq // V
        bad_gt = (gt != 0) & (((self._gt_mask >> in_vc) & 1) == 0)
        if bad_gt.any():
            i = int(np.argmax(bad_gt))
            raise ProtocolError(
                f"router {int(pr[i])}: GT head on non-GT VC {int(in_vc[i])}"
            )
        gt_cands = np.full((pb.size, V), -1, dtype=np.int64)
        gt_cands[:, 0] = in_vc
        cands = np.where(
            (gt != 0)[:, None],
            gt_cands,
            self._be_cand[pr, in_port, in_vc, out_port],
        )
        new_alloc_ptr = S.alloc_ptr.copy()
        dec_b: List[np.ndarray] = []
        dec_r: List[np.ndarray] = []
        dec_q: List[np.ndarray] = []
        dec_ovc: List[np.ndarray] = []
        # Candidates in *different* routers never interact (the claimed
        # set and alloc_ptr are per router), so any router holding a
        # single candidate — the overwhelmingly common case — skips the
        # ordered scan entirely: one parallel pass over the VC trial
        # slots.  np.nonzero is row-major, so equal (lane, router) rows
        # are adjacent.
        row = pb * self.cfg.n_routers + pr
        shared = np.zeros(pb.size, dtype=bool)
        if pb.size > 1:
            same = row[1:] == row[:-1]
            shared[1:] |= same
            shared[:-1] |= same
        iso = np.nonzero(~shared)[0]
        if iso.size:
            bb, rr, qq = pb[iso], pr[iso], pq[iso]
            op = out_port[iso]
            cg = cands[iso]
            done = np.zeros(iso.size, dtype=bool)
            for slot in range(cg.shape[1]):
                vc_out = cg[:, slot]
                ovc = op * V + np.maximum(vc_out, 0)
                take = ~done & (vc_out >= 0) & (S.alloc[bb, rr, ovc] < 0)
                if take.any():
                    tb = np.nonzero(take)[0]
                    dec_b.append(bb[tb])
                    dec_r.append(rr[tb])
                    dec_q.append(qq[tb])
                    dec_ovc.append(ovc[tb])
                    new_alloc_ptr[bb[tb], rr[tb]] = qq[tb]
                    done |= take
                if done.all():
                    break
        # Routers with several competing candidates run the real
        # rotating-priority scan, grouped by scan offset: a router
        # visits each queue at exactly one offset, so processing the
        # groups in ascending offset order IS the sequential scan —
        # with every contended lane and router advancing together.
        multi = np.nonzero(shared)[0]
        if multi.size:
            off = (pq[multi] - S.alloc_ptr[pb[multi], pr[multi]]) % NQ
            off = np.where(off == 0, NQ, off)  # q == alloc_ptr scans last
            order = multi[np.argsort(off, kind="stable")]
            claimed = np.zeros(S.alloc_ptr.shape, dtype=np.int64)
            # group boundaries in the sorted offsets (np.unique would
            # do, at the price of importing numpy.ma on first use)
            steps = np.flatnonzero(np.diff(np.sort(off))) + 1
            bounds = [0, *steps.tolist(), order.size]
            for gi in range(len(bounds) - 1):
                sel = order[bounds[gi] : bounds[gi + 1]]
                bb, rr, qq = pb[sel], pr[sel], pq[sel]
                op = out_port[sel]
                cg = cands[sel]
                done = np.zeros(sel.size, dtype=bool)
                for slot in range(cg.shape[1]):
                    vc_out = cg[:, slot]
                    ovc = op * V + np.maximum(vc_out, 0)
                    free = (S.alloc[bb, rr, ovc] < 0) & (
                        ((claimed[bb, rr] >> ovc) & 1) == 0
                    )
                    take = ~done & (vc_out >= 0) & free
                    if take.any():
                        tb = np.nonzero(take)[0]
                        dec_b.append(bb[tb])
                        dec_r.append(rr[tb])
                        dec_q.append(qq[tb])
                        dec_ovc.append(ovc[tb])
                        claimed[bb[tb], rr[tb]] |= _ONE << ovc[tb]
                        new_alloc_ptr[bb[tb], rr[tb]] = qq[tb]
                        done |= take
                    if done.all():
                        break
        if not dec_b:
            return None
        return (
            np.concatenate(dec_b),
            np.concatenate(dec_r),
            np.concatenate(dec_q),
            np.concatenate(dec_ovc),
            new_alloc_ptr,
        )

    def _stimuli_update(self, choice, eject_in, inj_active) -> None:
        """Advance every stimuli interface one cycle and log events."""
        S = self.state
        dw, vc_shift = self._dw, self._vc_shift
        R, V = self.cfg.n_routers, self._V
        cycle = self.cycle
        if inj_active:
            pending = S.inj_valid != 0
            sent = pending & (self._vcs[None, None, :] == choice[:, :, None])
            sent_flat = np.flatnonzero(sent)
            if sent_flat.size:
                words = S.inj_word.reshape(-1)[sent_flat].tolist()
                delays = S.delay.reshape(-1)[sent_flat].tolist()
                for i, flat in enumerate(sent_flat.tolist()):
                    b, rv = divmod(flat, R * V)
                    r, vc = divmod(rv, V)
                    self._injections[b].append(
                        InjectionRecord(cycle, r, vc, words[i], delays[i])
                    )
            S.delay[...] = np.where(
                sent,
                0,
                np.where(pending, (S.delay + 1) & 0xFFFFF, S.delay),
            )
            S.inj_valid[sent] = 0
            S.rr_ptr[...] = np.where(choice >= 0, choice, S.rr_ptr)
        ejected = ((eject_in >> dw) & 3) != 0
        if ejected.any():
            eject_mask = (1 << vc_shift) - 1
            ej_flat = np.flatnonzero(ejected)
            words = eject_in.reshape(-1)[ej_flat].tolist()
            for i, flat in enumerate(ej_flat.tolist()):
                b, r = divmod(flat, R)
                word = words[i]
                self._ejections[b].append(
                    EjectionRecord(cycle, r, word >> vc_shift, word & eject_mask)
                )
            S.eject_word[...] = np.where(ejected, eject_in, S.eject_word)
            S.eject_valid[...] = ejected
        elif S.eject_valid.any():
            S.eject_valid[...] = 0

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()


def chunk_decline(engine, drivers: Sequence) -> Optional[str]:
    """Why ``run_batched`` steps ``drivers`` cycle by cycle — ``None``
    when it hands whole chunks to the fused kernel.

    The chunked path moves the pump loop into C, so it needs the
    generated body and exactly the reference driver set: one plain
    :class:`TrafficDriver` per lane, in lane order (a one-lane engine's
    may be bound to the engine itself), with a uniform stall limit — and
    no per-cycle hooks that need Python between cycles.
    """
    from repro.traffic.stimuli import TrafficDriver

    if getattr(engine, "_compiled", None) is None:
        return "the engine has no generated-C body"
    if engine.pre_step_hooks:
        return "a pre-step hook runs between cycles"
    if len(drivers) != engine.lanes:
        return f"{len(drivers)} drivers for {engine.lanes} lanes"
    for i, driver in enumerate(drivers):
        if type(driver) is not TrafficDriver:
            return f"lane {i}'s driver is a {type(driver).__name__}"
        lane = driver.engine
        if lane is engine and engine.lanes == 1:
            continue
        if not isinstance(lane, BatchLane) or lane.engine is not engine:
            return f"lane {i}'s driver is bound to another engine"
        if lane.lane != i:
            return f"driver {i} is bound to lane {lane.lane}"
        if driver.stall_limit != drivers[0].stall_limit:
            return "the drivers' stall limits differ"
    return None


def chunk_kernel(engine, drivers: Sequence):
    """The engine's generated body when it may run ``drivers`` in whole
    chunks (``run_chunk``), else ``None``: step cycle by cycle
    (:func:`chunk_decline` says why)."""
    if chunk_decline(engine, drivers) is None:
        return engine._compiled
    return None


def window_source(engine, drivers: Sequence):
    """Where ``drivers``' traffic windows come from: the batched C scan
    when the engine was bound to the generated body and the drivers
    qualify (:func:`repro.kernels.trafficgen.batched_be_generator`),
    else the drivers' own Python generators — ``source.reason`` says
    why."""
    from repro.kernels.trafficgen import batched_be_generator
    from repro.traffic.stimuli import DriverWindows

    if getattr(engine, "_compiled", None) is None:
        return DriverWindows(drivers, "the engine has no generated-C body")
    generator, reason = batched_be_generator(drivers)
    return generator if generator is not None else DriverWindows(drivers, reason)


def _hook_horizon(engine: BatchEngine, limit: int) -> int:
    """How far the pre-step hooks allow skipping (0 = not at all).

    A hook that does not advertise :meth:`next_fire_cycle` is opaque —
    it might act every cycle — so its presence vetoes any skip.
    """
    horizon = limit
    for hook in engine.pre_step_hooks:
        probe = getattr(hook, "next_fire_cycle", None)
        if probe is None:
            return 0
        fire = probe(engine)
        if fire is not None:
            horizon = min(horizon, fire - engine.cycle)
    return horizon


def _next_arrival_bound(driver, cycle: int, limit: int) -> int:
    """A proven lower bound on cycles before ``driver`` emits a packet,
    from closed forms alone.

    GT streams are periodic, so the next emission is closed-form; a BE
    stream is silent for certain only at zero load.  A live Bernoulli
    stream has no closed form: its idle windows are found (and its LFSR
    advanced) by the batched C scan, see :func:`_try_fast_forward` —
    here it, like any generator shape this function does not recognise,
    returns 0 (no skip, plain stepping).
    """
    from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic

    horizon = limit
    gt = driver.gt
    if gt is not None:
        if type(gt) is not GtStreamTraffic:
            return 0
        if gt.streams:
            horizon = min(horizon, gt.cycles_to_next_packet(cycle))
    be = driver.be
    if be is not None and (
        type(be) is not BernoulliBeTraffic or be.packet_probability > 0
    ):
        return 0
    return horizon


def _try_fast_forward(
    engine: BatchEngine, drivers: Sequence, remaining: int, generator=None
) -> int:
    """Skip a proven-quiescent window; returns the cycles skipped (0 = none).

    A window of D cycles may be skipped only when a step provably
    changes nothing: the fabric is empty (no buffered flits, no staged
    injections, no latched ejections), every driver's backlog is empty,
    no fault is resident, every hook is dormant for D cycles, and every
    generator provably emits nothing for D cycles.  With a batched BE
    ``generator`` (which owns every driver's traffic) that last proof
    is its C scan in probe mode: one pass over all lanes that stops
    before the first Bernoulli hit and leaves each LFSR advanced by
    exactly the words the elided cycles would have drawn.  The skip
    then credits the cycle counters and delta metrics — bit-identical
    to stepping D idle cycles.
    """
    from repro.traffic.stimuli import TrafficDriver

    if remaining <= 0 or engine.fault_resident:
        return 0
    S = engine.state
    if S.count.any() or S.inj_valid.any() or S.eject_valid.any():
        return 0
    for driver in drivers:
        if type(driver) is not TrafficDriver or driver.backlog():
            return 0
    horizon = _hook_horizon(engine, remaining)
    if horizon > 0:
        if generator is not None:
            horizon = generator.skip_idle(engine.cycle, horizon)
        else:
            for driver in drivers:
                horizon = _next_arrival_bound(driver, engine.cycle, horizon)
    if horizon <= 0:
        return 0
    engine.skip_cycles(horizon)
    return horizon


def run_batched(
    engine: BatchEngine,
    drivers: Sequence,
    cycles: int,
    fast_forward: bool = False,
) -> None:
    """Pump one traffic driver per lane against a single batched loop.

    ``drivers[i]`` must wrap ``engine.lane(i)`` (a
    :class:`~repro.traffic.stimuli.TrafficDriver` or anything with
    ``generate(cycle)`` / ``pump()``).  Per cycle this performs exactly
    what ``TrafficDriver.step`` does per lane — generate, pump, step —
    except the step advances all lanes at once.

    A compiled engine (``jit`` or ``levelized``: one generated body)
    runs whole traffic windows inside one fused C call each whenever
    :func:`chunk_decline` finds no objection — the Fig. 1 GT + BE sweep
    and the pattern sweeps included.  A window is a stimuli buffer's
    worth of flits (:data:`~repro.traffic.stimuli.FLIT_BUDGET`), not a
    number of cycles: a hundred-odd cycles of a loaded fabric, the whole
    of a near-idle run.  Each is one columnar
    :class:`~repro.traffic.stimuli.Stimuli`, staged ahead with
    timestamps; the pump moves into the kernel, and events come back as
    column blocks of the lanes' :class:`EventLog`.

    Where every driver carries a Bernoulli-BE/uniform-random stream
    (any per-lane load, zero and ``be=None`` included) with or without
    plain GT streams, and the generated-C tier is available, the
    per-lane generate calls are replaced by one C scan per window or
    cycle (:func:`repro.kernels.trafficgen.batched_be_generator`) — a
    pure reordering of independent per-lane work, bit-identical per
    lane.  Other generators (transpose, hotspot, ...) fill the same
    columns from Python, a window ahead of each chunk
    (:func:`window_source` says which, and why).  A ``kernel="python"``
    engine keeps the all-Python reference path end to end.  A
    :class:`~repro.traffic.stimuli.NetworkOverloadError` leaves the
    drivers where that reference loop would, on every path.

    ``fast_forward`` enables quiescence skipping: before generating each
    cycle the run checks :func:`_try_fast_forward`, and when the fabric,
    queues, hooks and generators are all provably idle for D cycles it
    jumps the clocks by D instead of sweeping.  Live BE streams are
    proven idle (and their LFSRs advanced) only by the batched C scan;
    without it they veto the skip and the run simply steps.
    Fast-forward never fires while any fault is resident.
    """
    from repro.traffic.stimuli import step_window

    source = window_source(engine, drivers)
    scan = source if source.reason is None else None
    end = engine.cycle + cycles

    def skipped() -> bool:
        return fast_forward and bool(
            _try_fast_forward(engine, drivers, end - engine.cycle, scan)
        )

    compiled = chunk_kernel(engine, drivers)
    if compiled is not None:
        while engine.cycle < end:
            if skipped():
                continue
            window = source.generate_window(engine.cycle, end)
            compiled.run_chunk(drivers, window.stop - window.start, window)
        return
    while engine.cycle < end:
        if skipped():
            continue
        cycle = engine.cycle
        if scan is not None:
            step_window(engine, drivers, scan.generate_window(cycle, cycle + 1))
        else:
            for driver in drivers:
                driver.generate(cycle)
                driver.pump()
            engine.step()


def drain_batched(
    engine: BatchEngine, drivers: Sequence, max_cycles: int = 100_000
) -> List[int]:
    """Run until every lane is drained; returns per-lane drain cycles.

    Mirrors ``TrafficDriver.drain`` per lane: a lane is *done* at the
    first iteration where its backlog is empty and its fabric is
    drained, so each returned count equals exactly what the solo run's
    ``drain`` would have returned.  Lanes that finish early keep idling
    until the slowest lane drains (bulk-synchronous lanes cannot park),
    which never creates events — the final lane state equals a solo run
    stepped to the batch's total cycle count.

    Like a traffic window, the drain is one fused C call wherever
    :func:`chunk_decline` finds no objection (the backlogs staged once,
    the pump and the done test inside the kernel:
    :meth:`~repro.kernels.batchlevel.CompiledBatchLevel.drain`); the
    loop below is the reference, and the path of everything else.
    """
    compiled = chunk_kernel(engine, drivers)
    if compiled is not None:
        done = compiled.drain(drivers, max_cycles)
    else:
        done = [-1] * len(drivers)
        for used in range(max_cycles):
            for i, driver in enumerate(drivers):
                if done[i] < 0 and driver.backlog() == 0 and engine.state.drained(i):
                    done[i] = used
            if all(d >= 0 for d in done):
                break
            for driver in drivers:
                driver.pump()
            engine.step()
    stuck = [i for i, d in enumerate(done) if d < 0]
    if stuck:
        from repro.traffic.stimuli import NetworkOverloadError

        raise NetworkOverloadError(
            f"lanes {stuck} did not drain within {max_cycles} cycles"
        )
    return done
