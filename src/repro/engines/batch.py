"""The batch engine: B independent simulations on one lane axis.

``BatchEngine`` advances ``lanes`` independent networks (different
seeds, offered loads or traffic patterns) together, one system cycle at
a time — the paper's "batched FPGA instances" analogue.  Each lane is
bit-identical to a solo run of the same traffic on
:class:`~repro.engines.cycle.CycleEngine`, and its delta metrics are the
static schedule's nominal 3·R per cycle.

A lane is a lane of one of two bodies:

* the generated C of :mod:`repro.kernels.batchlevel`, one fused body
  over every lane's :class:`~repro.seqsim.arraystate.ArrayState` arrays,
  bound by every ``kernel=`` but ``python`` where the host can build it
  (:meth:`BatchEngine._bind`);
* **golden lanes** — one :class:`~repro.noc.network.Network` per lane,
  sharing the engine's :class:`~repro.noc.routing.RoutingTable` — under
  ``kernel="python"``, or ``auto`` on a host that cannot build the C.
  They are the reference itself, so they are bit-identical by
  construction, just slow.

Traffic enters per lane through :meth:`BatchEngine.lane` views (each a
drop-in ``offer``/log surface for one lane); :func:`run_batched` pumps
one :class:`~repro.traffic.stimuli.TrafficDriver` per lane against a
single batched step loop.
"""

from __future__ import annotations

import time
import warnings
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

from repro.engines.eventlog import PackedLog
from repro.noc.config import NetworkConfig
from repro.noc.deadlock import packed_policy
from repro.noc.network import EjectionRecord, InjectionRecord, Network
from repro.noc.router import ProtocolError
from repro.noc.routing import RoutingTable
from repro.noc.topology import Topology
from repro.seqsim.arraystate import ArrayState
from repro.seqsim.metrics import DeltaMetrics

__all__ = ["BatchEngine", "BatchLane", "run_batched", "drain_batched"]

#: the one-warning latch of the degrade path (reset only by tests).
_warned_degrade = False


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
        return self.engine.drained(self.lane)

    def total_buffered(self) -> int:
        return self.engine.total_buffered(self.lane)

    def step(self) -> None:
        if self.engine.lanes != 1:
            raise RuntimeError(
                "a BatchLane cannot step alone: lanes advance together — "
                "step the BatchEngine, or drive lanes with run_batched()"
            )
        self.engine.step()


class BatchEngine:
    """Bulk-synchronous simulation of ``lanes`` networks.

    With ``lanes=1`` this is a drop-in engine (the default for
    ``make_engine('batch', cfg)`` and ``repro simulate --engine
    batch``); the protocol surface — ``offer``/``snapshot``/logs —
    addresses lane 0.  Additional lanes are driven through
    :meth:`lane` views and :func:`run_batched`.
    """

    name = "batch"

    #: delta cycles per system cycle: the static schedule's three sweeps
    #: (rooms, forwards, state update), each evaluating every unit once.
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
        if lanes < 1:
            raise ValueError("at least one lane required")
        self.cfg = cfg
        self.lanes = lanes
        self.topology = Topology(cfg)
        self.routing = routing if routing is not None else RoutingTable(cfg)
        rc = cfg.router
        self.cycle = 0
        self.metrics = DeltaMetrics(n_units=cfg.n_routers)
        self.pre_step_hooks: List = []
        self.quarantined_links: set = set()

        # -- what the generated body is specialized for and reads ---------
        self._P = rc.n_ports
        self._V = rc.n_vcs
        self._NQ = rc.n_queues
        self._dw = rc.data_width
        self._gt_mask = sum(1 << vc for vc in rc.gt_vcs)
        self._route = self.routing.packed()
        self._be_cand = packed_policy(cfg)

        # -- the execution body ----------------------------------------------
        #: how the execution body was requested: "jit" or "levelized"
        #: (two labels for the one generated-C body) or "python" (golden
        #: lanes); benches report this.
        self.kernel = "python"
        #: why ``auto`` fell back to golden lanes, when it did.
        self.kernel_reason: Optional[str] = None
        #: what the generated body actually did, summed over its calls:
        #: routers evaluated (a router holding no flit and no valid
        #: injection register is skipped) out of ``kernel_lane_cycles``
        #: x routers — the lane-cycles it stepped, idle lanes and idle
        #: fabric windows left out.  The delta metrics stay nominal.
        self.kernel_router_evals = 0
        self.kernel_lane_cycles = 0
        #: units the HBR accounting pass evaluated (0 without the pass):
        #: a settled unit's pick is counted, not evaluated (DESIGN §8).
        self.kernel_hbr_evals = 0
        #: calls that met an architectural error and re-ran in cycle
        #: order (the body runs a window lane by lane; DESIGN section 14).
        self.kernel_replays = 0
        #: the body's own seconds over its calls (a call on the fabric
        #: thread counts that thread's wall): over ``kernel_lane_cycles``,
        #: the host time per stepped lane-cycle.
        self.kernel_seconds = 0.0
        #: traffic windows it ran, one fused call each, their cycles and
        #: fresh flits: the simulation period as section 5.3 states it.
        self.kernel_windows = 0
        self.kernel_window_cycles = 0
        self.kernel_window_flits = 0
        #: cycles it ran to quiescence in, after the last window (a
        #: drain is no traffic window and counts in none of the above).
        self.kernel_drain_cycles = 0
        #: wall seconds of the chunk path's window loops and drains
        #: (``run_batched``, ``run_pipeline``): less ``kernel_seconds``,
        #: the host's work around the body.
        self.kernel_loop_seconds = 0.0
        #: the generated body's store (``None`` on golden lanes).
        self.state: Optional[ArrayState] = None
        #: the golden lanes, one network each (``None`` on the C body).
        self.networks: Optional[List[Network]] = None
        #: the generated body's injection and ejection logs, every lane's
        #: events in packed words (``None`` on golden lanes)
        self.event_logs: Optional[Tuple[PackedLog, PackedLog]] = None
        self._compiled = None
        self._bind(kernel)
        # per-lane logs: the lane networks' own record lists, or views of
        # the body's logs with records built on read
        if self._compiled is None:
            self.networks = [Network(cfg, self.routing) for _ in range(lanes)]
            self._injections = [net.injections for net in self.networks]
            self._ejections = [net.ejections for net in self.networks]
        else:
            self.event_logs = (
                PackedLog(InjectionRecord, cfg.router.event_layout, lanes),
                PackedLog(EjectionRecord, cfg.router.event_layout, lanes),
            )
            self._injections, self._ejections = (log.views for log in self.event_logs)

    def _bind(self, kernel: str) -> None:
        """Bind the body ``kernel`` asks for: ``python`` golden lanes,
        anything else the generated-C body, where the host can build it.
        Where it cannot, ``auto`` falls back to golden lanes with the
        reason (and one warning per process); ``jit`` / ``levelized``
        raise it."""
        global _warned_degrade
        if kernel not in ("auto", "python", "levelized", "jit"):
            raise ValueError(
                f"unknown kernel {kernel!r}; known: auto|python|levelized|jit"
            )
        if kernel == "python":
            return
        from repro.kernels import KernelUnavailableError
        from repro.kernels.batchlevel import CompiledBatchLevel
        from repro.kernels.batchstep import CompiledBatchStep

        try:  # the bind asks cbackend.availability() first
            self.state = ArrayState(self.cfg, self.lanes, hbr=self.HBR_ACCOUNTING)
            if kernel == "levelized":
                self._compiled = CompiledBatchLevel(self)
                self.kernel = "levelized"
            else:
                self._compiled = CompiledBatchStep(self)
                self.kernel = "jit"
            return
        except KernelUnavailableError as exc:
            if kernel != "auto":
                raise
            self.kernel_reason = str(exc)
            self.state = None
        if not _warned_degrade:
            _warned_degrade = True
            warnings.warn(
                "repro.engines.batch: no generated-C body "
                f"({self.kernel_reason}); falling back to golden lanes",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- traffic-side API ---------------------------------------------------
    def lane(self, lane: int) -> BatchLane:
        """A view of one lane for traffic drivers and trackers."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range (lanes={self.lanes})")
        return BatchLane(self, lane)

    def offer(self, router: int, vc: int, flit, lane: int = 0) -> bool:
        """Load one injection head register (see ``Network.offer``)."""
        if self.networks is not None:
            return self.networks[lane].offer(router, vc, flit)
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
        if self.networks is not None:
            return self.networks[lane].injection_pending(router, vc)
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
        return self.lane_snapshot(0)

    def lane_snapshot(self, lane: int) -> Tuple:
        if self.networks is not None:
            return self.networks[lane].snapshot()
        return self.state.snapshot_lane(lane)

    def drained(self, lane: Optional[int] = None) -> bool:
        """True when nothing is buffered and no injection is pending (in
        ``lane``, or in every lane)."""
        if self.networks is None:
            return self.state.drained(lane)
        nets = self.networks if lane is None else [self.networks[lane]]
        return all(net.drained() for net in nets)

    def total_buffered(self, lane: Optional[int] = None) -> int:
        """Flits buffered in the fabric (of ``lane``, or of every lane)."""
        if self.networks is None:
            return self.state.total_buffered(lane)
        nets = self.networks if lane is None else [self.networks[lane]]
        return sum(net.total_buffered() for net in nets)

    def quiescent(self) -> bool:
        """True when no lane holds a flit, a staged injection or a latched
        ejection: a step would advance nothing but the clock."""
        if self.networks is None:
            S = self.state
            return not (S.count.any() or S.inj_valid.any() or S.eject_valid.any())
        return all(
            net.drained() and not any(s.eject_valid for s in net.iface_states)
            for net in self.networks
        )

    def lane_objects(self, lane: int) -> Tuple[list, list]:
        """``(router states, stimuli states)`` of one lane as object-model
        lists — the lane network's own, or read out of the C body's
        store — for :meth:`load_lane` to write back (checkpoints)."""
        if self.networks is None:
            return self.state.lane_objects(lane)
        net = self.networks[lane]
        return net.states, net.iface_states

    def load_lane(self, lane: int, states, iface_states) -> None:
        """Overwrite one lane from object-model state lists."""
        if self.networks is None:
            self.state.load_lane(lane, states, iface_states)
            return
        net = self.networks[lane]
        net.states[:] = states
        net.iface_states[:] = iface_states

    # -- degraded mode -------------------------------------------------------
    def quarantine_link(self, router: int, port: int) -> None:
        """Take a directed link out of service and reroute around it
        (the golden semantics: routing avoids the link; see
        ``Network.quarantine_link``).  Golden lanes route through the
        shared table's rows, so one recompute serves every lane."""
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
        if compiled is None:
            self._step_lanes()
            self.book_cycles(1)
        else:
            compiled.step()
            self.book_cycles(1, compiled.delta_column(1))

    def _step_lanes(self) -> None:
        """One cycle of every golden lane, each on the engine's clock,
        in the C body's two passes: every lane decides, then every lane
        commits.

        A decision error leaves every lane and the clock where the cycle
        found them, as on the C body.  Each lane's error is its own
        network's; across lanes the lowest lane's unroutable head
        outranks the lowest lane's GT error, as the C body ranks them.
        """
        plans, errors = [], []
        for net in self.networks:
            try:
                plans.append(net.decide())
            except (IndexError, ProtocolError) as exc:
                errors.append(exc)
        if errors:
            raise next((e for e in errors if isinstance(e, IndexError)), errors[0])
        for net, plan in zip(self.networks, plans):
            net.cycle = self.cycle
            net.commit(plan)

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


def run_plan(engine, drivers: Sequence):
    """How a run of ``drivers`` executes, decided once: ``(scan, body)``.

    ``scan``, the C scan over the drivers' generators, is built only where
    the engine is bound to the generated body and
    :func:`~repro.kernels.trafficgen.scan_decline` takes the drivers.
    ``body`` is the chunk body where :func:`chunk_decline` objects to
    nothing either; else ``None``, and the run steps through the drivers'
    own generators (:func:`step_cycle`) — a scan still proves the idle
    stretches fast-forward skips."""
    if getattr(engine, "_compiled", None) is None:
        return None, None
    from repro.kernels import trafficgen

    if trafficgen.scan_decline(drivers) is not None:
        return None, None
    body = engine._compiled if chunk_decline(engine, drivers) is None else None
    return trafficgen.BatchedBeGenerator(drivers), body


def step_cycle(engine, drivers: Sequence) -> None:
    """One cycle of the per-cycle loop: every driver generates and
    pumps, then the engine steps (every lane at once)."""
    cycle = engine.cycle
    for driver in drivers:
        driver.generate(cycle)
        driver.pump()
    engine.step()


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

    if remaining <= 0 or engine.fault_resident or not engine.quiescent():
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


def window_loop(
    engine,
    drivers: Sequence,
    end: int,
    scan,
    body,
    *,
    fast_forward: bool = False,
    chunk: Optional[int] = None,
    phase=lambda name: nullcontext(),
    booked=None,
) -> None:
    """The serial window loop to cycle ``end``: fast-forward, generate a
    window, simulate it, book it — section 5.3's control program.

    With :func:`run_plan`'s chunk ``body`` a window is the ``scan``'s next
    (``chunk`` cycles at most), simulated and booked by one ``run_chunk``
    call; without it, ``chunk`` cycles of :func:`step_cycle` (the rest of
    the run; one cycle while fast-forward looks for idle stretches).
    ``phase(name)`` times the generate and simulate steps; ``booked()``
    runs once a window is booked."""
    start = time.perf_counter()
    try:
        while engine.cycle < end:
            if fast_forward and _try_fast_forward(engine, drivers, end - engine.cycle, scan):
                continue
            cycle = engine.cycle
            stop = min(cycle + chunk, end) if chunk else end
            if body is None:
                with phase("simulate"):
                    for _ in range(cycle, cycle + 1 if fast_forward else stop):
                        step_cycle(engine, drivers)
            else:
                with phase("generate"):
                    window = scan.generate_window(cycle, stop)
                with phase("simulate"):
                    body.run_chunk(drivers, window.stop - cycle, window)
            if booked is not None:
                booked()
    finally:
        if body is not None:
            engine.kernel_loop_seconds += time.perf_counter() - start


def run_batched(
    engine: BatchEngine,
    drivers: Sequence,
    cycles: int,
    fast_forward: bool = False,
) -> None:
    """Run ``cycles`` cycles of ``drivers``' traffic, ``drivers[i]`` on
    lane ``i`` of ``engine`` (a single-lane engine is its own lane): the
    one way every run goes, ``TrafficDriver.run`` included.

    :func:`run_plan` decides how, once; :func:`window_loop` runs it.  A
    compiled engine runs whole traffic windows, one fused C call each,
    wherever :func:`chunk_decline` and
    :func:`~repro.kernels.trafficgen.scan_decline` find no objection —
    the Fig. 1 GT + BE sweep and the pattern sweeps included.  A window
    is a stimuli buffer's worth of flits
    (:data:`~repro.traffic.stimuli.FLIT_BUDGET`), not of cycles: a
    hundred-odd cycles of a loaded fabric, the whole of a near-idle run;
    the pump moves into the kernel, and events come back as one block a
    window of the engine's :class:`PackedLog` pair.  Anything else steps
    cycle by cycle through the drivers' own generators
    (:func:`step_cycle`), bit-identically.  A
    :class:`~repro.traffic.stimuli.NetworkOverloadError` leaves the
    drivers where that per-cycle loop would, on every path.

    ``fast_forward`` enables quiescence skipping: before each window
    (each cycle, when stepping) :func:`_try_fast_forward` jumps the
    clocks over D cycles in which the fabric, queues, hooks and
    generators are provably idle.  Live BE streams are proven idle (and
    their LFSRs advanced) only by the C scan, which a hooked compiled run
    keeps for this; without it they veto the skip.  Fast-forward never
    fires while any fault is resident.
    """
    scan, body = run_plan(engine, drivers)
    window_loop(
        engine, drivers, engine.cycle + cycles, scan, body, fast_forward=fast_forward
    )


def drain_batched(
    engine: BatchEngine, drivers: Sequence, max_cycles: int = 100_000
) -> List[int]:
    """Run until every lane is drained; returns per-lane drain cycles
    (``TrafficDriver.drain`` is this, for one driver).

    A lane is *done* at the first iteration where its driver's backlog
    is empty and its engine view is drained, so each returned count
    equals exactly what the lane's solo drain would have returned.
    Lanes that finish early keep idling until the slowest lane drains
    (bulk-synchronous lanes cannot park), which never creates events —
    the final lane state equals a solo run stepped to the batch's total
    cycle count.  A lane still open after ``max_cycles`` raises
    :class:`~repro.traffic.stimuli.NetworkOverloadError`, naming every
    such lane and the flits its driver still holds.

    Like a traffic window, the drain is one fused C call wherever
    :func:`chunk_decline` finds no objection (the backlogs staged once,
    the pump and the done test inside the kernel:
    :meth:`~repro.kernels.batchlevel.CompiledBatchLevel.drain`); the
    loop below is the reference, and the path of everything else.
    """
    if chunk_decline(engine, drivers) is None:
        done = engine._compiled.drain(drivers, max_cycles)
    else:
        done = [-1] * len(drivers)
        for used in range(max_cycles):
            for i, driver in enumerate(drivers):
                if done[i] < 0 and driver.backlog() == 0 and driver.engine.drained():
                    done[i] = used
            if all(d >= 0 for d in done):
                break
            for driver in drivers:
                driver.pump()
            engine.step()
    stuck = [i for i, d in enumerate(done) if d < 0]
    if stuck:
        from repro.traffic.stimuli import NetworkOverloadError

        queued = [drivers[i].backlog() for i in stuck]
        raise NetworkOverloadError(
            f"lanes {stuck} did not drain within {max_cycles} cycles "
            f"({queued} flits still queued)"
        )
    return done
