"""The ARM control program: the five-phase simulation loop of section 5.3.

    "The simulation is performed in steps.  We start with generating a
    routing information table.  After all routes are determined, a loop
    is started that has five phases. 1) ... generating the traffic for
    each node in a stimuli table ... 2) The generated stimuli have to be
    written into the input buffers of the FPGA ... 3) ... start the
    simulation in the FPGA and evaluate x system cycles ... To prevent
    buffer underrun, the simulation period is fixed to the size of the
    VC stimuli buffers ... 4) After a single simulation period, we have
    to empty the output buffers ... 5) After the data is retrieved from
    the FPGA it is analyzed and the desired statistics are stored."

The controller reproduces that loop over any engine, moving every flit
through the same cyclic buffers the hardware used, and drives the
:class:`repro.fpga.timing.PlatformModel` with the measured event counts
to produce the Table 3 speed and Table 4 profile figures.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.faults.errors import FaultDetectedError, LivelockError, RecoveryExhaustedError
from repro.fpga.resources import OUTPUT_BUFFER_DEPTH, VC_STIMULI_BUFFER_DEPTH
from repro.fpga.timing import PlatformModel
from repro.noc.checkpoint import restore_checkpoint, save_checkpoint
from repro.noc.config import NetworkConfig
from repro.noc.packet import Packet, segment
from repro.noc.router import ProtocolError
from repro.platform.cyclic_buffer import (
    BufferOverrunError,
    BufferUnderrunError,
    CyclicBuffer,
)
from repro.platform.profiler import PhaseProfiler
from repro.stats.latency import PacketLatencyTracker
from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic
from repro.traffic.stimuli import SubmitRecord


def _copy_state(dst: Any, src: Any) -> None:
    """Overwrite ``dst``'s attributes with a deep copy of ``src``'s.

    Used to roll mutable collaborators (traffic generators, trackers,
    delta metrics) back in place, so references other code holds to the
    objects stay valid across a rollback.
    """
    src = copy.deepcopy(src)
    if hasattr(dst, "__dict__"):
        dst.__dict__.clear()
        dst.__dict__.update(src.__dict__)
    else:  # __slots__-only object
        for slot in type(dst).__slots__:
            setattr(dst, slot, getattr(src, slot))


@dataclass
class SimulationReport:
    """Everything the control software reports after a run."""

    cycles: int
    periods: int
    flits_generated: int
    flits_loaded: int
    flits_retrieved: int
    flits_discarded: int
    total_deltas: int
    overloaded: bool
    profile: PhaseProfiler
    modeled_cps: float
    wall_seconds_modeled: float
    # -- fault-recovery accounting (all zero on a fault-free run) -------
    fault_detections: int = 0
    rollbacks: int = 0
    recoveries: int = 0
    recovery_deltas: int = 0
    quarantined_links: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)
    recovery_exhausted: bool = False
    # -- pipeline-overlap accounting -------------------------------------
    #: modelled ARM seconds actually hidden behind the FPGA periods
    modeled_overlap_seconds: float = 0.0
    #: hidden / offered: the overlap fraction the platform model claims
    modeled_overlap_efficiency: float = 0.0
    #: filled by :func:`crosscheck_overlap` from a measured pipeline run
    measured_overlap_seconds: Optional[float] = None
    overlap_divergence: Optional[float] = None


class SimulationController:
    """Runs an engine through the paper's periodized simulation loop."""

    def __init__(
        self,
        engine,
        be: Optional[BernoulliBeTraffic] = None,
        gt: Optional[GtStreamTraffic] = None,
        period: Optional[int] = None,
        platform: Optional[PlatformModel] = None,
        interesting_routers: Optional[Set[int]] = None,
        tracker: Optional[PacketLatencyTracker] = None,
        fpga_rng: bool = True,
        complex_analysis: bool = False,
        stall_limit: int = 20_000,
        checkpoint_interval: int = 0,
        max_retries: int = 3,
        recover_crashes: bool = True,
    ) -> None:
        self.engine = engine
        self.net: NetworkConfig = engine.cfg
        self.be = be
        self.gt = gt
        # "the simulation period is fixed to the size of the VC stimuli
        # buffers in the FPGA" — and must not overrun the output buffers.
        self.period = period or min(VC_STIMULI_BUFFER_DEPTH, OUTPUT_BUFFER_DEPTH)
        if self.period > OUTPUT_BUFFER_DEPTH:
            raise ValueError(
                f"period {self.period} can overrun the {OUTPUT_BUFFER_DEPTH}-entry "
                "output buffers"
            )
        self.platform = platform or PlatformModel()
        self.interesting = interesting_routers  # None = all routers
        self.tracker = tracker
        self.fpga_rng = fpga_rng
        self.complex_analysis = complex_analysis
        self.stall_limit = stall_limit

        rc = self.net.router
        n = self.net.n_routers
        #: software-side stimuli table backlog, per (router, vc)
        self.stimuli_backlog: Dict[Tuple[int, int], Deque[int]] = {}
        #: FPGA-side per-VC injection buffers
        self.vc_buffers = {
            (r, vc): CyclicBuffer(VC_STIMULI_BUFFER_DEPTH, f"stim[{r},{vc}]")
            for r in range(n)
            for vc in range(rc.n_vcs)
        }
        #: FPGA-side per-router output buffers
        self.output_buffers = [
            CyclicBuffer(OUTPUT_BUFFER_DEPTH, f"out[{r}]") for r in range(n)
        ]
        self._be_vc_toggle = [0] * n
        self._stall: Dict[Tuple[int, int], int] = {}
        self._ej_seen = 0
        self.profile = PhaseProfiler()
        # Steady-state pipeline overlap: the FPGA period hides behind this
        # period's generate+load plus the previous period's retrieve+analyze
        # (all decoupled through the cyclic buffers).  ARM work not needed
        # for hiding carries over as credit for a few periods — the
        # smoothing the multi-period-deep cyclic buffers provide.
        self._prev_retr_analyze_seconds = 0.0
        self._overlap_credit = 0.0
        self.OVERLAP_CREDIT_PERIODS = 3
        #: modelled ARM seconds hidden behind the FPGA / offered for
        #: hiding — the overlap the credit model claims, accumulated per
        #: period so :func:`crosscheck_overlap` can hold it against a
        #: measured pipeline run.
        self.modeled_overlap_seconds = 0.0
        self.modeled_overlappable_seconds = 0.0
        self.flits_generated = 0
        self.flits_loaded = 0
        self.flits_retrieved = 0
        self.flits_discarded = 0
        self.overloaded = False
        self.retrieved: List = []

        # -- fault recovery (section: robustness extension) -----------------
        #: periods between architectural snapshots; 0 disables recovery
        #: (a detected fault then propagates to the caller unchanged).
        self.checkpoint_interval = checkpoint_interval
        #: rollback attempts allowed per fault before giving up; the
        #: controller's period-halving is its backoff.
        self.max_retries = max_retries
        self._base_period = self.period
        self._snapshot: Optional[Dict[str, Any]] = None
        self.fault_detections = 0
        self.rollbacks = 0
        self.recoveries = 0
        self.recovery_deltas = 0
        self.recovery_exhausted = False
        self._consecutive_livelocks = 0
        #: with recovery on, also treat Python-level crashes inside a
        #: period as detected faults (a corrupted word tripping a bounds
        #: check is the software analogue of a hardware exception)
        self.recover_crashes = recover_crashes
        #: ``(engine cycle at detection, exception class name, message)``
        #: per detected fault, in detection order — the campaign's
        #: attribution record.
        self.fault_log: List[Tuple[int, str, str]] = []

    # -- phase 1: generate ------------------------------------------------------
    def _generate_period(self, start_cycle: int) -> int:
        """Fill the stimuli table with traffic for one period; returns
        the number of flits generated."""
        generated = 0
        for offset in range(self.period):
            cycle = start_cycle + offset
            if self.gt is not None:
                for packet, vc in self.gt.packets_for_cycle(cycle):
                    generated += self._submit(packet, vc, cycle)
            if self.be is not None:
                be_vcs = self.net.router.be_vcs
                for packet in self.be.packets_for_cycle(cycle):
                    toggle = self._be_vc_toggle[packet.src]
                    self._be_vc_toggle[packet.src] = (toggle + 1) % len(be_vcs)
                    generated += self._submit(packet, be_vcs[toggle], cycle)
        self.flits_generated += generated
        return generated

    def _submit(self, packet: Packet, vc: int, cycle: int) -> int:
        if self.tracker is not None:
            self.tracker.note_submit(SubmitRecord(packet, vc, cycle))
        backlog = self.stimuli_backlog.setdefault((packet.src, vc), deque())
        words = [f.encode(self.net.router.data_width) for f in segment(packet, self.net)]
        backlog.extend(words)
        return len(words)

    # -- phase 2: load -----------------------------------------------------------
    def _load_buffers(self) -> int:
        """Move stimuli into the FPGA VC buffers: "all input buffers are
        maximally filled unless no data is available".  Unconsumed data
        stays in the table and is written eventually."""
        loaded = 0
        for key, backlog in self.stimuli_backlog.items():
            if not backlog:
                continue
            buffer = self.vc_buffers[key]
            while backlog and not buffer.is_full:
                buffer.write(self.engine.cycle, backlog.popleft())
                loaded += 1
        self.flits_loaded += loaded
        return loaded

    # -- phase 3: simulate one period ----------------------------------------------
    def _simulate_period(self) -> int:
        """Run the engine for ``period`` cycles; the injection hardware
        feeds from the VC buffers, ejections land in the output buffers.
        Returns delta cycles executed (modelled as one per router per
        cycle for engines without delta metrics)."""
        engine = self.engine
        metrics = getattr(engine, "metrics", None)
        deltas_before = metrics.total_deltas if metrics else 0
        for _ in range(self.period):
            for (router, vc), buffer in self.vc_buffers.items():
                if buffer.is_empty:
                    continue
                if engine.offer(router, vc, buffer.peek().payload):
                    buffer.read()
                    self._stall[(router, vc)] = 0
                else:
                    stalled = self._stall.get((router, vc), 0) + 1
                    self._stall[(router, vc)] = stalled
                    if stalled > self.stall_limit:
                        self.overloaded = True
            engine.step()
            self._capture_ejections()
            if self.overloaded:
                break
        if metrics:
            return metrics.total_deltas - deltas_before
        return self.net.n_routers * self.period

    def _capture_ejections(self) -> None:
        ejections = self.engine.ejections
        for record in ejections[self._ej_seen :]:
            self.output_buffers[record.router].write(
                record.cycle, (record.vc, record.flit_word)
            )
        self._ej_seen = len(ejections)

    # -- phase 4: retrieve -----------------------------------------------------------
    def _retrieve(self) -> Tuple[int, int]:
        """Empty the output buffers.  Buffers of uninteresting routers
        are emptied by advancing the read pointer only."""
        retrieved = 0
        discarded = 0
        for router, buffer in enumerate(self.output_buffers):
            if self.interesting is not None and router not in self.interesting:
                discarded += buffer.discard_all()
                continue
            for entry in buffer.drain():
                self.retrieved.append((router, entry))
                retrieved += 1
        self.flits_retrieved += retrieved
        self.flits_discarded += discarded
        return retrieved, discarded

    # -- phase 5: analyze --------------------------------------------------------------
    def _analyze(self) -> None:
        if self.tracker is not None:
            self.tracker.collect(self.engine)

    # -- recovery: snapshot / rollback -----------------------------------------
    #: detected faults the controller will attempt to recover from.  A
    #: parity hit, a livelock trip or a buffer protocol violation all
    #: mean "this period's results are suspect: roll back and retry".
    RECOVERABLE = (
        FaultDetectedError,
        ProtocolError,
        BufferOverrunError,
        BufferUnderrunError,
    )
    #: crash classes additionally caught when ``recover_crashes`` is set
    CRASH_RECOVERABLE = (ValueError, IndexError, KeyError, OverflowError)

    def _take_snapshot(self) -> None:
        """Capture everything a rollback needs: the engine's
        architectural state (via the checkpoint machinery — exactly what
        the ARM reads back over the memory interface) plus the control
        software's own mutable state."""
        engine = self.engine
        self._snapshot = {
            "checkpoint": save_checkpoint(engine),
            "vc_buffers": copy.deepcopy(self.vc_buffers),
            "output_buffers": copy.deepcopy(self.output_buffers),
            "stimuli_backlog": copy.deepcopy(self.stimuli_backlog),
            "be": copy.deepcopy(self.be),
            "gt": copy.deepcopy(self.gt),
            "tracker": copy.deepcopy(self.tracker),
            "metrics": copy.deepcopy(getattr(engine, "metrics", None)),
            "be_vc_toggle": list(self._be_vc_toggle),
            "stall": dict(self._stall),
            "ej_seen": self._ej_seen,
            "flits": (
                self.flits_generated,
                self.flits_loaded,
                self.flits_retrieved,
                self.flits_discarded,
            ),
            "retrieved_len": len(self.retrieved),
            "injections_len": len(engine.injections),
            "ejections_len": len(engine.ejections),
            "prev_retr_analyze": self._prev_retr_analyze_seconds,
            "overlap_credit": self._overlap_credit,
            "overlap_totals": (
                self.modeled_overlap_seconds,
                self.modeled_overlappable_seconds,
            ),
        }

    def _rollback(self) -> None:
        """Restore the last good snapshot.  The snapshot itself stays
        pristine (everything is copied out), so one snapshot supports
        any number of rollbacks."""
        snap = self._snapshot
        if snap is None:
            raise RuntimeError("rollback without a snapshot")
        engine = self.engine
        restore_checkpoint(engine, snap["checkpoint"])
        del engine.injections[snap["injections_len"] :]
        del engine.ejections[snap["ejections_len"] :]
        self.vc_buffers = copy.deepcopy(snap["vc_buffers"])
        self.output_buffers = copy.deepcopy(snap["output_buffers"])
        self.stimuli_backlog = copy.deepcopy(snap["stimuli_backlog"])
        for live, saved in (
            (self.be, snap["be"]),
            (self.gt, snap["gt"]),
            (self.tracker, snap["tracker"]),
            (getattr(engine, "metrics", None), snap["metrics"]),
        ):
            if live is not None and saved is not None:
                _copy_state(live, saved)
        self._be_vc_toggle = list(snap["be_vc_toggle"])
        self._stall = dict(snap["stall"])
        self._ej_seen = snap["ej_seen"]
        (
            self.flits_generated,
            self.flits_loaded,
            self.flits_retrieved,
            self.flits_discarded,
        ) = snap["flits"]
        del self.retrieved[snap["retrieved_len"] :]
        self._prev_retr_analyze_seconds = snap["prev_retr_analyze"]
        self._overlap_credit = snap["overlap_credit"]
        (
            self.modeled_overlap_seconds,
            self.modeled_overlappable_seconds,
        ) = snap["overlap_totals"]
        self.overloaded = False
        self.rollbacks += 1

    def _wasted_deltas(self) -> int:
        """Delta cycles burnt since the last snapshot (the work a
        rollback discards — the recovery overhead measure)."""
        metrics = getattr(self.engine, "metrics", None)
        snap = self._snapshot
        if metrics is None or snap is None or snap["metrics"] is None:
            return 0
        return max(0, metrics.total_deltas - snap["metrics"].total_deltas)

    def _on_fault(self, exc: Exception) -> None:
        """React to a detected fault: roll back, back off, and — on a
        persistent livelock with a diagnosis — quarantine the suspect
        links so the retry runs around them."""
        self.fault_detections += 1
        self.fault_log.append(
            (self.engine.cycle, type(exc).__name__, str(exc))
        )
        self.recovery_deltas += self._wasted_deltas()
        if isinstance(exc, LivelockError):
            self._consecutive_livelocks += 1
        else:
            self._consecutive_livelocks = 0
        self._rollback()
        # Exponential backoff: a shorter period reaches the next known
        # good snapshot point sooner and narrows the fault window.
        self.period = max(1, self.period // 2)
        if (
            self._consecutive_livelocks >= 2
            and isinstance(exc, LivelockError)
            and exc.suspect_wires
            and hasattr(self.engine, "quarantine_wires")
        ):
            # The same links flap on every retry: the fault is permanent.
            # Take them out of service and reroute the surviving fabric.
            self.engine.quarantine_wires(exc.suspect_wires)
            self._consecutive_livelocks = 0

    # -- the loop -------------------------------------------------------------------
    def _run_one_period(self) -> int:
        """One pass through the five phases; returns delta cycles."""
        arm = self.platform.arm
        fpga = self.platform.fpga
        generated = self._generate_period(self.engine.cycle)
        self.profile.add("generate", arm.generate_seconds(generated, self.fpga_rng))
        loaded = self._load_buffers()
        load_seconds = arm.load_seconds(loaded, self.period)
        self.profile.add("load", load_seconds)
        deltas = self._simulate_period()
        sim_raw = fpga.simulation_seconds(deltas)
        overlap = (
            arm.generate_seconds(generated, self.fpga_rng)
            + load_seconds
            + self._prev_retr_analyze_seconds
            + self._overlap_credit
        )
        self.profile.add(
            "simulate",
            max(0.0, sim_raw - overlap) + arm.overhead_seconds(1),
        )
        self.modeled_overlap_seconds += min(sim_raw, overlap)
        self.modeled_overlappable_seconds += overlap
        self._overlap_credit = min(
            max(0.0, overlap - sim_raw),
            self.OVERLAP_CREDIT_PERIODS * max(overlap - self._overlap_credit, 0.0),
        )
        retrieved, _discarded = self._retrieve()
        retrieve_seconds = arm.retrieve_seconds(retrieved, self.period)
        self.profile.add("retrieve", retrieve_seconds)
        self._analyze()
        analyze_seconds = arm.analyze_seconds(retrieved, self.complex_analysis)
        self.profile.add("analyze", analyze_seconds)
        self._prev_retr_analyze_seconds = retrieve_seconds + analyze_seconds
        return deltas

    def run(self, cycles: int) -> SimulationReport:
        """Simulate ``cycles`` system cycles (rounded up to periods).

        With ``checkpoint_interval > 0`` the loop snapshots every that
        many periods and, when a period trips a detected fault
        (:data:`RECOVERABLE`), rolls back to the last snapshot and
        retries with the period size halved.  ``max_retries`` failures
        in a row raise :class:`RecoveryExhaustedError`.
        """
        periods = 0
        completed = 0
        total_deltas = 0
        recovery = self.checkpoint_interval > 0
        retries = 0
        catchable = self.RECOVERABLE
        if recovery and self.recover_crashes:
            catchable = catchable + self.CRASH_RECOVERABLE
        if recovery:
            self._take_snapshot()
        while completed < cycles and not self.overloaded:
            try:
                deltas = self._run_one_period()
            except catchable as exc:
                if not recovery:
                    raise
                retries += 1
                if retries > self.max_retries:
                    self.recovery_exhausted = True
                    raise RecoveryExhaustedError(retries - 1, exc) from exc
                self._on_fault(exc)
                continue
            total_deltas += deltas
            completed += self.period
            periods += 1
            if recovery:
                if retries:
                    # The retry ran clean: the rollback recovered the run.
                    # Snapshot immediately so the next fault does not roll
                    # back across the region we just paid to re-execute.
                    self.recoveries += 1
                    retries = 0
                    self._take_snapshot()
                elif periods % self.checkpoint_interval == 0:
                    self._take_snapshot()
                self._consecutive_livelocks = 0
                self.period = self._base_period
        wall = self.profile.total
        executed = completed
        return SimulationReport(
            cycles=executed,
            periods=periods,
            flits_generated=self.flits_generated,
            flits_loaded=self.flits_loaded,
            flits_retrieved=self.flits_retrieved,
            flits_discarded=self.flits_discarded,
            total_deltas=total_deltas,
            overloaded=self.overloaded,
            profile=self.profile,
            modeled_cps=executed / wall if wall > 0 else 0.0,
            wall_seconds_modeled=wall,
            fault_detections=self.fault_detections,
            rollbacks=self.rollbacks,
            recoveries=self.recoveries,
            recovery_deltas=self.recovery_deltas,
            quarantined_links=tuple(sorted(getattr(self.engine, "quarantined_links", ()))),
            recovery_exhausted=self.recovery_exhausted,
            modeled_overlap_seconds=self.modeled_overlap_seconds,
            modeled_overlap_efficiency=(
                self.modeled_overlap_seconds / self.modeled_overlappable_seconds
                if self.modeled_overlappable_seconds > 0
                else 0.0
            ),
        )


def crosscheck_overlap(
    report: SimulationReport, profiler, threshold: float = 0.20
) -> float:
    """Hold the controller's modelled overlap against a measured run.

    ``profiler`` is the
    :class:`~repro.platform.profiler.PipelineProfiler` of a streaming
    pipeline run.  Both sides reduce to an overlap *efficiency* in
    [0, 1] — the modelled hidden/offered fraction versus the pipeline's
    realised fraction — so runs of different length and workload stay
    comparable.  The measured seconds and the divergence are written
    back onto ``report``; a divergence above ``threshold`` warns, since
    it means the platform model's overlap credit no longer describes
    what the streaming loop actually achieves (e.g. a single-CPU host
    time-slicing stages the model assumes run concurrently).
    """
    measured_eff = profiler.overlap_efficiency()
    report.measured_overlap_seconds = max(
        0.0, profiler.serial_seconds - profiler.wall_seconds
    )
    divergence = abs(report.modeled_overlap_efficiency - measured_eff)
    report.overlap_divergence = divergence
    if divergence > threshold:
        warnings.warn(
            f"modeled overlap efficiency "
            f"{report.modeled_overlap_efficiency:.2f} diverges from the "
            f"measured pipeline overlap {measured_eff:.2f} by "
            f"{divergence:.2f} (> {threshold:.2f})",
            RuntimeWarning,
            stacklevel=2,
        )
    return divergence
