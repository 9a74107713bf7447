"""Per-phase profiling — the machinery behind Table 4 — plus the
streaming pipeline's per-phase busy/wait instrumentation."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

#: canonical phase names, in the order of Table 4.
PHASES = ("generate", "load", "simulate", "retrieve", "analyze")


@dataclass
class PhaseProfiler:
    """Accumulates modelled seconds per simulation phase."""

    seconds: Dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})

    def add(self, phase: str, seconds: float) -> None:
        if phase not in self.seconds:
            raise KeyError(f"unknown phase {phase!r}; known: {PHASES}")
        if seconds < 0:
            raise ValueError("negative time")
        self.seconds[phase] += seconds

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def percentages(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {p: 0.0 for p in PHASES}
        return {p: 100.0 * self.seconds[p] / total for p in PHASES}

    def rows(self) -> List[Tuple[str, float]]:
        pct = self.percentages()
        return [(p, pct[p]) for p in PHASES]

    def render(self) -> str:
        """Table-4-style rendering."""
        labels = {
            "generate": "Generate stimuli (ARM)",
            "load": "Load stimuli (ARM / FPGA)",
            "simulate": "Simulation (FPGA)",
            "retrieve": "Retrieve results (ARM / FPGA)",
            "analyze": "Analyze results (ARM)",
        }
        lines = [f"{'Simulation step':<32} {'%':>6}"]
        for phase, pct in self.rows():
            lines.append(f"{labels[phase]:<32} {pct:>5.1f}%")
        return "\n".join(lines)


@dataclass
class PipelineProfiler:
    """Measured per-stage timing of a streaming five-phase pipeline run.

    Where :class:`PhaseProfiler` *models* the paper's Table-4 phase
    split from analytic cost functions, this records what the pipeline
    actually did: busy seconds per phase, whichever thread did the work
    (the caller's, and for ``simulate`` also the fabric thread's), wait
    seconds (the caller blocked on the fabric) and items processed.  The
    Table-4 per-phase breakdown then falls out as a *measurement*.
    """

    busy_seconds: Dict[str, float] = field(default_factory=dict)
    wait_seconds: Dict[str, float] = field(default_factory=dict)
    items: Dict[str, int] = field(default_factory=dict)
    #: end-to-end wall seconds of the whole pipeline run
    wall_seconds: float = 0.0
    #: True when the simulation ran on the fabric thread, False for the
    #: serial loop (phase timings are comparable either way).
    threaded: bool = True
    #: CPU seconds the working thread spent on the stage — unlike
    #: ``busy_seconds`` this excludes time the thread was descheduled.
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    #: where the fabric thread ran: the CPU the caller was on when it
    #: started the thread (the one the thread leaves), the CPUs the
    #: fabric's calls started on and how many started on the caller's
    #: CPU (-1 / empty where unknown: the serial loop, off Linux)
    caller_cpu: int = -1
    fabric_cpus: Set[int] = field(default_factory=set)
    calls_on_caller_cpu: int = 0

    @contextmanager
    def busy(self, stage: str):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            self.record(
                stage, time.perf_counter() - start, time.thread_time() - cpu_start
            )

    def record(self, stage: str, seconds: float, cpu: float) -> None:
        """Book work measured elsewhere (the fabric thread's)."""
        self.busy_seconds[stage] = self.busy_seconds.get(stage, 0.0) + seconds
        self.cpu_seconds[stage] = self.cpu_seconds.get(stage, 0.0) + cpu

    def fabric_call(self, cpu: int) -> None:
        """Note the CPU a call on the fabric thread started on."""
        if cpu >= 0:
            self.fabric_cpus.add(cpu)
            self.calls_on_caller_cpu += cpu == self.caller_cpu

    @contextmanager
    def wait(self, stage: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.wait_seconds[stage] = self.wait_seconds.get(stage, 0.0) + elapsed

    def add_items(self, stage: str, n: int = 1) -> None:
        self.items[stage] = self.items.get(stage, 0) + n

    @property
    def _stage_costs(self) -> Dict[str, float]:
        return self.cpu_seconds or self.busy_seconds

    @property
    def serial_seconds(self) -> float:
        """What a fully serial execution of the same work costs (the
        pipeline's speedup denominator): the sum of the stages' CPU
        seconds where they were recorded.  A stage's wall-clock busy time
        includes the time its thread was descheduled, which would count
        as work.  A profiler filled by hand with ``busy_seconds`` alone
        sums those."""
        return sum(self._stage_costs.values())

    def overlap_efficiency(self) -> float:
        """How much of the achievable overlap the run realised, in [0, 1].

        0 means fully serial (wall == :attr:`serial_seconds`); 1 means
        perfect pipelining (wall == the slowest stage alone).  The caller
        overlaps only the fabric thread's simulation, so the achievable
        is bounded by that split, not by five threads.
        """
        serial = self.serial_seconds
        slowest = max(self._stage_costs.values(), default=0.0)
        achievable = serial - slowest
        if achievable <= 0.0 or self.wall_seconds <= 0.0:
            return 0.0
        realised = serial - self.wall_seconds
        return max(0.0, min(1.0, realised / achievable))

    def phase_seconds(self) -> Dict[str, float]:
        """Busy seconds keyed by canonical phase name (Table-4 order),
        for stages named after the paper phases."""
        return {p: self.busy_seconds.get(p, 0.0) for p in PHASES}

    def render(self) -> str:
        mode = "fabric thread" if self.threaded else "serial loop"
        if self.fabric_cpus:
            cpus = ",".join(map(str, sorted(self.fabric_cpus)))
            mode += (
                f" on CPU {cpus}; caller's CPU {self.caller_cpu}, "
                f"{self.calls_on_caller_cpu} windows on it"
            )
        lines = [
            f"pipeline ({mode}) — wall {self.wall_seconds:.3f} s, "
            f"serial cost {self.serial_seconds:.3f} s, "
            f"overlap efficiency {self.overlap_efficiency():.2f}",
            f"{'stage':<12} {'busy s':>9} {'cpu s':>9} {'wait s':>9} {'items':>8}",
        ]
        for stage in self.busy_seconds:
            lines.append(
                f"{stage:<12} {self.busy_seconds[stage]:>9.3f} "
                f"{self.cpu_seconds.get(stage, 0.0):>9.3f} "
                f"{self.wait_seconds.get(stage, 0.0):>9.3f} "
                f"{self.items.get(stage, 0):>8}"
            )
        return "\n".join(lines)
