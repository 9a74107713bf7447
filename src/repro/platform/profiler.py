"""Per-phase profiling — the machinery behind Table 4 — plus a generic
wall-clock stage profiler for the experiment sweeps and the streaming
pipeline's per-stage busy/wait/occupancy instrumentation."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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
class StageProfiler:
    """Wall-clock timing per named stage, plus free-form counters.

    Unlike :class:`PhaseProfiler` (which models the paper's fixed Table-4
    phases from analytic cost models), this measures *real* elapsed time
    of arbitrary stages — the experiment sweeps use it to report setup /
    sweep / analysis splits and the parallel runner records point and
    worker counts in it.

    >>> prof = StageProfiler()
    >>> with prof.stage("sweep"):
    ...     pass
    >>> prof.count("points", 8)
    """

    seconds: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def render(self) -> str:
        lines = [f"{'stage':<20} {'calls':>6} {'seconds':>9}"]
        for name in self.seconds:
            lines.append(
                f"{name:<20} {self.calls.get(name, 0):>6} {self.seconds[name]:>9.3f}"
            )
        for name, value in self.counters.items():
            lines.append(f"{name:<20} {value:>6}")
        return "\n".join(lines)


@dataclass
class PipelineProfiler:
    """Measured per-stage timing of a streaming five-phase pipeline run.

    Where :class:`PhaseProfiler` *models* the paper's Table-4 phase
    split from analytic cost functions, this records what the pipeline
    actually did: busy seconds (inside a stage's ``process``), wait
    seconds (blocked on a ring, i.e. starved or backpressured), items
    processed, and the connecting rings' pointer statistics.  The
    Table-4 per-phase breakdown then falls out as a *measurement*.
    """

    busy_seconds: Dict[str, float] = field(default_factory=dict)
    wait_seconds: Dict[str, float] = field(default_factory=dict)
    items: Dict[str, int] = field(default_factory=dict)
    #: ring name -> pointer statistics (filled by the runner at the end)
    rings: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: end-to-end wall seconds of the whole pipeline run
    wall_seconds: float = 0.0
    #: True when the stages ran as concurrent threads, False for the
    #: serial fallback (phase timings are comparable either way).
    threaded: bool = True
    #: CPU seconds the stage's own thread spent inside ``busy`` — unlike
    #: ``busy_seconds`` this excludes time spent waiting for the
    #: interpreter lock while another stage's Python ran.
    cpu_seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def busy(self, stage: str):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            cpu = time.thread_time() - cpu_start
            self.busy_seconds[stage] = self.busy_seconds.get(stage, 0.0) + elapsed
            self.cpu_seconds[stage] = self.cpu_seconds.get(stage, 0.0) + cpu

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
        seconds where :meth:`busy` recorded them.  A threaded stage's
        wall-clock busy time includes waiting for the interpreter lock
        while another stage's Python ran, which would count that wait as
        work.  A profiler filled by hand with ``busy_seconds`` alone sums
        those."""
        return sum(self._stage_costs.values())

    def overlap_efficiency(self) -> float:
        """How much of the achievable overlap the run realised, in [0, 1].

        0 means fully serial (wall == :attr:`serial_seconds`); 1 means
        perfect pipelining (wall == the slowest stage alone).  Under the
        interpreter lock the stages overlap only with calls that release
        it (the C chunk kernel), so low values are a truthful
        measurement, not a bug.
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

    def stall_counts(self) -> Dict[str, int]:
        """Per-ring stall events: blocking waits plus pointer errors,
        read straight from the cyclic buffers' counters."""
        out = {}
        for name, stats in self.rings.items():
            out[name] = (
                stats.get("put_waits", 0)
                + stats.get("get_waits", 0)
                + stats.get("overruns", 0)
                + stats.get("underruns", 0)
            )
        return out

    def render(self) -> str:
        mode = "threaded" if self.threaded else "serial fallback"
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
        for name, stats in self.rings.items():
            lines.append(
                f"ring {name:<12} peak {stats.get('peak', 0)}/"
                f"{stats.get('capacity', 0)}, "
                f"waits {stats.get('put_waits', 0)}w/{stats.get('get_waits', 0)}r"
            )
        return "\n".join(lines)
