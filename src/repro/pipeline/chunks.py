"""The payloads that travel between pipeline stages.

A *chunk* covers a contiguous cycle window ``[start, stop)`` for every
lane at once; the stages transform it along the paper's five-step path::

    StimulusChunk --load--> LoadedChunk --simulate--> ResultChunk
                  --retrieve--> RetrievedChunk --analyze--> (stats)

The formats are the fused chunk path's own (DESIGN section 14), integer
columns end to end: traffic as one
:class:`~repro.traffic.stimuli.Stimuli` — packet columns out of the
generate stage, queue-grouped flit columns added by the load stage, what
:meth:`~repro.kernels.batchlevel.CompiledBatchLevel.stage` consumes —
and results as ``[fields, n]`` blocks of the engine logs
(:func:`~repro.engines.eventlog.log_window`).  The same ``Stimuli``
object rides every chunk of its window (the analyze stage notes the
submits from its packet columns); it also carries the generator snapshot
a mid-window overload rewinds to.  Chunks are plain data: producing them
touches no engine or driver queue, which is what lets the generate and
load stages run while the window before them simulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.traffic.stimuli import Stimuli


@dataclass
class StimulusChunk:
    """Step 1 output: generated traffic for cycles ``[start, stop)`` —
    the packet columns of every lane, each lane's in exact submit order
    (cycle-major, GT stream packets first, then BE with the per-source
    VC toggle: the order
    :meth:`repro.traffic.stimuli.TrafficDriver.generate` uses)."""

    start: int
    stop: int
    stimuli: Stimuli

    @property
    def cycles(self) -> int:
        return self.stop - self.start


class LoadedChunk(StimulusChunk):
    """Step 2 output: the same traffic, segmented and flit-encoded —
    ``stimuli`` now carries its flit columns, grouped by stimuli queue
    (:meth:`repro.traffic.stimuli.Stimuli.load`)."""


@dataclass
class ResultChunk:
    """Step 3 output: which slice of each lane's logs this window wrote.

    The simulate stage only records *bounds* into the engine's
    append-only injection/ejection logs; reading the events out is the
    retrieve stage's job (the ARM-reads-FPGA-memory step).  Entries
    below a recorded bound are immutable, so they read the same while
    the next window simulates.
    """

    start: int
    stop: int
    #: the window's traffic; ``None`` on the drain chunk
    stimuli: Optional[Stimuli]
    inj_bounds: List[Tuple[int, int]]
    ej_bounds: List[Tuple[int, int]]
    #: drain phase only (the final chunk): per-lane cycles the drain took
    done_cycles: Optional[List[int]] = None


@dataclass
class RetrievedChunk:
    """Step 4 output: the window's events per lane, one integer block
    per log (rows in record-field order)."""

    start: int
    stop: int
    stimuli: Optional[Stimuli]
    injections: List = field(default_factory=list)
    ejections: List = field(default_factory=list)
    done_cycles: Optional[List[int]] = None
