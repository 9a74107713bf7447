"""The payloads that travel between pipeline stages.

A *chunk* covers a contiguous cycle window ``[start, stop)`` for every
lane at once; the stages transform it along the paper's five-step path::

    StimulusChunk --load--> LoadedChunk --simulate--> ResultChunk
                  --retrieve--> RetrievedChunk --analyze--> (stats)

The formats are the fused chunk path's own (DESIGN section 14): packets
as one flat ``(cycle, packet, vc)`` list per lane, loaded stimuli as the
``{(src, vc): (words, cycles, seqs)}`` window
:meth:`~repro.kernels.batchlevel.CompiledBatchLevel.stage` consumes,
results as :class:`~repro.engines.eventlog.Columns` of the engine logs.
Chunks are plain data: producing them touches no engine or driver queue,
which is what lets the generate and load stages run ahead of the
simulation (bounded only by the connecting rings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.noc.packet import Packet


class _End:
    """Stream-termination sentinel (one instance: :data:`END`)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<pipeline END>"


#: pushed through a ring after the last chunk; consumers stop on it.
END = _End()

#: per lane: ``(cycle, packet, vc)`` in exact submit order (cycle-major,
#: GT stream packets first, then BE with the per-source VC toggle) — the
#: order :meth:`repro.traffic.stimuli.TrafficDriver.generate` uses.
LanePackets = List[List[Tuple[int, Packet, int]]]


@dataclass
class StimulusChunk:
    """Step 1 output: generated traffic for cycles ``[start, stop)``."""

    start: int
    stop: int
    packets: LanePackets

    @property
    def cycles(self) -> int:
        return self.stop - self.start


@dataclass
class LoadedChunk:
    """Step 2 output: the same traffic, segmented and flit-encoded.

    ``window[lane]`` is that lane's ``{(src, vc): (words, cycles,
    seqs)}`` dict (:func:`repro.traffic.stimuli.encode_window`).
    ``packets`` rides along untouched — the analyze stage notes the
    submit records from it.
    """

    start: int
    stop: int
    packets: LanePackets
    window: List[Dict]

    @property
    def cycles(self) -> int:
        return self.stop - self.start


@dataclass
class ResultChunk:
    """Step 3 output: which slice of each lane's logs this window wrote.

    The simulate stage only records *bounds* into the engine's
    append-only injection/ejection logs; reading the events out is the
    retrieve stage's job (the ARM-reads-FPGA-memory step).  Entries
    below a recorded bound are immutable, so the retrieve thread can
    read them while the simulation keeps appending.
    """

    start: int
    stop: int
    packets: LanePackets
    inj_bounds: List[Tuple[int, int]]
    ej_bounds: List[Tuple[int, int]]
    #: drain phase only (the final chunk): per-lane cycles the drain took
    done_cycles: Optional[List[int]] = None


@dataclass
class RetrievedChunk:
    """Step 4 output: the window's events per lane — log columns, or
    record slices for engines whose logs are plain lists."""

    start: int
    stop: int
    packets: LanePackets
    injections: List = field(default_factory=list)
    ejections: List = field(default_factory=list)
    done_cycles: Optional[List[int]] = None
