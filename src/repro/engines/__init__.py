"""Unified simulation-engine facade.

Every engine simulates the identical NoC bit- and cycle-accurately,
mirroring the paper's section 3 comparison:

* :class:`RtlEngine` — event-driven, signal-level ("VHDL", Table 3 row 1)
* :class:`CycleEngine` — cycle-based golden reference ("SystemC", row 2)
* :func:`SequentialEngine` — the paper's HBR/delta-cycle sequential
  simulator (rows 3-4): one lane of the generated-C body with its HBR
  accounting pass, the Python model where that cannot be bound;
  ``sequential-static`` is its schedule ablation
* :class:`BatchEngine` — the fast path: one generated-C body over a lane
  axis of independent simulations, NumPy sweeps as its only fallback

All engines expose the same interface (offer/step/run/snapshot plus the
injection/ejection logs), so the equivalence checker and the benchmark
harness treat them interchangeably.
"""

from repro.engines.base import EngineInfo, lane_views, list_engines, make_engine
from repro.engines.batch import BatchEngine, BatchLane, drain_batched, run_batched
from repro.engines.cycle import CycleEngine
from repro.engines.rtl import RtlEngine
from repro.engines.sequential import SequentialEngine
from repro.engines.equivalence import EquivalenceReport, run_lockstep

__all__ = [
    "BatchEngine",
    "BatchLane",
    "CycleEngine",
    "EngineInfo",
    "EquivalenceReport",
    "RtlEngine",
    "SequentialEngine",
    "drain_batched",
    "lane_views",
    "list_engines",
    "make_engine",
    "run_batched",
    "run_lockstep",
]
