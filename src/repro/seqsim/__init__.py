"""The paper's core contribution: sequential simulation of a parallel
system (section 4) and its FPGA realisation model (section 5).

* :mod:`repro.seqsim.statemem` — the double-banked ("old"/"new", swapped
  by an offset pointer) packed state memory of Fig. 2b/7.
* :mod:`repro.seqsim.linkmem` — the single-banked link memory with one
  Has-Been-Read status bit per wire (section 4.2).
* :mod:`repro.seqsim.scheduler` — the round-robin non-stable-unit
  scheduler and ``converge()``, the one loop that evaluates non-stable
  units until every HBR bit is set.
* :mod:`repro.seqsim.metrics` — delta-cycle accounting (the section 6
  "extra delta cycles" measurements).
* :mod:`repro.seqsim.blocks` — the generic block-system framework of
  section 4: static schedules for registered boundaries (Fig. 3) and
  dynamic HBR schedules for combinatorial boundaries (Fig. 5).
* :mod:`repro.seqsim.sequential` — the NoC instantiation: a drop-in
  ``Network`` whose ``step()`` runs the sequential simulator.
"""

from repro.faults.errors import ConvergenceError, LivelockError, ParityError
from repro.seqsim.linkmem import LinkMemory
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.scheduler import ConvergenceWatchdog, RoundRobinScheduler
from repro.seqsim.sequential import SequentialNetwork, StaticSequentialNetwork
from repro.seqsim.statemem import PackedStateMemory

__all__ = [
    "ConvergenceError",
    "ConvergenceWatchdog",
    "DeltaMetrics",
    "LinkMemory",
    "LivelockError",
    "PackedStateMemory",
    "ParityError",
    "RoundRobinScheduler",
    "SequentialNetwork",
    "StaticSequentialNetwork",
]
