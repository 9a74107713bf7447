"""Co-simulation of the ARM + FPGA platform software (section 5.3).

The simulation is "completely controlled in software by the ARM
processor", organised as five processes communicating through cyclic
buffers (Fig. 8).  This package reproduces that control program:

* :mod:`repro.platform.cyclic_buffer` — the cyclic buffers with
  timestamped entries and under/overrun protection;
* :mod:`repro.platform.controller` — the five-phase simulation loop
  (generate, load, simulate one period, retrieve, analyze), including
  the overload stop, the per-phase profile of Table 4, and the
  checkpoint/rollback fault-recovery machinery;
* :mod:`repro.platform.profiler` — per-phase accounting: modelled
  seconds (:class:`PhaseProfiler`, Table 4) and the measured busy, CPU
  and wait seconds of a streamed run (:class:`PipelineProfiler`).

The same five steps run on the fused chunk path as one loop,
:func:`repro.pipeline.run_pipeline`, with the simulation on a fabric
thread beside the caller.
"""

from repro.platform.cyclic_buffer import BufferOverrunError, BufferUnderrunError, CyclicBuffer
from repro.platform.controller import (
    SimulationController,
    SimulationReport,
    crosscheck_overlap,
)
from repro.platform.profiler import PhaseProfiler, PipelineProfiler

__all__ = [
    "BufferOverrunError",
    "BufferUnderrunError",
    "CyclicBuffer",
    "PhaseProfiler",
    "PipelineProfiler",
    "SimulationController",
    "SimulationReport",
    "crosscheck_overlap",
]
