"""The streaming five-phase execution pipeline (paper section 5.3,
Figure 8).

The paper overlaps its five simulation steps — generate stimuli, load
stimuli, simulate, retrieve results, analyze results — by letting the
ARM generate, load, retrieve and analyse while the FPGA simulates,
against cyclic buffers: "the cyclic buffers make it possible to run the
simulation independently from the copying of data".  This package is
that split in software, on the fused chunk path: the calling thread is
the ARM, a fabric thread of the generated C is the FPGA, and a window is
one period of cycles, run as one call of the chunk body with the host
touching the fabric only at its boundary.

* :mod:`~repro.pipeline.stages` — one stage class per paper phase, each
  a thin wrapper over the function ``run_batched``'s chunk path uses
  (``source.scan``, ``Stimuli.load``, the chunk body's
  :class:`~repro.kernels.batchlevel.FabricJob`, ``EventLog.arrays``,
  ``repro_match``) around one ``TrafficDriver`` per lane; one columnar
  ``Stimuli`` per window rides the chunks;
* :mod:`~repro.pipeline.runner` — the caller's loop: window k+1
  generated and window k-1 analysed while window k simulates on the
  fabric thread, or every call in the caller (``threaded=False``) with
  byte-identical results; instrumented by
  :class:`~repro.platform.profiler.PipelineProfiler`;
* :mod:`~repro.pipeline.workloads` — streamed versions of the
  Figure-1 and pattern sweeps.
"""

from repro.pipeline.chunks import LoadedChunk, ResultChunk, RetrievedChunk, StimulusChunk
from repro.pipeline.runner import PipelineReport, run_pipeline
from repro.pipeline.stages import (
    AnalyzeStage,
    GenerateStage,
    LoadStage,
    RetrieveStage,
    SimulateStage,
)
from repro.pipeline.workloads import stream_fig1_sweep, stream_pattern_sweep

__all__ = [
    "AnalyzeStage",
    "GenerateStage",
    "LoadStage",
    "LoadedChunk",
    "PipelineReport",
    "ResultChunk",
    "RetrieveStage",
    "RetrievedChunk",
    "SimulateStage",
    "StimulusChunk",
    "run_pipeline",
    "stream_fig1_sweep",
    "stream_pattern_sweep",
]
