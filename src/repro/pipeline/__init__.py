"""The streaming five-phase execution pipeline (paper section 5.3,
Figure 8).

The paper overlaps its five simulation steps — generate stimuli, load
stimuli, simulate, retrieve results, analyze results — by running them
concurrently against cyclic buffers: "the cyclic buffers make it
possible to run the simulation independently from the copying of data".
This package is that architecture in software, on the fused chunk path:
a pipeline chunk is one period of x cycles, run as one superstep of the
generated body, with the host touching the fabric only at its boundary.

* :mod:`~repro.pipeline.stages` — one stage class per paper phase, each
  a thin wrapper over the function ``run_batched``'s chunk path uses
  (``source.scan``, ``Stimuli.load``, ``run_chunk``,
  ``EventLog.arrays``, ``collect_records``) around one
  ``TrafficDriver`` per lane; one columnar ``Stimuli`` per window rides
  the chunks;
* :mod:`~repro.pipeline.ring` — the bounded stage-to-stage handoff,
  built on :class:`~repro.platform.cyclic_buffer.CyclicBuffer` (real
  backpressure: a full ring blocks the producer);
* :mod:`~repro.pipeline.runner` — threaded execution with a serial
  fallback producing byte-identical results, instrumented by
  :class:`~repro.platform.profiler.PipelineProfiler`;
* :mod:`~repro.pipeline.workloads` — streamed versions of the
  Figure-1 and pattern sweeps.
"""

from repro.pipeline.chunks import END, LoadedChunk, ResultChunk, RetrievedChunk, StimulusChunk
from repro.pipeline.ring import StageRing
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
    "END",
    "GenerateStage",
    "LoadStage",
    "LoadedChunk",
    "PipelineReport",
    "ResultChunk",
    "RetrieveStage",
    "RetrievedChunk",
    "SimulateStage",
    "StageRing",
    "StimulusChunk",
    "run_pipeline",
    "stream_fig1_sweep",
    "stream_pattern_sweep",
]
