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

* :mod:`~repro.pipeline.runner` — :func:`run_pipeline`, one loop over
  the calls ``run_batched``'s chunk path makes (the C traffic scan's
  ``generate_window``, the chunk body's
  :class:`~repro.kernels.batchlevel.FabricJob`, ``PackedLog.pieces``,
  ``repro_match``) on the caller's own ``TrafficDriver`` per lane:
  window k+1 generated and window k-1 analysed while window k simulates
  on the fabric thread, or ``run_batched``'s own serial loop with each
  window analysed (``threaded=False``), byte-identical; instrumented by
  :class:`~repro.platform.profiler.PipelineProfiler`;
* :mod:`~repro.pipeline.workloads` — streamed versions of the
  Figure-1 and pattern sweeps.
"""

from repro.pipeline.runner import PipelineReport, run_pipeline
from repro.pipeline.workloads import stream_fig1_sweep, stream_pattern_sweep

__all__ = [
    "PipelineReport",
    "run_pipeline",
    "stream_fig1_sweep",
    "stream_pattern_sweep",
]
