"""The ``jit`` label's binding of the generated-C body.

:class:`CompiledBatchStep` is what ``BatchEngine(kernel="auto"|"jit")``
binds where the host can build the body: the one generated body of
:mod:`repro.kernels.batchlevel`, which ``kernel="levelized"`` binds
directly.  Table binding, pointer rebinding on quarantine or checkpoint
restore, ``step``, ``run_chunk``, columnar event logging and error
re-raising are all inherited, so ``jit`` and ``levelized`` engines
differ only in the label that records how the body was requested.
"""

from __future__ import annotations

from repro.kernels.batchlevel import CompiledBatchLevel

__all__ = ["CompiledBatchStep"]


class CompiledBatchStep(CompiledBatchLevel):
    """The generated-C body under the ``jit`` label."""

    def step(self) -> None:
        # its own attribute: bench/trace.py times it as ``kernels.step``
        super().step()
