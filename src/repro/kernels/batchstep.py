"""The ``jit`` tier's binding of the generated-C body.

:class:`CompiledBatchStep` is what ``BatchEngine(kernel="auto"|"jit")``
binds: the one generated body of :mod:`repro.kernels.batchlevel` with no
schedule to check.  The body's evaluation reads committed state only,
so its ascending router walk is a valid level order of every fabric and
this tier needs neither :func:`~repro.kernels.levelize.levelize` nor a
schedule.  Everything else — table binding, pointer rebinding on
quarantine or checkpoint restore, ``step_range``, ``run_chunk``,
columnar event logging, error re-raising — is inherited unchanged, so
``jit`` and ``levelized`` engines differ only in how the tier was
requested.
"""

from __future__ import annotations

from repro.kernels.batchlevel import CompiledBatchLevel

__all__ = ["CompiledBatchStep"]


class CompiledBatchStep(CompiledBatchLevel):
    """The generated-C body, bound without a level schedule."""

    def __init__(self, engine) -> None:
        super().__init__(engine, schedule=None)

    def step(self) -> None:
        """Advance every lane one cycle (events logged, errors raised)."""
        self.step_range(0, self.engine.lanes)
