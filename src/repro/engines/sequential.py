"""The FPGA sequential-simulation engine (Table 3 rows 3-4).

The paper's method — single-banked link memory, Has-Been-Read bits, a
round-robin scheduler whose delta counts feed Table 3/4 and Fig. 5 — is
stated twice in this package:

* :class:`~repro.seqsim.sequential.SequentialNetwork`, the Python model:
  the readable statement of section 4.2, the reference every delta count
  is held against, and the host of everything the fast count does not
  model — packed state words, wire and state faults, quarantine,
  ``scheduler=`` / ``watchdog_factor=``, partition tiles, checkpointed
  rollback;
* the HBR accounting pass of the generated body
  (:mod:`repro.kernels.batchlevel`): the same protocol walked in C over
  a persistent wire plane, once per stepped cycle, changing no
  architectural state and handing back one delta count per cycle.

:func:`SequentialEngine` is the engine users get: one compiled lane with
the pass on, or the model itself where no generated-C tier can be bound.
Both give the same snapshots, logs and ``metrics.per_cycle``.
"""

from __future__ import annotations

from typing import Optional

from repro.engines.batch import BatchEngine
from repro.kernels import KernelUnavailableError, cbackend, resolve_kernels_mode
from repro.noc.config import NetworkConfig
from repro.noc.routing import RoutingTable
from repro.seqsim.sequential import SequentialNetwork, StaticSequentialNetwork

_MODEL_ONLY = (
    "{what} belongs to the Python model of the sequential method, not to "
    "the compiled engine: build repro.seqsim.SequentialNetwork, or pass "
    "kernel='python'"
)


class CompiledSequentialEngine(BatchEngine):
    """One lane of the generated body with the HBR accounting pass on:
    ``metrics.per_cycle`` holds the paper's delta count of every cycle,
    exactly the Python model's."""

    name = "sequential"
    HBR_ACCOUNTING = True
    #: a cycle the body provably need not step costs the HBR floor:
    #: every unit evaluated once.
    SWEEPS_PER_CYCLE = 1

    def __init__(
        self, cfg: NetworkConfig, routing: Optional[RoutingTable] = None
    ) -> None:
        super().__init__(cfg, routing, lanes=1, kernel="jit")

    def quarantine_link(self, router: int, port: int) -> None:
        # the model freezes the link's wires; the pass has no such state
        raise NotImplementedError(_MODEL_ONLY.format(what="quarantine_link()"))

    def mark_lane_fault(self, lane: int) -> None:
        # a fault-pinned lane runs the NumPy sweeps, which count nothing
        raise NotImplementedError(_MODEL_ONLY.format(what="a resident fault"))


class ModelSequentialEngine(SequentialNetwork):
    """The Python model as the engine, where the generated body cannot
    be bound (``kernel_reason`` says why) or was declined
    (``kernel="python"``)."""

    name = "sequential"
    kernel = "python"
    kernel_reason: Optional[str] = None


def SequentialEngine(
    cfg: NetworkConfig,
    routing: Optional[RoutingTable] = None,
    kernel: str = "auto",
    **model_options,
):
    """The paper's sequential engine for ``cfg``.

    ``kernel="auto"`` binds :class:`CompiledSequentialEngine` and falls
    back to :class:`ModelSequentialEngine` under ``REPRO_KERNELS=numpy``
    or where the generated-C tier cannot be built; ``kernel="python"``
    asks for the model, and is the only way to pass one of its options
    (``packed=``, ``scheduler=``, ``watchdog_factor=``, ``optimize=``).
    """
    if kernel not in ("auto", "python"):
        raise ValueError(f"unknown kernel {kernel!r}; known: auto|python")
    if kernel == "python":
        reason = "kernel='python' requested"
    elif model_options:
        raise TypeError(_MODEL_ONLY.format(what=f"{sorted(model_options)[0]}="))
    elif resolve_kernels_mode(None) == "numpy":
        reason = "REPRO_KERNELS=numpy"
    else:
        reason = cbackend.availability()
    if reason is None:
        try:
            return CompiledSequentialEngine(cfg, routing)
        except KernelUnavailableError as exc:  # e.g. the compile failed
            reason = str(exc)
    engine = ModelSequentialEngine(cfg, routing, **model_options)
    engine.kernel_reason = reason
    return engine


class StaticScheduleEngine(StaticSequentialNetwork):
    """Static-schedule ablation (3 sweeps per system cycle)."""

    name = "sequential-static"
