"""Common engine interface and registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Protocol, Sequence, Tuple

from repro.noc.config import NetworkConfig
from repro.noc.network import EjectionRecord, InjectionRecord


class Engine(Protocol):
    """What every simulation engine provides.

    ``Network`` itself satisfies this protocol; the RTL engine implements
    it over the event-driven kernel.
    """

    cfg: NetworkConfig
    cycle: int
    #: cycle-ordered logs; read them as sequences (``len``, index, slice,
    #: iterate, ``==``) — the batch engine's are columnar until read.
    injections: Sequence[InjectionRecord]
    ejections: Sequence[EjectionRecord]

    def offer(self, router: int, vc: int, flit) -> bool: ...

    def injection_pending(self, router: int, vc: int) -> bool: ...

    def step(self) -> None: ...

    def run(self, cycles: int) -> None: ...

    def snapshot(self) -> Tuple: ...

    def drained(self) -> bool: ...


@dataclass(frozen=True)
class EngineInfo:
    """Registry entry describing one engine."""

    name: str
    description: str
    paper_analogue: str
    factory: Callable[..., "Engine"]


def _registry() -> Dict[str, EngineInfo]:
    # Imported lazily to avoid import cycles.
    from repro.engines.batch import BatchEngine
    from repro.engines.cycle import CycleEngine
    from repro.engines.rtl import RtlEngine
    from repro.engines.sequential import SequentialEngine
    from repro.partition import PartitionedEngine

    return {
        "rtl": EngineInfo(
            "rtl",
            "event-driven signal-level simulation on the delta-cycle kernel",
            "VHDL / ModelSim (Table 3: 10-17 Hz)",
            RtlEngine,
        ),
        "cycle": EngineInfo(
            "cycle",
            "cycle-based three-phase golden model",
            "SystemC (Table 3: 215 Hz)",
            CycleEngine,
        ),
        "sequential": EngineInfo(
            "sequential",
            "FPGA-style sequential simulation with HBR dynamic scheduling",
            "FPGA simulator (Table 3: 22-61.6 kHz)",
            SequentialEngine,
        ),
        "batch": EngineInfo(
            "batch",
            "lane-parallel seeds on one generated-C body (golden lanes without one)",
            "batched FPGA lanes (one instance per independent run)",
            BatchEngine,
        ),
        "partitioned": EngineInfo(
            "partitioned",
            "one NoC split into tiles, stepped in lockstep on one link memory",
            "multi-FPGA partitioning (one FPGA per tile, section 6)",
            PartitionedEngine,
        ),
    }


def lane_views(engine) -> List["Engine"]:
    """Per-lane offer/log views of any engine.

    A :class:`~repro.engines.batch.BatchEngine` exposes one view per
    lane; every single-lane engine is its own (only) view.  This is how
    lane-agnostic code — the streaming pipeline above all — drives the
    whole registry through one surface.
    """
    lanes = getattr(engine, "lanes", None)
    lane = getattr(engine, "lane", None)
    if lanes is not None and callable(lane):
        return [engine.lane(i) for i in range(lanes)]
    return [engine]


def list_engines() -> List[EngineInfo]:
    """All registered engines."""
    return list(_registry().values())


#: execution bodies ``make_engine(..., kernel=)`` accepts, per engine;
#: engines not listed have one body and take only ``auto``/``python``.
_KERNELS = {
    "batch": ("auto", "python", "levelized", "jit"),
    "sequential": ("auto", "python"),
}


def make_engine(name: str, cfg: NetworkConfig, **kwargs) -> "Engine":
    """Instantiate an engine by registry name.

    ``kernel`` selects the execution body (``repro simulate --kernel``).
    On the batch engine ``auto`` (default) binds the generated-C body
    when it can be built and golden lanes (one golden network per lane)
    otherwise, ``python`` forces golden lanes, and ``levelized`` /
    ``jit`` are two labels for the generated-C body (both raising
    :class:`~repro.kernels.KernelUnavailableError` when it cannot be
    built).  On the sequential engine ``auto`` is the generated-C body
    with its HBR accounting pass, falling back to the Python model, and
    ``python`` is that model.  Every other engine has one body and
    accepts ``auto`` and ``python`` only.
    """
    registry = _registry()
    if name not in registry:
        raise KeyError(f"unknown engine {name!r}; known: {sorted(registry)}")
    kernel = kwargs.pop("kernel", "auto")
    allowed = _KERNELS.get(name, ("auto", "python"))
    if kernel not in allowed:
        message = (
            f"engine {name!r} supports kernel {'|'.join(allowed)} "
            f"(got {kernel!r})"
        )
        if name == "sequential" and kernel in _KERNELS["batch"]:
            message += "; auto already binds the generated-C body"
        raise ValueError(message)
    if name in _KERNELS:
        kwargs["kernel"] = kernel
    return registry[name].factory(cfg, **kwargs)
