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
            "vectorized bulk-synchronous array sweeps, lane-parallel seeds",
            "batched FPGA lanes (one instance per independent run)",
            BatchEngine,
        ),
        "partitioned": EngineInfo(
            "partitioned",
            "one NoC sharded across tile workers behind a boundary switch",
            "multi-FPGA partitioning (one fabric per tile, switched links)",
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


def make_engine(name: str, cfg: NetworkConfig, **kwargs) -> "Engine":
    """Instantiate an engine by registry name.

    ``kernel`` selects the execution body where the engine has more than
    one (``repro simulate --kernel``): ``auto`` (default) lets each
    engine pick its best available tier, ``python`` forces the reference
    interpreter/NumPy path, ``levelized`` swaps the sequential engine
    for its static-levelized compiled variant (on the batch engine it
    binds the fused chunk kernel over the level schedule), and ``jit``
    requires that same generated-C chunk kernel, bound in natural router
    order (raising :class:`~repro.kernels.KernelUnavailableError` when
    no JIT tier can run).
    """
    registry = _registry()
    if name not in registry:
        raise KeyError(f"unknown engine {name!r}; known: {sorted(registry)}")
    kernel = kwargs.pop("kernel", "auto")
    factory = registry[name].factory
    if name == "batch":
        if kernel not in ("auto", "python", "levelized", "jit"):
            raise ValueError(
                "engine 'batch' supports kernel auto|python|levelized|jit "
                f"(got {kernel!r})"
            )
        kwargs["kernel"] = kernel
    elif name == "sequential":
        if kernel == "levelized":
            from repro.engines.sequential import LevelizedSequentialEngine

            factory = LevelizedSequentialEngine
        elif kernel not in ("auto", "python"):
            raise ValueError(
                "engine 'sequential' supports kernel auto|python|levelized "
                f"(got {kernel!r})"
            )
    elif kernel not in ("auto", "python"):
        raise ValueError(
            f"engine {name!r} supports only kernel auto|python (got {kernel!r})"
        )
    return factory(cfg, **kwargs)
