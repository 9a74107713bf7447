"""Throughput and utilisation accounting."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ThroughputStats:
    """Accepted/delivered traffic volumes over a run."""

    cycles: int
    flits_injected: int
    flits_ejected: int
    n_routers: int

    @staticmethod
    def from_engine(engine) -> "ThroughputStats":
        return ThroughputStats(
            cycles=engine.cycle,
            flits_injected=len(engine.injections),
            flits_ejected=len(engine.ejections),
            n_routers=engine.cfg.n_routers,
        )

    @staticmethod
    def from_counts(
        cycles: int, flits_injected: int, flits_ejected: int, n_routers: int
    ) -> "ThroughputStats":
        """Build from incrementally accumulated counts (the streaming
        analyze stage never holds the full logs)."""
        return ThroughputStats(
            cycles=cycles,
            flits_injected=flits_injected,
            flits_ejected=flits_ejected,
            n_routers=n_routers,
        )

    @property
    def accepted_load(self) -> float:
        """Injected flits per cycle per node (fraction of capacity)."""
        if self.cycles == 0:
            return 0.0
        return self.flits_injected / (self.cycles * self.n_routers)

    @property
    def in_flight(self) -> int:
        return self.flits_injected - self.flits_ejected
