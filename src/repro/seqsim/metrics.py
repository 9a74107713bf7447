"""Delta-cycle accounting (section 6).

"The minimum number of delta cycles per system cycle is equal to the
number of routers of the NoC.  In the extra delta cycles, unstable
routers are re-evaluated [...] The percentage of extra delta cycles is
between 1.5 and 2 times the input load."

These counters are what the Table-3 timing model consumes: every delta
cycle costs two FPGA clock cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DeltaMetrics:
    """Per-run delta-cycle statistics of a sequential simulation."""

    n_units: int
    per_cycle: List[int] = field(default_factory=list)

    def _check_floor(self, deltas: int) -> None:
        if deltas < self.n_units:
            raise ValueError(
                f"{deltas} deltas < {self.n_units} units: every unit must be "
                "evaluated at least once per system cycle"
            )

    def record_cycle(self, deltas: int) -> None:
        self._check_floor(deltas)
        self.per_cycle.append(deltas)

    def record_cycles(self, cycles: int, deltas: int) -> None:
        """Credit ``cycles`` system cycles of ``deltas`` each at once.

        The bulk form of :meth:`record_cycle` for chunked kernels and
        quiescence fast-forward: statically scheduled (or provably idle)
        cycles all cost exactly the floor, so the accounting is the same
        whether the cycles were stepped one by one or jumped over.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._check_floor(deltas)
        self.per_cycle.extend(itertools.repeat(deltas, cycles))

    def record_counts(self, deltas: List[int]) -> None:
        """Book one measured delta count per system cycle: the column
        the generated body's HBR accounting pass hands back."""
        if deltas:
            self._check_floor(min(deltas))
        self.per_cycle.extend(deltas)

    @property
    def system_cycles(self) -> int:
        return len(self.per_cycle)

    @property
    def total_deltas(self) -> int:
        return sum(self.per_cycle)

    @property
    def min_deltas(self) -> int:
        """The floor: one evaluation per unit per system cycle."""
        return self.n_units * self.system_cycles

    @property
    def extra_deltas(self) -> int:
        return self.total_deltas - self.min_deltas

    def extra_fraction(self) -> float:
        """Extra deltas as a fraction of the minimum (the section 6
        quantity compared against 1.5-2x the input load)."""
        if self.min_deltas == 0:
            return 0.0
        return self.extra_deltas / self.min_deltas

    def mean_deltas_per_cycle(self) -> float:
        if not self.per_cycle:
            return 0.0
        return self.total_deltas / self.system_cycles

    def summary(self) -> Dict[str, float]:
        return {
            "system_cycles": self.system_cycles,
            "units": self.n_units,
            "total_deltas": self.total_deltas,
            "min_deltas": self.min_deltas,
            "extra_deltas": self.extra_deltas,
            "extra_fraction": self.extra_fraction(),
            "mean_deltas_per_cycle": self.mean_deltas_per_cycle(),
            "max_deltas_per_cycle": max(self.per_cycle, default=0),
        }
