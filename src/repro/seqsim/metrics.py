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
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class DeltaMetrics:
    """Per-run delta-cycle statistics of a sequential simulation.

    The per-cycle column is kept as runs: ``values[i]`` deltas in each
    of ``counts[i]`` consecutive system cycles, no two neighbouring runs
    of one value.  A chunk of statically scheduled or fast-forwarded
    cycles is one run, whatever its length; :attr:`per_cycle` expands
    the column on demand.
    """

    n_units: int
    values: List[int] = field(default_factory=list)
    counts: List[int] = field(default_factory=list)
    system_cycles: int = 0
    total_deltas: int = 0

    def _check_floor(self, deltas: int) -> None:
        if deltas < self.n_units:
            raise ValueError(
                f"{deltas} deltas < {self.n_units} units: every unit must be "
                "evaluated at least once per system cycle"
            )

    def _book(self, values: List[int], counts: List[int]) -> None:
        """Append runs (no two neighbours among them equal, none empty)."""
        if self.values and self.values[-1] == values[0]:
            self.counts[-1] += counts[0]
            values, counts = values[1:], counts[1:]
        self.values += values
        self.counts += counts

    def record_cycle(self, deltas: int) -> None:
        self.record_cycles(1, deltas)

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
        if cycles:
            self._book([deltas], [cycles])
            self.system_cycles += cycles
            self.total_deltas += cycles * deltas

    def record_counts(self, deltas: Sequence[int]) -> None:
        """Book one measured delta count per system cycle: the column
        the generated body's HBR accounting pass hands back (a list or
        a NumPy array)."""
        if len(deltas) <= 1:  # a stepped cycle
            for value in deltas:
                self.record_cycle(int(value))
            return
        column = np.asarray(deltas, dtype=np.int64)
        self._check_floor(int(column.min()))
        # a run starts at 0 and wherever the count changes
        starts = np.flatnonzero(column[1:] != column[:-1]) + 1
        self._book(
            column[np.append(0, starts)].tolist(),
            np.diff(starts, prepend=0, append=len(column)).tolist(),
        )
        self.system_cycles += len(column)
        self.total_deltas += int(column.sum())

    @property
    def per_cycle(self) -> List[int]:
        """The delta count of every system cycle, in order (a new list)."""
        return list(
            itertools.chain.from_iterable(map(itertools.repeat, self.values, self.counts))
        )

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
        if not self.system_cycles:
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
            "max_deltas_per_cycle": max(self.values, default=0),
        }
