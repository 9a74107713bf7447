"""Delta-cycle accounting (section 6).

"The minimum number of delta cycles per system cycle is equal to the
number of routers of the NoC.  In the extra delta cycles, unstable
routers are re-evaluated [...] The percentage of extra delta cycles is
between 1.5 and 2 times the input load."

These counters are what the Table-3 timing model consumes: every delta
cycle costs two FPGA clock cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class DeltaMetrics:
    """Per-run delta-cycle statistics of a sequential simulation.

    The per-cycle column is kept in chunks, in cycle order: a run
    ``[deltas, cycles]`` — ``deltas`` in each of ``cycles`` consecutive
    system cycles, no two neighbouring runs of one value — or a measured
    column, an int64 array of one count per cycle.  A chunk of
    statically scheduled or fast-forwarded cycles is one run, whatever
    its length, and a measured column is booked as it came;
    :attr:`per_cycle` expands the chunks on demand.
    """

    n_units: int
    chunks: List = field(default_factory=list)
    system_cycles: int = 0
    total_deltas: int = 0

    def _check_floor(self, deltas: int) -> None:
        if deltas < self.n_units:
            raise ValueError(
                f"{deltas} deltas < {self.n_units} units: every unit must be "
                "evaluated at least once per system cycle"
            )

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
            last = self.chunks[-1] if self.chunks else None
            if type(last) is list and last[0] == deltas:
                last[1] += cycles
            else:
                self.chunks.append([deltas, cycles])
            self.system_cycles += cycles
            self.total_deltas += cycles * deltas

    def record_counts(self, deltas: Sequence[int]) -> None:
        """Book one measured delta count per system cycle: the column
        the generated body's HBR accounting pass hands back (a list or
        a NumPy array; copied, so the caller may reuse it)."""
        if len(deltas) <= 1:  # a stepped cycle
            for value in deltas:
                self.record_cycle(int(value))
            return
        column = np.array(deltas, dtype=np.int64)
        self._check_floor(int(column.min()))
        self.chunks.append(column)
        self.system_cycles += len(column)
        self.total_deltas += int(column.sum())

    @property
    def per_cycle(self) -> List[int]:
        """The delta count of every system cycle, in order (a new list
        of Python ints)."""
        out: List[int] = []
        for chunk in self.chunks:
            out += chunk.tolist() if type(chunk) is np.ndarray else [chunk[0]] * chunk[1]
        return out

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
            "max_deltas_per_cycle": max(
                (int(c.max()) if type(c) is np.ndarray else c[0] for c in self.chunks),
                default=0,
            ),
        }
