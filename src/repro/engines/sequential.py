"""The FPGA sequential-simulation engine (Table 3 rows 3-4)."""

from __future__ import annotations

from repro.seqsim.sequential import SequentialNetwork, StaticSequentialNetwork


class SequentialEngine(SequentialNetwork):
    """Dynamic HBR scheduling (the paper's method)."""

    name = "sequential"


class StaticScheduleEngine(StaticSequentialNetwork):
    """Static-schedule ablation (3 sweeps per system cycle)."""

    name = "sequential-static"

