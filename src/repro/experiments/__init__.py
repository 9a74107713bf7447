"""Experiment runners: one module per table/figure of the paper.

Each module exposes ``run(...)`` returning a structured result and a
``main()`` that prints the regenerated artifact next to the paper's
published values.  The pytest-benchmark files in ``benchmarks/`` wrap
these; performance claims come from ``python3 -m bench`` instead.

==========  ========================================================
module      reproduces
==========  ========================================================
``fig1``    Figure 1 — GT/BE latency vs. BE load (6x6, queue depth 2)
``table1``  Table 1 — registers per router
``table2``  Table 2 — FPGA resource usage (+ section 4 direct limit)
``table3``  Table 3 — simulated clock cycles per second
``table4``  Table 4 — profile of the simulation steps
``deltas``  Section 6 — extra delta cycles vs. offered load
``fig5``    Figure 5 — a dynamic-schedule trace on the 3-block system
``patterns``    traffic-pattern sweep (abstract: "a large variety of
            traffic patterns")
``resilience``  fault-injection campaign: parity/watchdog detection
            plus rollback recovery (robustness extension)
==========  ========================================================

Run any of them with ``python -m repro.experiments <name>``.
"""

from repro.experiments import (
    deltas,
    fig1,
    fig5,
    patterns,
    resilience,
    table1,
    table2,
    table3,
    table4,
)

ALL = {
    "fig1": fig1,
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "deltas": deltas,
    "fig5": fig5,
    "patterns": patterns,
    "resilience": resilience,
}

__all__ = [
    "ALL",
    "deltas",
    "fig1",
    "fig5",
    "patterns",
    "resilience",
    "table1",
    "table2",
    "table3",
    "table4",
]
