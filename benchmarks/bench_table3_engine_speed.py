"""Table 3 — simulated clock cycles per second.

Three benchmarks measure our engines on the identical 6x6 workload (the
paper's VHDL < SystemC << FPGA hierarchy), and a fourth checks the
platform timing model against the published 22 kHz / 61.6 kHz / 91.6 kHz
figures and the 80-300x speedup claim.  Together with
``repro.experiments.table3`` this is the paper's Table 3; performance
claims about the repo itself come from ``python3 -m bench``.
"""

import pytest

from repro.engines import CycleEngine, RtlEngine, SequentialEngine
from repro.experiments import table3
from repro.experiments.common import fig1_network, scale
from repro.fpga.timing import PAPER_TABLE3
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

LOAD = 0.08


def run_engine(engine_cls, cycles):
    net = fig1_network()
    engine = engine_cls(net)
    be = BernoulliBeTraffic(net, LOAD, uniform_random(net), seed=0xBEE)
    driver = TrafficDriver(engine, be=be)
    driver.run(cycles)
    return engine


@pytest.mark.parametrize(
    "engine_cls,cycles_div",
    [(RtlEngine, 8), (CycleEngine, 1), (SequentialEngine, 1)],
    ids=["rtl_vhdl_analogue", "cycle_systemc_analogue", "sequential_fpga_analogue"],
)
def test_engine_cps(benchmark, engine_cls, cycles_div):
    cycles = max(20, scale(300) // cycles_div)
    engine = benchmark.pedantic(
        run_engine, args=(engine_cls, cycles), rounds=1, iterations=1
    )
    assert engine.cycle == cycles
    benchmark.extra_info["cycles"] = cycles
    benchmark.extra_info["cps"] = cycles / benchmark.stats.stats.mean


def test_platform_model_rows(benchmark):
    result = benchmark.pedantic(table3.run, kwargs={"base_cycles": scale(200)},
                                rounds=1, iterations=1)
    assert result.hierarchy_holds()
    # model vs published figures (within 20 %)
    assert result.modeled_avg_cps == pytest.approx(22_000, rel=0.2)
    assert result.modeled_fast_cps == pytest.approx(61_600, rel=0.2)
    assert result.ceiling_cps == pytest.approx(91_667, rel=0.01)
    lo, hi = result.speedup_vs_systemc
    assert 80 <= lo <= hi <= 300
    benchmark.extra_info["table"] = result.rows()
    benchmark.extra_info["speedup_band"] = (round(lo), round(hi))
    benchmark.extra_info["paper"] = PAPER_TABLE3
