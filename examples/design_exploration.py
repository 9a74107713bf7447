"""Design-space exploration: buffer size vs. performance vs. FPGA cost.

Section 3 states the goal directly: "we found that buffers require a
relatively large amount of area and energy.  So we would like to redo
the simulation of Figure 1 with different buffer sizes and investigate
what the effect of buffer size on performance and energy consumption
is."  This example does that trade-off study: for queue depths 1/2/4 it
reports BE latency (performance), buffer bits per router (the area/
energy proxy of Table 1), and the simulator's own FPGA footprint.

Run:  python examples/design_exploration.py
"""

from repro.engines import CycleEngine, SequentialEngine
from repro.experiments.common import render_table, scale
from repro.fpga.resources import simulator_resources
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.layout import table1
from repro.noc.packet import PacketClass
from repro.stats import EnergyProbe, PacketLatencyTracker
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random


def study_depth(depth: int, load: float, cycles: int):
    router = RouterConfig(queue_depth=depth)
    net = NetworkConfig(6, 6, router=router)

    def traffic():
        return BernoulliBeTraffic(net, load, uniform_random(net), seed=0xD1CE)

    # performance and energy: the probe counts the cycle engine's wires
    engine = CycleEngine(net)
    driver = TrafficDriver(engine, be=traffic())
    tracker = PacketLatencyTracker(net)
    driver.attach_tracker(tracker)
    probe = EnergyProbe(engine)
    for _ in range(cycles):
        driver.generate(engine.cycle)
        driver.pump()
        engine.step()
        probe.observe()
    driver.be = None
    driver.drain()
    tracker.collect(engine)
    # the simulator's own cost: the same traffic under HBR scheduling
    sequential = SequentialEngine(net)
    TrafficDriver(sequential, be=traffic()).run(cycles)
    stats = tracker.stats(PacketClass.BE)
    bits = table1(router)
    resources = simulator_resources(net)
    return {
        "depth": depth,
        "be_mean": stats.mean,
        "be_p99": stats.p99,
        "buffer_bits": bits["Input queues"],
        "state_word": bits["Total"],
        "sim_bram": resources.total_bram,
        "extra_deltas": sequential.metrics.extra_fraction(),
        "energy_per_flit": probe.energy_per_delivered_flit(),
    }


def main() -> None:
    load = 0.10
    cycles = scale(1500)
    rows = [study_depth(d, load, cycles) for d in (1, 2, 4)]
    print(
        render_table(
            ["queue depth", "BE mean lat", "BE p99", "buffer bits/router",
             "energy/flit", "simulator BRAMs", "extra deltas"],
            [
                (
                    r["depth"],
                    round(r["be_mean"], 1),
                    round(r["be_p99"], 1),
                    r["buffer_bits"],
                    round(r["energy_per_flit"], 2),
                    r["sim_bram"],
                    round(r["extra_deltas"], 3),
                )
                for r in rows
            ],
            title=f"Buffer-size exploration (6x6 torus, BE load {load})",
        )
    )
    print(
        "\nReading: deeper queues buy latency headroom and fewer simulator\n"
        "re-evaluations, at a linear cost in buffer bits and leakage energy\n"
        "(the dominant area/energy term the paper calls out) and in\n"
        "simulator BlockRAMs."
    )


if __name__ == "__main__":
    main()
