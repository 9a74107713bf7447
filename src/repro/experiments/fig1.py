"""Figure 1: GT and BE packet latency vs. offered BE load.

Paper setup: 6x6 network, queue size 2 flits, GT packets of 256 bytes,
BE packets of 10 bytes, BE load swept from 0 to 0.14 of channel
capacity.  Expected shape (paper Fig. 1):

* BE mean latency starts low (tens of cycles) and rises with load;
* GT latency is *higher* than BE "because the GT packets are larger";
* GT mean and max grow with BE load, but GT max never exceeds the
  guarantee line;
* at low BE load GT latency sits well below the guarantee because GT
  uses bandwidth the BE traffic leaves free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.experiments.common import (
    WorkloadResult,
    render_table,
    run_fig1_workload,
    run_fig1_workloads_batched,
    scale,
)
from repro.experiments.parallel import lane_batchable, parallel_map, sweep_stage

#: the paper's x-axis, thinned to keep the default run affordable.
DEFAULT_LOADS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14)


@dataclass
class Fig1Result:
    points: List[WorkloadResult]

    def rows(self) -> List[Sequence]:
        out = []
        for p in self.points:
            out.append(
                (
                    f"{p.be_load:.2f}",
                    p.guarantee,
                    round(p.gt_mean, 1) if p.gt_mean is not None else "-",
                    p.gt_max if p.gt_max is not None else "-",
                    round(p.be_mean, 1) if p.be_mean is not None else "-",
                    p.gt_packets,
                    p.be_packets,
                )
            )
        return out

    def render(self) -> str:
        return render_table(
            ["BE load", "Guarantee", "GT mean", "GT max", "BE mean", "#GT", "#BE"],
            self.rows(),
            title="Figure 1 — latency [cycles] vs BE load (6x6 torus, queue depth 2)",
        )

    # -- the shape checks the reproduction asserts -------------------------
    def gt_max_below_guarantee(self) -> bool:
        return all(
            p.gt_max is None or p.gt_max <= p.guarantee for p in self.points
        )

    def gt_latency_increases(self) -> bool:
        means = [p.gt_mean for p in self.points if p.gt_mean is not None]
        return len(means) >= 2 and means[-1] > means[0]

    def gt_above_be(self) -> bool:
        return all(
            p.gt_mean > p.be_mean
            for p in self.points
            if p.gt_mean is not None and p.be_mean is not None
        )


def run(
    loads: Sequence[float] = DEFAULT_LOADS,
    cycles: Optional[int] = None,
    engine_cls=None,
    seed: int = 0x5EED,
    workers: Optional[int] = None,
    profiler=None,
    stream: bool = False,
) -> Fig1Result:
    """Sweep the BE load axis; points run across worker processes.

    Each point is a pure function of ``(load, cycles, engine_cls,
    seed)``, so the parallel sweep is byte-identical to the serial one
    (``workers=1``); the parallel-sweep tests assert it.

    Wide default sweeps (no explicit ``workers`` or ``engine_cls``)
    instead run on the batch engine's lane axis — one vectorized
    process, one lane per load, same numbers per point (the batch
    engine is bit-identical to the sequential engine; only the
    delta-accounting field differs).  ``stream=True`` additionally
    drives those lanes through the five-phase streaming pipeline —
    same points again, with the generate/load/retrieve/analyze work
    overlapped against the simulation instead of serialized around it.
    """
    from repro.engines import SequentialEngine

    cycles = cycles if cycles is not None else scale(4000)
    if engine_cls is None and lane_batchable(len(loads), workers):
        if stream:
            from repro.pipeline import stream_fig1_sweep

            swept = stream_fig1_sweep(
                loads, cycles, seed=seed, profiler=profiler
            )
            return Fig1Result(swept.points)
        with sweep_stage(profiler, points=len(loads), lanes=len(loads)):
            return Fig1Result(
                run_fig1_workloads_batched(loads, cycles, seed=seed)
            )
    engine_cls = engine_cls or SequentialEngine
    point = partial(
        run_fig1_workload, cycles=cycles, engine_cls=engine_cls, seed=seed
    )
    points = parallel_map(point, loads, workers=workers, profiler=profiler)
    return Fig1Result(points)


def main() -> Fig1Result:
    result = run()
    print(result.render())
    print()
    print(f"GT max below guarantee on every point: {result.gt_max_below_guarantee()}")
    print(f"GT mean grows with BE load:            {result.gt_latency_increases()}")
    print(f"GT latency above BE latency:           {result.gt_above_be()}")
    return result


if __name__ == "__main__":
    main()
