"""One job in a fresh process: build a workload, time its run, report.

``python3 -m bench.child --workload W --seed N ...`` prints one JSON object
as its last line.  The harness starts one child per (workload, repeat) so
that heap growth, GC state and ``ru_maxrss`` never leak between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def layer_metrics(tracer, layers: Dict, results: Dict, run_s: float) -> Dict[str, float]:
    """The per-layer metrics one traced child can compute on its own."""

    def of(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    chunk_cycles = of("kernels.run_chunk", "count")
    requested = of("engines.run_batched", "count")
    profiler = results.get("profiler")
    busy = profiler.busy_seconds if profiler else {}
    total_deltas = results.get("total_deltas", 0)
    root_self = of("bench.run", "self_s")
    return {
        "kernels.genwin_s": of("kernels.genwin", "total_s"),
        "kernels.genwin_calls": of("kernels.genwin", "calls"),
        "kernels.stage_s": of("kernels.stage", "total_s"),
        "kernels.run_chunk_s": of("kernels.run_chunk", "total_s"),
        "kernels.run_chunk_self_s": of("kernels.run_chunk", "self_s"),
        "kernels.chunks": of("kernels.run_chunk", "calls"),
        "kernels.chunk_cycles": chunk_cycles,
        "kernels.step_s": of("kernels.step", "total_s"),
        "kernels.steps": of("kernels.step", "calls"),
        "engines.run_batched_s": of("engines.run_batched", "total_s"),
        "engines.run_batched_self_s": of("engines.run_batched", "self_s"),
        "engines.drain_s": of("engines.drain", "total_s"),
        "engines.step_s": of("engines.step", "total_s"),
        "engines.records": results.get("flits_injected", 0) + results.get("flits_ejected", 0),
        "engines.cps_decay": _cps_decay(tracer),
        # the chunked path never calls BatchEngine.step; on the stepped paths
        # every requested cycle is a step and nothing is skipped
        "engines.ff_skipped_cycles": 0 if of("engines.step", "calls") else requested - chunk_cycles,
        "engines.ff_jumps": of("traffic.lfsr_jump", "calls"),
        "traffic.lfsr_jump_s": of("traffic.lfsr_jump", "total_s"),
        "traffic.generate_s": of("traffic.generate", "total_s"),
        "traffic.pump_s": of("traffic.pump", "total_s"),
        "traffic.packets": results.get("packets", 0),
        "seqsim.step_s": of("seqsim.step", "total_s"),
        "seqsim.deltas_per_cycle": results.get("deltas_per_cycle", 0),
        "seqsim.extra_delta_fraction": results.get("extra_delta_fraction", 0),
        "seqsim.host_us_per_delta": 1e6 * run_s / total_deltas if total_deltas else 0,
        "pipeline.generate_busy_s": busy.get("generate", 0),
        "pipeline.load_busy_s": busy.get("load", 0),
        "pipeline.simulate_busy_s": busy.get("simulate", 0),
        "pipeline.retrieve_busy_s": busy.get("retrieve", 0),
        "pipeline.analyze_busy_s": busy.get("analyze", 0),
        "pipeline.ring_wait_s": sum(profiler.wait_seconds.values()) if profiler else 0,
        "pipeline.overlap_efficiency": profiler.overlap_efficiency() if profiler else 0,
        "stats.collect_s": of("stats.collect", "total_s"),
        "stats.samples": results.get("samples", 0),
        "noc.flits_injected": results.get("flits_injected", 0),
        "noc.flits_ejected": results.get("flits_ejected", 0),
        "stats.be_mean_latency_008": results.get("be_mean_latency_008", 0),
        "stats.gt_max_latency": results.get("gt_max_latency", 0),
        "trace.run_s": run_s,
        "trace.unattributed_s": root_self,
        "trace.attributed_share": 1 - root_self / run_s,
    }


def _cps_decay(tracer) -> float:
    """Chunk rate over the last quarter of the run ÷ over the first quarter
    (1.0 = the run does not slow down as it gets longer; 0 = no chunks)."""
    chunks = tracer.named("kernels.run_chunk")
    quarter = len(chunks) // 4
    if not quarter:
        return 0.0
    first, last = chunks[:quarter], chunks[-quarter:]
    runs = tracer.named("engines.run_batched")
    begin = runs[0][4] if runs else first[0][4]

    def rate(spans, since: float) -> float:
        return sum(span[6] for span in spans) / (spans[-1][5] - since)

    return rate(last, chunks[-quarter - 1][5]) / rate(first, begin)


#: seconds ``calibrate`` takes on the 2-vCPU container this benchmark was
#: written in while that host is quiet: the nominal host speed.
CALIBRATION_NOMINAL_S = 0.100


def calibrate() -> float:
    """Seconds this host needs right now for a fixed piece of interpreter work."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def run_job(args) -> Dict:
    # the monotonic clock is system-wide on Linux, so the parent's stamp and
    # ours measure one interval: interpreter start and imports are set-up too
    spawned = args.spawned if args.spawned is not None else time.monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS, digest

    spec = WORKLOADS[args.workload]
    if args.check:
        spec.check(args.seed)
        return {"workload": spec.name, "check": "ok"}

    live = spec.build(args.seed, args.divisor)
    tracer: Optional[Tracer] = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        setup_s = time.monotonic() - spawned
        calib_before = calibrate()
        start = time.perf_counter()
        if tracer is not None:
            with tracer.root():
                live.run(args.alt)
        else:
            live.run(args.alt)
        run_s = time.perf_counter() - start
        # the host's speed drifts by +-20 % over minutes, for all code alike;
        # measured on both sides of the timed region it can be divided out
        host_speed = CALIBRATION_NOMINAL_S / ((calib_before + calibrate()) / 2)
    finally:
        if tracer is not None:
            tracer.restore()

    seen = tracer.seen if tracer is not None else {}
    results = live.results(seen)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cycles = live.cycles
    job = {
        "workload": spec.name,
        "seed": args.seed,
        "lanes": spec.lanes,
        "cycles": cycles,
        "alt": args.alt,
        "host_speed": host_speed,
        "run_s": run_s * host_speed,
        "setup_s": setup_s * host_speed,
        "sim_cps": spec.lanes * cycles / (run_s * host_speed),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sim_digest": digest(results),
        "path_error": live.path_error(seen),
    }
    if tracer is not None:
        job["restored"] = tracer.restored
        job["layer_table"] = tracer.layers()
        job["layers"] = layer_metrics(tracer, job["layer_table"], results, run_s)
        if args.trace_file:
            tracer.write(args.trace_file, f"{spec.name}-{args.seed}")
    return job


def cold_compile() -> Dict:
    """Seconds to construct the levelized engine and its traffic kernel
    (the harness points ``REPRO_KERNEL_CACHE`` at an empty directory)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bench.workloads import WORKLOADS

    start = time.perf_counter()
    live = WORKLOADS["be16_fused"].build(0xBEE, divisor=64)
    return {"compile_cold_s": time.perf_counter() - start, "path_error": live.path_error({})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--divisor", type=int, default=1)
    parser.add_argument("--alt", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--cold", action="store_true")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    try:
        job = cold_compile() if args.cold else run_job(args)
    except Exception as exc:  # the harness counts the job as failed
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(job))
    return 0


if __name__ == "__main__":
    sys.exit(main())
