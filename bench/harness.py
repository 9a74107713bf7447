"""Run jobs in fresh child processes and turn them into the named metrics.

A closed loop of one job at a time: the next child starts only when the
previous one has exited, so nothing contends and a slow simulator simply
completes fewer jobs in the measured seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "bench", "out")

#: environment switches that would silently reroute a workload.
SCRUBBED = ("REPRO_STREAM", "REPRO_FARM", "REPRO_KERNELS", "REPRO_SCALE", "REPRO_WORKERS")

#: fewest untraced jobs one measured run reports a median over.
MIN_JOBS = 3

#: size divisor of ``--smoke`` (the reference check has its own, 1/20).
SMOKE_DIVISOR = 50

CHILD_TIMEOUT_S = 150


def contract() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def spawn(*child_args: str, cache: Optional[str] = None) -> Dict:
    """One child to completion; its last stdout line, or why there is none."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    # a benchmark-owned kernel cache: ~/.cache/repro-kernels neither helps
    # nor is polluted, and it is warm from the reference check onwards
    env["REPRO_KERNEL_CACHE"] = cache or os.path.join(OUT, "kernel-cache")
    os.makedirs(env["REPRO_KERNEL_CACHE"], exist_ok=True)
    cmd = [sys.executable, "-m", "bench.child", *child_args, "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S} s"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}


def job_args(spec, seed: int, divisor: int) -> List[str]:
    args = ["--workload", spec.name, "--seed", str(seed), "--divisor", str(divisor)]
    cpus = os.sched_getaffinity(0)
    if not spec.threads and len(cpus) > 1:
        # a single-threaded job cannot use a second core; pinning it only
        # removes migration noise (job-to-job sd 8.4 % -> 4.3 % on be16_fused)
        args += ["--cpu", str(max(cpus))]
    return args


class Tally:
    """Every job of one workload: what it measured and whether it counts."""

    def __init__(self, spec, seed: int, expected_digest: Optional[str] = None) -> None:
        self.spec = spec
        self.seed = seed
        self.digest = expected_digest
        self.timed: List[Dict] = []  # untraced, unaltered, not failed
        self.attempted = 0
        self.errors: List[str] = []
        self.last_wall = 0.0

    def run(self, *extra: str, divisor: int = 1, timed: bool = False) -> Optional[Dict]:
        """Run one job; ``None`` if it failed (the reason is kept)."""
        start = time.monotonic()
        job = spawn(*job_args(self.spec, self.seed, divisor), *extra)
        self.last_wall = time.monotonic() - start
        self.attempted += 1
        error = job.get("error") or job.get("path_error") and f"wrong path: {job['path_error']}"
        if not error and job.get("restored") is False:
            error = "trace wrappers were not restored"
        if not error and "sim_digest" in job:
            self.digest = self.digest or job["sim_digest"]
            if job["sim_digest"] != self.digest:
                error = f"sim_digest {job['sim_digest'][:12]} != {self.digest[:12]}"
        if error:
            self.errors.append(error)
            return None
        if timed:
            self.timed.append(job)
        return job

    def check(self) -> None:
        self.run("--check")

    @property
    def failed(self) -> int:
        return len(self.errors)

    def values(self, metric: str) -> List[float]:
        return [job[metric] for job in self.timed]

    def median(self, metric: str) -> float:
        return statistics.median(self.values(metric))


def traced_pass(tally: Tally, divisor: int, compile_cold_s: float) -> Optional[Dict]:
    """One traced job, plus the reruns some layer metrics are ratios against:
    every per-layer metric and the ``layer_table``, or ``None`` if the traced
    job failed or there is no untraced job to compare it with."""
    spec = tally.spec
    os.makedirs(OUT, exist_ok=True)
    traced = tally.run(
        "--trace", "--trace-file", os.path.join(OUT, f"trace-{spec.name}.json"), divisor=divisor
    )
    if not traced or not tally.timed:
        return None
    layers = dict(traced["layers"], layer_table=traced["layer_table"])
    alt_cps = 0.0
    if spec.alt:
        alt = tally.run("--alt", divisor=divisor)
        alt_cps = alt["sim_cps"] if alt else 0.0
    speedup = tally.median("sim_cps") / alt_cps if alt_cps else 0.0
    is_ff, is_threaded = spec.alt == "fast_forward", spec.alt == "threaded"
    layers.update(
        {
            "kernels.compile_cold_s": compile_cold_s,
            "engines.ff_off_cps": alt_cps if is_ff else 0.0,
            "engines.ff_speedup": speedup if is_ff else 0.0,
            "pipeline.serial_cps": alt_cps if is_threaded else 0.0,
            "pipeline.threaded_speedup": speedup if is_threaded else 0.0,
            "host.cpu_s": tally.median("cpu_s"),
            "host.speed": tally.median("host_speed"),
            "trace.overhead": traced["run_s"] / tally.median("run_s") - 1,
        }
    )
    return layers


def cold_compile() -> float:
    """Seconds to build the levelized engine against an empty kernel cache."""
    os.makedirs(OUT, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="cold-cache-", dir=OUT)
    try:
        return spawn("--cold", cache=cache).get("compile_cold_s", 0.0)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def with_units(values: Dict[str, float], declared: List[Dict]) -> Dict[str, Dict]:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The contract command: one workload for ``seconds``, one JSON line."""
    from bench.workloads import WORKLOADS

    declared = contract()
    tally = Tally(WORKLOADS[workload], seed)
    tally.check()
    # with tracing the traced job, its rerun and the cold compile need room
    budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    while (
        len(tally.timed) + tally.failed < MIN_JOBS
        or time.monotonic() - start + tally.last_wall <= budget
    ):
        tally.run(timed=True)
    if not tally.timed:
        print(f"bench: no job of {workload} succeeded: {tally.errors}", file=sys.stderr)
        return 1
    if trace:
        layers = traced_pass(tally, 1, cold_compile())
        if layers is None:
            print(f"bench: traced job of {workload} failed: {tally.errors}", file=sys.stderr)
            return 1
        metrics = with_units(layers, declared["per_layer"])
    else:
        metrics = with_units(
            {m["name"]: tally.median(m["name"]) for m in declared["end_to_end"]},
            declared["end_to_end"],
        )
    for error in tally.errors:
        print(f"bench: failed job: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# -- the all-workloads run ---------------------------------------------------
def fingerprint() -> Dict:
    def output(*cmd: str) -> Optional[str]:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip().splitlines()[0] if proc.returncode == 0 and proc.stdout.strip() else None

    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": output("git", "rev-parse", "HEAD"),
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "cffi": version("cffi"),
        "cc": output(os.environ.get("CC", "cc"), "--version"),
        "load_1m_start": os.getloadavg()[0],
    }


def summarise(values: List[float], unit: str) -> Dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def full_run(seed: Optional[int], repeats: int, smoke: bool, out: Optional[str]) -> int:
    """Every workload: check, ``repeats`` interleaved passes, a traced pass."""
    from bench.workloads import WORKLOADS

    declared = contract()
    divisor = SMOKE_DIVISOR if smoke else 1
    repeats = 1 if smoke else repeats
    host = fingerprint()
    recorded = {} if smoke or seed is not None else recorded_digests()
    tallies = {
        name: Tally(spec, spec.seed if seed is None else seed, recorded.get(name))
        for name, spec in WORKLOADS.items()
    }
    for tally in tallies.values():
        tally.check()
    # interleaved passes (w1..w5, w1..w5, ...): drift hits every workload alike
    for _ in range(repeats):
        for tally in tallies.values():
            tally.run(divisor=divisor, timed=True)
    compile_cold_s = cold_compile()
    layers = {name: traced_pass(t, divisor, compile_cold_s) for name, t in tallies.items()}
    host["load_1m_end"] = os.getloadavg()[0]
    host["noisy"] = max(host["load_1m_start"], host["load_1m_end"]) > host["cores"]

    doc = {"host": host, "seed": seed, "smoke": smoke, "repeats": repeats, "workloads": {}}
    for name, tally in tallies.items():
        spec = tally.spec
        traced = layers[name] or {}
        doc["workloads"][name] = {
            "lanes": spec.lanes,
            "cycles": spec.sized(divisor),
            "seed": tally.seed,
            "sim_digest": tally.digest,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failed_share": tally.failed / tally.attempted,
            "errors": tally.errors,
            "end_to_end": {
                m["name"]: summarise(tally.values(m["name"]), m["unit"])
                for m in declared["end_to_end"]
                if tally.timed
            },
            "per_layer": with_units(traced, declared["per_layer"]) if traced else {},
            "layer_table": traced.get("layer_table", {}),
        }
    print(render(doc))
    os.makedirs(OUT, exist_ok=True)
    out = out or os.path.join(
        OUT, time.strftime("results-%Y%m%dT%H%M%S") + ("-smoke" if smoke else "") + ".json"
    )
    with open(out, "w") as stream:
        json.dump(doc, stream, indent=1)
        stream.write("\n")
    print(f"\nwrote {os.path.relpath(out, ROOT)}; spans in bench/out/trace-<workload>.json")
    return 1 if any(t.failed for t in tallies.values()) else 0


def recorded_digests() -> Dict[str, str]:
    """The digests of the recorded first full run (default seeds, full size)."""
    with open(os.path.join(ROOT, "bench", "baseline.json")) as stream:
        return {name: w["sim_digest"] for name, w in json.load(stream)["workloads"].items()}


def render(doc: Dict) -> str:
    host = doc["host"]
    lines = [
        f"host: {host['cores']} cores, python {host['python']}, numpy {host['numpy']}, "
        f"cffi {host['cffi']}, {host['cc']}, commit {host['commit']}, load "
        f"{host['load_1m_start']:.2f} -> {host['load_1m_end']:.2f}"
        + (" (NOISY: load above core count)" if host["noisy"] else "")
    ]
    for name, w in doc["workloads"].items():
        lines.append(
            f"\n{name}: {w['lanes']} lanes x {w['cycles']} cycles, seed {w['seed']:#x}, "
            f"sim_digest {str(w['sim_digest'])[:16]}, failed_share "
            f"{w['failed_share']:.3f} ({w['failed']}/{w['attempted']})"
        )
        lines.extend(f"  FAILED: {error}" for error in w["errors"])
        for metric, s in w["end_to_end"].items():
            lines.append(
                f"  {metric:<34} {s['median']:>14.4f} {s['unit']:<14} "
                f"min {s['min']:.4f} max {s['max']:.4f} n {s['n']}"
            )
        for metric, s in w["per_layer"].items():
            lines.append(f"  {metric:<34} {s['value']:>14.4f} {s['unit']}")
    return "\n".join(lines)


def check_all(seed: Optional[int]) -> int:
    from bench.workloads import WORKLOADS

    status = 0
    for name, spec in WORKLOADS.items():
        tally = Tally(spec, spec.seed if seed is None else seed)
        tally.check()
        print(f"{name}: {'bit-identical to the golden engine' if not tally.failed else tally.errors[0]}")
        status |= bool(tally.failed)
    return status
