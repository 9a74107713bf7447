"""The five workloads: what each builds, what it times, what it must produce.

A workload is built from a seed (set-up, untimed), run once (the timed
region: the call a user of that path makes), then summarised into exact,
seed-determined simulated results.  ``sim_digest`` hashes those results: a
change meant only to speed the simulator up must leave every digest alone.

Sizes are per timed region, chosen so that one fresh-process job takes about
two seconds and one measured run holds about seven of them; why each workload
is here is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import engines
from repro.engines import BatchEngine, CycleEngine, SequentialEngine, lane_views
from repro.experiments import fig1
from repro.experiments.common import (
    fig1_network,
    run_fig1_workload,
    run_fig1_workloads_batched,
)
from repro.kernels import probe_backends
from repro.pipeline import stream_fig1_sweep
from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

#: the paper's Fig. 1 BE-load axis: one lane per load.
FIG1_LOADS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14)

#: fraction of the full length the golden-reference replay runs at.
CHECK_DIVISOR = 20

#: GT warm-up of the reference replay of the Fig. 1 workloads (the timed
#: runs keep the experiment's own 1300-cycle GT period).
CHECK_WARMUP = 1300 // CHECK_DIVISOR


class Mismatch(AssertionError):
    """A simulated result differs from the golden reference."""


def lfsr_seed(n: int) -> int:
    """Map any harness seed onto the LFSR's legal range [1, 2**32 - 1]."""
    return 1 + (n - 1) % (2**32 - 1)


def _be_drivers(engine, load: float, seed: int) -> List[TrafficDriver]:
    net = engine.cfg
    return [
        TrafficDriver(
            view,
            be=BernoulliBeTraffic(
                net, load, uniform_random(net), seed=lfsr_seed(seed + i)
            ),
        )
        for i, view in enumerate(lane_views(engine))
    ]


def _engine_results(engine, drivers: Sequence[TrafficDriver]) -> Dict:
    views = lane_views(engine)
    injected = [len(v.injections) for v in views]
    ejected = [len(v.ejections) for v in views]
    metrics = engine.metrics
    return {
        "digest_of": (
            [v.snapshot() for v in views],
            injected,
            ejected,
            metrics.total_deltas,
        ),
        "flits_injected": sum(injected),
        "flits_ejected": sum(ejected),
        "packets": sum(len(d.submits) for d in drivers),
        "total_deltas": metrics.total_deltas,
        "deltas_per_cycle": metrics.mean_deltas_per_cycle(),
        "extra_delta_fraction": metrics.extra_fraction(),
    }


def _require_same_lane(name: str, lane: int, got, want) -> None:
    if got.snapshot() != want.snapshot():
        raise Mismatch(f"{name}: lane {lane} snapshot differs from the reference")
    if got.injections != want.injections:
        raise Mismatch(f"{name}: lane {lane} injection log differs")
    if got.ejections != want.ejections:
        raise Mismatch(f"{name}: lane {lane} ejection log differs")


class FusedBe:
    """Bernoulli BE traffic on the fused levelized chunk kernel."""

    def __init__(self, spec: "Spec", seed: int, cycles: int) -> None:
        self.spec = spec
        self.cycles = cycles
        self.engine = BatchEngine(
            fig1_network(), lanes=spec.lanes, kernel="levelized"
        )
        self.drivers = _be_drivers(self.engine, spec.load, seed)
        if spec.warmup:
            engines.run_batched(self.engine, self.drivers, spec.warmup)

    def run(self, alt: bool = False) -> None:
        # looked up on the module at call time, so the traced pass sees it
        engines.run_batched(
            self.engine,
            self.drivers,
            self.cycles,
            fast_forward=self.spec.fast_forward and not alt,
        )

    def path_error(self, seen: Dict) -> Optional[str]:
        engine = self.engine
        if engine.kernel != "levelized" or engine.kernel_reason is not None:
            return f"kernel={engine.kernel!r} reason={engine.kernel_reason!r}"
        return None

    def results(self, seen: Dict) -> Dict:
        return _engine_results(self.engine, self.drivers)

    @staticmethod
    def check(spec: "Spec", seed: int, cycles: int) -> None:
        """Fused run against the NumPy sweeps on every lane and against
        the golden cycle engine on the first and last lane."""
        fused = FusedBe(spec, seed, cycles)
        fused.run()
        numpy_engine = BatchEngine(
            fig1_network(), lanes=spec.lanes, kernel="python"
        )
        engines.run_batched(
            numpy_engine,
            _be_drivers(numpy_engine, spec.load, seed),
            spec.warmup + cycles,
        )
        got = lane_views(fused.engine)
        for lane, want in enumerate(lane_views(numpy_engine)):
            _require_same_lane(spec.name, lane, got[lane], want)
        for lane in sorted({0, spec.lanes - 1}):
            golden = CycleEngine(fig1_network())
            _be_drivers(golden, spec.load, seed + lane)[0].run(
                spec.warmup + cycles
            )
            _require_same_lane(spec.name, lane, got[lane], golden)


class SeqHbr:
    """The paper's HBR/delta-count model: worklist scheduler, one lane."""

    def __init__(self, spec: "Spec", seed: int, cycles: int) -> None:
        self.spec = spec
        self.cycles = cycles
        self.engine = SequentialEngine(fig1_network())
        self.drivers = _be_drivers(self.engine, spec.load, seed)

    def run(self, alt: bool = False) -> None:
        self.drivers[0].run(self.cycles)

    def path_error(self, seen: Dict) -> Optional[str]:
        return None

    def results(self, seen: Dict) -> Dict:
        return _engine_results(self.engine, self.drivers)

    @staticmethod
    def check(spec: "Spec", seed: int, cycles: int) -> None:
        live = SeqHbr(spec, seed, cycles)
        live.run()
        golden = CycleEngine(fig1_network())
        _be_drivers(golden, spec.load, seed)[0].run(cycles)
        _require_same_lane(spec.name, 0, live.engine, golden)


def _points_results(points, engine, packets: int, trackers) -> Dict:
    out = {
        "digest_of": [dataclasses.astuple(p) for p in points],
        "be_mean_latency_008": next(
            p.be_mean for p in points if abs(p.be_load - 0.08) < 1e-9
        ),
        "gt_max_latency": max(p.gt_max for p in points),
        "gt_guarantee": min(p.guarantee for p in points),
        "packets": packets,
        "samples": sum(len(t.samples) for t in trackers),
    }
    if engine is not None:
        views = lane_views(engine)
        metrics = engine.metrics
        out.update(
            flits_injected=sum(len(v.injections) for v in views),
            flits_ejected=sum(len(v.ejections) for v in views),
            total_deltas=metrics.total_deltas,
            deltas_per_cycle=metrics.mean_deltas_per_cycle(),
            extra_delta_fraction=metrics.extra_fraction(),
        )
    return out


def _fig1_path_error(seen: Dict) -> Optional[str]:
    backends = probe_backends()
    if backends.get("cffi") != "ok":
        return f"generated-C tier unavailable: {backends.get('cffi')}"
    engine = seen.get("engine")
    if engine is not None and (engine.kernel != "jit" or engine.kernel_reason):
        return f"kernel={engine.kernel!r} reason={engine.kernel_reason!r}"
    return None


def _require_same_points(name: str, got, want) -> None:
    for g, w in zip(got, want):
        # extra_delta_fraction is the engine's own delta accounting, not a
        # simulated result: None on the cycle engine, 2.0 on the batch one.
        g = dataclasses.replace(g, extra_delta_fraction=None)
        w = dataclasses.replace(w, extra_delta_fraction=None)
        if g != w:
            raise Mismatch(f"{name}: load {w.be_load}: {g} != {w}")


def _check_fig1_points(name: str, points, seed: int, cycles: int) -> None:
    """Points of a short sweep against solo golden-engine runs of the
    first, the 0.08 and the last load, plus the paper's Fig. 1 claim."""
    for index in (0, 4, len(FIG1_LOADS) - 1):
        want = run_fig1_workload(
            FIG1_LOADS[index],
            cycles,
            seed=seed,
            engine_cls=CycleEngine,
            warmup=CHECK_WARMUP,
        )
        _require_same_points(name, [points[index]], [want])
    _require_gt_guarantee(name, points)


def _require_gt_guarantee(name: str, points) -> None:
    for p in points:
        if p.gt_max is not None and p.gt_max > p.guarantee:
            raise Mismatch(
                f"{name}: GT max latency {p.gt_max} exceeds the guarantee "
                f"{p.guarantee} at BE load {p.be_load}"
            )


class Fig1Sweep:
    """The Fig. 1 experiment as users run it (lane-batched, unstreamed)."""

    def __init__(self, spec: "Spec", seed: int, cycles: int) -> None:
        self.spec = spec
        self.seed = lfsr_seed(seed)
        self.cycles = cycles
        self.points = None

    def run(self, alt: bool = False) -> None:
        self.points = fig1.run(
            loads=FIG1_LOADS, cycles=self.cycles, seed=self.seed, stream=False
        ).points

    def path_error(self, seen: Dict) -> Optional[str]:
        return _fig1_path_error(seen)

    def results(self, seen: Dict) -> Dict:
        _require_gt_guarantee(self.spec.name, self.points)
        drivers = seen.get("drivers") or ()
        return _points_results(
            self.points,
            seen.get("engine"),
            sum(len(d.submits) for d in drivers),
            [d.tracker for d in drivers],
        )

    @staticmethod
    def check(spec: "Spec", seed: int, cycles: int) -> None:
        seed = lfsr_seed(seed)
        points = run_fig1_workloads_batched(
            FIG1_LOADS, cycles, seed=seed, warmup=CHECK_WARMUP
        )
        _check_fig1_points(spec.name, points, seed, cycles)


class StreamFig1:
    """The same sweep through the five-phase streaming pipeline."""

    def __init__(self, spec: "Spec", seed: int, cycles: int) -> None:
        self.spec = spec
        self.seed = lfsr_seed(seed)
        self.cycles = cycles
        self.swept = None

    def run(self, alt: bool = False) -> None:
        self.swept = stream_fig1_sweep(
            FIG1_LOADS, self.cycles, seed=self.seed, threaded=not alt
        )

    def path_error(self, seen: Dict) -> Optional[str]:
        return _fig1_path_error(seen)

    def results(self, seen: Dict) -> Dict:
        _require_gt_guarantee(self.spec.name, self.swept.points)
        report = self.swept.report
        out = _points_results(
            self.swept.points,
            seen.get("engine"),
            sum(report.analyze.submit_counts),
            report.trackers,
        )
        out["profiler"] = report.profiler
        return out

    @staticmethod
    def check(spec: "Spec", seed: int, cycles: int) -> None:
        seed = lfsr_seed(seed)
        points = stream_fig1_sweep(
            FIG1_LOADS, cycles, seed=seed, warmup=CHECK_WARMUP
        ).points
        _check_fig1_points(spec.name, points, seed, cycles)


@dataclass(frozen=True)
class Spec:
    """One workload: its size, its default seed and the class that runs it."""

    name: str
    live: Callable
    lanes: int
    cycles: int
    seed: int
    load: float = 0.0
    warmup: int = 0
    fast_forward: bool = False
    #: what ``run(alt=True)`` switches off, for the traced pass's rerun.
    alt: Optional[str] = None
    #: runs Python on more than one thread, so its jobs are not pinned to a core.
    threads: bool = False

    def sized(self, divisor: int) -> int:
        return max(64, self.cycles // divisor)

    def build(self, seed: int, divisor: int = 1):
        return self.live(self, seed, self.sized(divisor))

    def check(self, seed: int) -> None:
        self.live.check(self, seed, self.sized(CHECK_DIVISOR))


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "be16_fused",
            FusedBe,
            lanes=16,
            cycles=4096,
            seed=0xBEE,
            load=0.08,
            warmup=64,
        ),
        Spec(
            "fig1_gtbe8",
            Fig1Sweep,
            lanes=len(FIG1_LOADS),
            cycles=2000,
            seed=0x5EED,
        ),
        Spec(
            "seq_hbr_6x6",
            SeqHbr,
            lanes=1,
            cycles=5000,
            seed=0xBEE,
            load=0.08,
        ),
        Spec(
            "stream_fig1",
            StreamFig1,
            lanes=len(FIG1_LOADS),
            cycles=2000,
            seed=0x5EED,
            alt="threaded",
            threads=True,
        ),
        Spec(
            "sparse_ff",
            FusedBe,
            lanes=1,
            cycles=200_000,
            seed=0xBEE,
            load=0.0002,
            fast_forward=True,
            alt="fast_forward",
        ),
    )
}


def digest(results: Dict) -> str:
    return hashlib.sha256(repr(results["digest_of"]).encode()).hexdigest()
