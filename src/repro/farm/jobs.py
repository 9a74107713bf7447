"""Job specifications and their pure executors.

A farm job is a frozen dataclass whose fields fully determine its
result: the bit-accuracy claim of the paper means two executions of the
same spec produce byte-identical payloads, which is what makes the
content-addressed result cache (:mod:`repro.farm.cache`) sound.

* :class:`SimulateJob` — one :class:`~repro.traffic.stimuli.TrafficDriver`
  workload on any single-lane engine, with optional checkpoint-based
  resume (``checkpoint_every``) through :mod:`repro.noc.checkpoint`;
* :class:`CallableJob` — any picklable pure callable applied to one
  pickled item: how the experiment sweeps (Figure-1 loads, traffic
  patterns, multi-seed fault campaigns) fan their points out
  (:func:`repro.farm.client.farm_map`);
* :class:`ChaosJob` — deliberate crash/hang/fail/wedge behaviour for the
  chaos test suite and ``repro farm --smoke``.

:func:`canonical_key` derives the cache key — a SHA-256 over the spec's
canonical JSON — and :func:`payload_digest` fingerprints the result the
same way, so a cache entry whose payload no longer matches its recorded
digest is detectably corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple


class FarmJobError(RuntimeError):
    """A farm job failed past its retry budget (carries the records)."""

    def __init__(self, message: str, failures: Tuple = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


def _canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_key(spec) -> str:
    """Content address of a job spec: SHA-256 of its canonical form.

    Declared job dataclasses hash their sorted-key JSON (stable across
    processes and sessions); :class:`CallableJob` hashes the pickled
    callable and item instead, since arbitrary sweep points need not be
    JSON-serialisable.
    """
    if isinstance(spec, CallableJob):
        blob = pickle.dumps((spec.kind, spec.fn, spec.item), protocol=4)
        return hashlib.sha256(blob).hexdigest()
    payload = {"kind": spec.kind, **asdict(spec)}
    return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()


def payload_digest(payload: Any) -> str:
    """Fingerprint of a job result (canonical JSON, pickle fallback)."""
    try:
        return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    except (TypeError, ValueError):
        return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateJob:
    """One seeded traffic workload on a single-lane engine."""

    kind = "simulate"

    width: int = 4
    height: int = 4
    topology: str = "torus"
    queue_depth: int = 4
    engine: str = "sequential"
    load: float = 0.08
    seed: int = 0xC11
    cycles: int = 200
    drain: bool = True
    #: cycles between architectural checkpoints (0 = off).  With a
    #: scratch directory, a retried job resumes from the last
    #: checkpoint instead of replaying from cycle 0 — bit-identically,
    #: because the checkpoint is the paper's full architectural state.
    checkpoint_every: int = 0


@dataclass(frozen=True)
class CallableJob:
    """``fn(item)`` for a picklable pure callable: a module-level
    function, a :func:`functools.partial` over one, or a callable
    object such as ``PartitionedEngineFactory``."""

    kind = "callable"
    #: a pure point that raises would raise again: an ``exception``
    #: failure is final, only worker death / timeout earn a retry.
    retry_exceptions = False

    fn: Any
    item: Any = None

    @staticmethod
    def from_callable(fn, item) -> "CallableJob":
        try:
            pickle.dumps((fn, item), protocol=4)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise FarmJobError(
                f"farm jobs must pickle to reach a worker process; {fn!r} "
                f"applied to {item!r} does not: {exc}"
            ) from exc
        return CallableJob(fn=fn, item=item)

    @property
    def qualname(self) -> str:
        fn = getattr(self.fn, "func", self.fn)  # see through a partial
        return getattr(fn, "__qualname__", type(fn).__name__)


@dataclass(frozen=True)
class ChaosJob:
    """Deliberately misbehaving job for the chaos suite.

    Modes: ``ok`` (succeed), ``fail`` (raise every time), ``flaky``
    (crash-free fail on the first attempt, succeed after — a sentinel
    file in ``scratch`` carries the attempt count across processes),
    ``crash`` (``os._exit``: simulates a segfaulting worker),
    ``crash-once`` (crash on the first attempt only), ``hang`` (sleep
    past any sane job timeout), and ``wedge`` (silence the worker's
    heartbeat, then hang — the frozen-process failure mode).
    """

    kind = "chaos"

    mode: str = "ok"
    token: str = ""
    scratch: str = ""
    seconds: float = 3600.0


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------

def _checkpoint_path(spec: SimulateJob, scratch: Optional[str]) -> Optional[str]:
    if not scratch or spec.checkpoint_every <= 0:
        return None
    return os.path.join(scratch, f"{canonical_key(spec)}.ckpt")


def _save_progress(path: str, engine, driver, tracker) -> None:
    """Atomically persist the full run state: the engine through the
    bit-exact :mod:`repro.noc.checkpoint` path (exactly what the ARM
    reads back over the memory interface), the software side — driver
    queues, generator RNG, tracker, logs — via pickle.

    The BE generator itself is *not* pickled (destination patterns are
    closures); its mutable state — LFSR and per-source sequence
    counters — travels explicitly and the generator is rebuilt from the
    spec on resume.
    """
    from repro.noc.checkpoint import save_checkpoint

    checkpoint = save_checkpoint(engine)
    be, engine_ref = driver.be, driver.engine
    be_state = None
    if be is not None:
        be_state = {
            "rng_state": be.rng.state,
            "rng_words": be.rng.words_read,
            "seq": list(be._seq),
        }
    driver.engine = None  # the engine travels as the checkpoint, not pickle
    driver.be = None  # rebuilt from the spec + be_state on resume
    try:
        blob = pickle.dumps(
            {
                "checkpoint": checkpoint.to_json(),
                "driver": driver,
                "tracker": tracker,
                "be_state": be_state,
                "injections": list(engine.injections),
                "ejections": list(engine.ejections),
            },
            protocol=4,
        )
    finally:
        driver.engine = engine_ref
        driver.be = be
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as stream:
        stream.write(blob)
    os.replace(tmp, path)


def _validate_rng_resume(fresh_rng, be_state) -> None:
    """Cross-check a checkpoint's LFSR state against its word count.

    The Galois LFSR's closed-form jump (:func:`repro.traffic.rng.lfsr_jump`)
    makes the saved ``(state, words_read)`` pair redundant: jumping the
    spec's seed forward ``words_read`` reads must land exactly on the
    saved state.  A mismatch means the checkpoint is internally torn
    (e.g. a partial write that survived pickle), so resuming would
    silently fork the traffic stream — treat it as corrupt instead.
    """
    from repro.traffic.rng import HardwareLfsr, lfsr_jump

    if not isinstance(fresh_rng, HardwareLfsr):
        return
    words = be_state["rng_words"]
    if words < 0 or lfsr_jump(fresh_rng.state, 32 * words) != be_state["rng_state"]:
        raise ValueError(
            "checkpoint RNG state does not match its word count "
            f"(words_read={words})"
        )


def _load_progress(path: str, engine, make_be):
    """Restore a saved run state into a fresh engine; returns the
    resumed ``(driver, tracker)`` or ``None`` when the file is missing
    or unreadable (a torn write from a killed worker must mean "start
    over", never "crash again").  ``make_be`` rebuilds the traffic
    generator from the spec; its saved RNG/sequence state is restored
    on top, so the resumed stream continues bit-exactly."""
    from repro.noc.checkpoint import Checkpoint, CheckpointError, restore_checkpoint

    try:
        with open(path, "rb") as stream:
            state = pickle.loads(stream.read())
        restore_checkpoint(engine, Checkpoint.from_json(state["checkpoint"]))
        driver, tracker = state["driver"], state["tracker"]
        engine.injections.extend(state["injections"])
        engine.ejections.extend(state["ejections"])
        driver.engine = engine
        be_state = state["be_state"]
        if be_state is not None:
            be = make_be()
            _validate_rng_resume(be.rng, be_state)
            be.rng.state = be_state["rng_state"]
            be.rng.words_read = be_state["rng_words"]
            be._seq = list(be_state["seq"])
            driver.be = be
        return driver, tracker
    except FileNotFoundError:
        return None
    except (CheckpointError, pickle.UnpicklingError, EOFError, KeyError,
            AttributeError, ValueError, OSError):
        try:
            os.replace(path, f"{path}.corrupt-{time.time_ns()}")
        except OSError:
            pass
        return None


def run_simulate(
    spec: SimulateJob,
    scratch: Optional[str] = None,
    abort_at_cycle: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute a :class:`SimulateJob` (optionally resuming a checkpoint).

    ``abort_at_cycle`` is the chaos hook: the run checkpoints as usual
    and then dies at that cycle, exactly like a killed worker — the
    resume test drives it to prove a resumed job stays bit-identical.
    """
    from repro.engines import make_engine
    from repro.noc import NetworkConfig, RouterConfig
    from repro.stats import PacketLatencyTracker
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    net = NetworkConfig(
        spec.width,
        spec.height,
        topology=spec.topology,
        router=RouterConfig(queue_depth=spec.queue_depth),
    )
    engine = make_engine(spec.engine, net)

    def make_be():
        return BernoulliBeTraffic(
            net, spec.load, uniform_random(net), seed=spec.seed
        )

    ckpt_path = _checkpoint_path(spec, scratch)
    resumed = _load_progress(ckpt_path, engine, make_be) if ckpt_path else None
    if resumed is not None:
        driver, tracker = resumed
    else:
        driver = TrafficDriver(engine, be=make_be())
        tracker = PacketLatencyTracker(net)
        driver.attach_tracker(tracker)

    while engine.cycle < spec.cycles:
        driver.step()
        at_boundary = (
            spec.checkpoint_every > 0
            and engine.cycle % spec.checkpoint_every == 0
            and engine.cycle < spec.cycles
        )
        if ckpt_path and at_boundary:
            _save_progress(ckpt_path, engine, driver, tracker)
        if abort_at_cycle is not None and engine.cycle >= abort_at_cycle:
            raise FarmJobError(
                f"chaos: simulated worker death at cycle {engine.cycle}"
            )
    drained = 0
    if spec.drain:
        driver.be = None
        drained = driver.drain()
    tracker.collect(engine)
    stats = tracker.stats()
    eject_stream = hashlib.sha256(
        repr(
            [(r.cycle, r.router, r.vc, r.flit_word) for r in engine.ejections]
        ).encode()
    ).hexdigest()
    if ckpt_path:
        try:
            os.remove(ckpt_path)
        except OSError:
            pass
    return {
        "cycles": engine.cycle,
        "drain_cycles": drained,
        "flits_generated": driver.flits_generated,
        "flits_injected": len(engine.injections),
        "flits_ejected": len(engine.ejections),
        "packets": stats.count if stats else 0,
        "latency_mean": round(stats.mean, 6) if stats else None,
        "latency_p99": stats.p99 if stats else None,
        "latency_max": stats.maximum if stats else None,
        "ejection_digest": eject_stream,
    }


def run_chaos(spec: ChaosJob) -> Dict[str, Any]:
    sentinel = (
        os.path.join(spec.scratch, f"chaos-{spec.token or 'job'}")
        if spec.scratch
        else ""
    )
    first_attempt = bool(sentinel) and not os.path.exists(sentinel)
    if first_attempt:
        with open(sentinel, "w") as stream:
            stream.write("attempted\n")
    if spec.mode == "ok":
        return {"ok": True, "token": spec.token}
    if spec.mode == "fail":
        raise FarmJobError(f"chaos fail ({spec.token})")
    if spec.mode == "flaky":
        if first_attempt:
            raise FarmJobError(f"chaos flaky first attempt ({spec.token})")
        return {"ok": True, "token": spec.token, "recovered": True}
    if spec.mode == "crash" or (spec.mode == "crash-once" and first_attempt):
        os._exit(23)
    if spec.mode == "crash-once":
        return {"ok": True, "token": spec.token, "recovered": True}
    if spec.mode in ("hang", "wedge"):
        if spec.mode == "wedge":
            from repro.farm import worker as farm_worker

            context = farm_worker.current_context()
            if context is not None:
                context.stop_heartbeat()
        deadline = time.monotonic() + spec.seconds
        while time.monotonic() < deadline:
            time.sleep(0.05)
        return {"ok": True, "token": spec.token, "outlasted": True}
    raise FarmJobError(f"unknown chaos mode {spec.mode!r}")


def execute(spec, scratch: Optional[str] = None) -> Any:
    """Run any job spec to its result payload (the workers' entry)."""
    if isinstance(spec, SimulateJob):
        return run_simulate(spec, scratch=scratch)
    if isinstance(spec, CallableJob):
        return spec.fn(spec.item)
    if isinstance(spec, ChaosJob):
        return run_chaos(spec)
    raise FarmJobError(f"unknown job spec {type(spec).__name__}")


@dataclass
class FailureRecord:
    """One failed attempt, preserved verbatim in quarantine records."""

    kind: str  # "exception" | "timeout" | "worker-died" | "heartbeat"
    detail: str
    attempt: int
    worker: Optional[int] = None
    elapsed: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class JobState:
    """Mutable scheduling state of one unique job key."""

    spec: Any
    key: str
    attempts: int = 0
    ready_at: float = 0.0
    failures: list = field(default_factory=list)
