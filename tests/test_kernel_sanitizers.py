"""The generated C under AddressSanitizer and UndefinedBehaviorSanitizer.

A short subprocess rebuilds both generated units — the simulation body
and the stimuli kernel — with ``-fsanitize=address,undefined`` into a
private kernel cache and drives their main call shapes: a multi-lane
chunked run whose event buffers regrow, a drain, the sequential
engine's HBR body on one and on two mask words, a threaded streamed
run (scan, staging, carry-over and the packet match included), a
stall-limit overload, a lane-order window replayed in cycle order
after its last lane overloads (the state snapshot and its restore),
the packet match run again after its open-event output came out too
short, scans cut by a small flit budget, and the scan's sparse path (a
generated window and fast-forward probes on 36 sources, at a threshold
just under its cutoff, so that blocks hold several candidates).  Then
the body's packed
event writes with every call's event buffers sized exactly at the
static bound: a lane-order window written lane after lane, a
cycle-order replay, a drain and one-cycle steps.  Those are the places
where the C sizes or copies its own buffers, so an off-by-one shows up
here as a sanitizer report instead of a quiet corruption.  The
override lives in the subprocess only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.kernels import cbackend

SANITIZED = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-omit-frame-pointer",
             "-shared", "-fPIC")

SCRIPT = textwrap.dedent(
    f"""
    from repro.kernels import cbackend
    cbackend.CFLAGS = {SANITIZED!r}

    import numpy as np

    from repro.engines import lane_views
    from repro.engines.batch import BatchEngine, drain_batched, run_batched
    from repro.engines.sequential import SequentialEngine
    from repro.kernels.batchlevel import CompiledBatchLevel
    from repro.noc import NetworkConfig, RouterConfig
    from repro.noc.flit import Flit, FlitType
    from repro.pipeline import run_pipeline
    from repro.stats.latency import PacketLatencyTracker
    from repro.traffic import stimuli
    from repro.traffic.generators import BernoulliBeTraffic, uniform_random
    from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver

    def torus(depth=2):
        return NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=depth))

    def drivers(engine, load, stall_limit=10_000):
        net = engine.cfg
        loads = load if isinstance(load, list) else [load] * engine.lanes
        return [
            TrafficDriver(view, be=BernoulliBeTraffic(net, loads[i], uniform_random(net),
                                                      seed=0xBEE + i),
                          stall_limit=stall_limit)
            for i, view in enumerate(lane_views(engine))
        ]

    # chunked, multi-lane: a short window, then longer ones whose event
    # buffers have to grow
    engine = BatchEngine(torus(), lanes=4, kernel="levelized")
    lanes = drivers(engine, 0.2)
    run_batched(engine, lanes, 20)
    run_batched(engine, lanes, 600)
    assert engine.kernel_seconds > 0
    drain_batched(engine, lanes)

    # the sequential engine's body: the HBR accounting pass, on one mask
    # word and on 72 routers (two words: the walk's shifts and popcounts
    # across a word edge and around the wrap)
    for net in (torus(), NetworkConfig(9, 8, topology="torus")):
        seq = SequentialEngine(net)
        (driver,) = drivers(seq, 0.1)
        driver.run(300)
        driver.drain()
        assert 0 < seq.kernel_hbr_evals < seq.metrics.total_deltas

    # a streamed run: every window on the fabric thread
    engine = BatchEngine(torus(), lanes=2, kernel="levelized")
    run_pipeline(engine, drivers(engine, 0.1), 300, chunk=64, threaded=True)

    # a stall-limit overload mid-chunk
    engine = BatchEngine(torus(depth=1), lanes=3, kernel="levelized")
    try:
        run_batched(engine, drivers(engine, 0.8, stall_limit=20), 2000)
    except NetworkOverloadError:
        pass
    else:
        raise AssertionError("no overload")

    # lane order: lanes 0-2 run the whole window, lane 3 overloads, and
    # the window is restored from the snapshot and replayed
    engine = BatchEngine(torus(depth=1), lanes=4, kernel="levelized")
    lanes = drivers(engine, [0.02] * 3 + [0.8], stall_limit=20)
    try:
        run_batched(engine, lanes, 100)
    except NetworkOverloadError:
        pass
    else:
        raise AssertionError("no overload")
    assert (engine.kernel_windows, engine.kernel_replays) == (1, 1)
    assert [d.overloaded for d in lanes] == [False] * 3 + [True]

    # repro_match: a window's open packets outnumber the largest part of
    # its log, so the first pass's open-event output is too short
    dw = torus().router.data_width
    tracker = PacketLatencyTracker(torus())
    opened = tracker.layout.pack(*np.array(
        [[cycle, router, vc, Flit(ftype, 0).encode(dw)]
         for cycle, ftype in enumerate((FlitType.HEAD, FlitType.BODY, FlitType.BODY))
         for router in range(5) for vc in range(2)], dtype=np.int64).T)
    assert tracker.kernel == "c"
    found = tracker._match(np.empty((3, 0), dtype=np.int64), np.empty((2, 0), dtype=np.int64),
                           np.empty((2, 0), dtype=np.int64), [],
                           [opened[:, lo : lo + 10] for lo in range(0, 30, 10)])
    assert np.array_equal(found[3], opened)

    # the scan's budget cut: windows of a few cycles, lanes that scanned
    # past a cut advanced back to it
    budget, stimuli.FLIT_BUDGET = stimuli.FLIT_BUDGET, 16
    engine = BatchEngine(torus(), lanes=4, kernel="levelized")
    run_batched(engine, drivers(engine, 0.1), 200)
    assert engine.kernel_windows > 20
    stimuli.FLIT_BUDGET = budget

    # the scan's sparse path, just under its cutoff: a generated window,
    # then fast-forward probes with a one-cycle window past each hit
    from repro.kernels.trafficgen import SPARSE_CUTOFF, BatchedBeGenerator
    engine = BatchEngine(NetworkConfig(6, 6, topology="torus"), lanes=3, kernel="levelized")
    scan = BatchedBeGenerator(drivers(engine, (SPARSE_CUTOFF - 1) / 2**32))
    start = scan.generate_window(0, 2000).stop
    assert start > 100
    for _ in range(20):
        start += scan.skip_idle(start, 50)
        start = scan.generate_window(start, start + 1).stop
    assert scan.probe_words > 0

    # every call's event buffers exactly at the static bound, fresh
    events = CompiledBatchLevel._events
    CompiledBatchLevel._events = lambda self, sent, ej: (
        self._event_pool.clear(), events(self, sent, ej))[1]
    engine = BatchEngine(torus(depth=1), lanes=4, kernel="levelized")
    lanes = drivers(engine, [0.05, 0.02, 0.05, 0.05], stall_limit=20)
    run_batched(engine, lanes, 150)  # lane order: each lane after the last
    assert engine.kernel_replays == 0
    lanes[3].be = BernoulliBeTraffic(engine.cfg, 0.9, uniform_random(engine.cfg), seed=3)
    try:  # the last lane overloads: the call is replayed in cycle order
        run_batched(engine, lanes, 300)
    except NetworkOverloadError:
        pass
    else:
        raise AssertionError("no overload")
    assert engine.kernel_replays == 1
    engine = BatchEngine(torus(), lanes=3, kernel="levelized")
    lanes = drivers(engine, 0.3)
    run_batched(engine, lanes, 100)
    engine.pre_step_hooks.append(lambda engine: None)  # one-cycle steps
    run_batched(engine, lanes, 30)
    engine.pre_step_hooks.clear()
    for driver in lanes:
        driver.be = None
    drain_batched(engine, lanes)  # the drain, in cycle order
    assert engine.kernel_drain_cycles > 0
    print("sanitized run ok")
    """
)


def _runtime(cc: str, name: str):
    proc = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True, text=True)
    path = proc.stdout.strip()
    return path if proc.returncode == 0 and os.path.isabs(path) and os.path.exists(path) else None


@pytest.mark.timeout(60)
def test_chunk_drain_hbr_stream_and_overload_run_clean(tmp_path):
    reason = cbackend.availability()
    if reason is not None:
        pytest.skip(reason)
    cc = cbackend._find_compiler()
    runtimes = [_runtime(cc, name) for name in ("libasan.so", "libubsan.so")]
    if None in runtimes:
        pytest.skip(f"{cc} has no ASan/UBSan runtime")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        REPRO_KERNEL_CACHE=str(tmp_path),
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=55
    )
    assert proc.returncode == 0 and "sanitized run ok" in proc.stdout, proc.stderr[-4000:]
    assert "runtime error" not in proc.stderr, proc.stderr[-4000:]
