"""The generated C under AddressSanitizer and UndefinedBehaviorSanitizer.

A short subprocess rebuilds both generated units — the simulation body
and the stimuli kernel — with ``-fsanitize=address,undefined`` into a
private kernel cache and drives their main call shapes: a multi-lane
chunked run whose event buffers regrow, a drain, the sequential
engine's HBR body, a threaded streamed run (scan, staging, carry-over
and the packet match included) and a stall-limit overload.  Those are the places where the C sizes its own buffers, so an
off-by-one shows up here as a sanitizer report instead of a quiet
corruption.  The override lives in the subprocess only.
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

    from repro.engines import lane_views
    from repro.engines.batch import BatchEngine, drain_batched, run_batched
    from repro.engines.sequential import SequentialEngine
    from repro.noc import NetworkConfig, RouterConfig
    from repro.pipeline import run_pipeline
    from repro.traffic.generators import BernoulliBeTraffic, uniform_random
    from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver

    def torus(depth=2):
        return NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=depth))

    def drivers(engine, load, stall_limit=10_000):
        net = engine.cfg
        return [
            TrafficDriver(view, be=BernoulliBeTraffic(net, load, uniform_random(net),
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

    # the sequential engine's body: the HBR accounting pass
    seq = SequentialEngine(torus())
    (driver,) = drivers(seq, 0.1)
    driver.run(300)
    driver.drain()
    assert seq.metrics.total_deltas > 0

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
