"""The repo benchmark (``python3 -m bench``) keeps its grip on ``src/``.

``bench/`` is frozen for performance PRs, so what it reaches into —
the traced call sites and the kernel labels its workloads check — is
pinned here, where a refactor that moves them fails in tier 1.
"""

import os

from repro.engines import BatchEngine
from repro.experiments.common import fig1_network
from repro.kernels import probe_backends

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_trace_targets_resolve(monkeypatch):
    """The repo benchmark (``bench/``, which a perf PR may not edit)
    wraps ``owner.__dict__[name]`` of every entry of ``TARGETS``; an
    attribute that moved to a base class or vanished would leave the
    traced pass blind, so every target must resolve on its owner."""
    monkeypatch.syspath_prepend(REPO_ROOT)
    from bench import trace

    assert len(trace.TARGETS) >= 13
    for span, module, path, _note in trace.TARGETS:
        owner, name, current = trace.resolve(module, path)
        assert callable(current), (span, module, path)
        assert owner.__dict__[name] is current
    # the two tiers of the one generated body are traced under their own names
    from repro.kernels.batchlevel import CompiledBatchLevel
    from repro.kernels.batchstep import CompiledBatchStep

    assert issubclass(CompiledBatchStep, CompiledBatchLevel)
    assert "step" in vars(CompiledBatchStep)
    assert {"stage", "run_chunk"} <= set(vars(CompiledBatchLevel))
    # the two kernel labels bench/workloads.py refuses to run without:
    # be16_fused wants "levelized", the fig1 sweeps the default "jit"
    if probe_backends()["cffi"] == "ok":
        for requested, label in (("levelized", "levelized"), ("auto", "jit")):
            engine = BatchEngine(fig1_network(), lanes=2, kernel=requested)
            assert (engine.kernel, engine.kernel_reason) == (label, None)
            assert engine._compiled is not None
