"""Shared test configuration: a per-test timeout.

A livelocked simulation loop (the very failure mode the convergence
watchdog exists for) must not hang the whole suite.  If the
``pytest-timeout`` plugin is installed we defer to it; otherwise a
minimal SIGALRM-based equivalent enforces the same budget on platforms
that support it.  Either way a hung test dies with a traceback instead
of stalling CI.
"""

from __future__ import annotations

import os
import signal
import sys

import pytest

#: per-test wall-clock budget in seconds.  Generous: the slowest
#: legitimate tests (scale/equivalence sweeps, the fault campaign) run
#: in well under a minute; only a genuine hang exceeds this.
TEST_TIMEOUT_SECONDS = 300

try:  # defer to the real plugin when available
    import pytest_timeout  # noqa: F401

    _HAVE_PLUGIN = True
except ImportError:
    _HAVE_PLUGIN = False

_HAVE_SIGALRM = hasattr(signal, "SIGALRM")


@pytest.fixture(scope="session", autouse=True)
def _isolated_kernel_cache(tmp_path_factory):
    """Point the generated-C kernel disk cache at a per-session scratch
    directory (swept by pytest's tmp-dir retention), so test runs never
    read stale ``.so`` files from — or leak freshly built ones into —
    the user's ``~/.cache/repro-kernels``.  An explicit
    ``REPRO_KERNEL_CACHE`` (say, a warmed CI cache) is respected."""
    if os.environ.get("REPRO_KERNEL_CACHE"):
        yield
        return
    path = tmp_path_factory.mktemp("repro-kernels")
    os.environ["REPRO_KERNEL_CACHE"] = str(path)
    try:
        yield
    finally:
        os.environ.pop("REPRO_KERNEL_CACHE", None)


@pytest.fixture
def no_cc(monkeypatch):
    """A host without a C compiler: ``cbackend._find_compiler`` finds
    none, so every consumer of the generated-C tier takes its degraded
    path (or raises, where ``jit`` / ``levelized`` was asked for).  The
    batch engine's one degrade warning counts as given: it has a test of
    its own.  The process's memoized probe is dropped on the way out, so
    the next test probes the host afresh."""
    import repro.engines.batch as batch
    from repro.kernels import cbackend

    monkeypatch.setattr(cbackend, "_find_compiler", lambda: None)
    monkeypatch.setattr(batch, "_warned_degrade", True)
    yield
    cbackend._probe_compiler.cache_clear()


@pytest.fixture(autouse=True)
def _no_pipeline_leaks():
    """Every test must leave the streaming pipeline and every worker
    process torn down: no fabric thread, let alone a chunk-body job on it,
    and no live child process (a sweep's pool left running).  The lazy
    lookups keep this free for the tests that never start either."""
    yield
    batchlevel = sys.modules.get("repro.kernels.batchlevel")
    if batchlevel is not None:
        assert not batchlevel.jobs_in_flight(), "a fabric job is still in flight"
        assert not batchlevel.fabric_threads(), "a fabric thread is still running"
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        children = multiprocessing.active_children()
        assert children == [], f"leaked worker processes: {children}"


def pytest_collection_modifyitems(config, items):
    if _HAVE_PLUGIN:
        for item in items:
            if item.get_closest_marker("timeout") is None:
                item.add_marker(pytest.mark.timeout(TEST_TIMEOUT_SECONDS))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _HAVE_PLUGIN or not _HAVE_SIGALRM:
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT_SECONDS}s per-test timeout "
            "(likely a livelocked simulation loop)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
