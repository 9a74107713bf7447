"""The kernel cache: a ``.so`` per build key, a binding module per ``cdef``.

A warm-cache process binds a compiled engine through cffi's pre-parsed
out-of-line module and never imports ``cffi.cparser`` / ``pycparser``;
the builder that first meets a ``cdef`` emits the module, atomically;
a damaged entry of either kind is rebuilt once; a cache directory that
cannot take the files degrades to the NumPy sweeps with the reason
(DESIGN section "kernel cache").
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.engines import BatchEngine
from repro.engines.batch import drain_batched, run_batched
from repro.kernels import KernelUnavailableError, cbackend

from tests.test_batch_levelized import full_digest, make_drivers, needs_jit, torus

pytestmark = needs_jit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: builds the levelized engine and the batched traffic scan, then says
#: what that imported and what the cache holds
CHILD = textwrap.dedent(
    """
    import json, os, sys
    from repro.engines import BatchEngine
    from repro.experiments.common import fig1_network
    from repro.kernels.trafficgen import BatchedBeGenerator, batched_be_generator
    from repro.traffic import BernoulliBeTraffic, TrafficDriver, uniform_random

    net = fig1_network()
    engine = BatchEngine(net, lanes=2, kernel="levelized")
    drivers = [
        TrafficDriver(engine.lane(i), be=BernoulliBeTraffic(net, 0.05, uniform_random(net), seed=3))
        for i in range(2)
    ]
    generator, reason = batched_be_generator(drivers)
    assert isinstance(generator, BatchedBeGenerator), reason
    cache = os.environ["REPRO_KERNEL_CACHE"]
    print(json.dumps({
        "kernel": [engine.kernel, engine.kernel_reason],
        "parsers": [m for m in ("cffi.cparser", "pycparser") if m in sys.modules],
        "files": {name: os.stat(os.path.join(cache, name)).st_mtime_ns
                  for name in sorted(os.listdir(cache))},
    }))
    """
)


#: the Fig. 1 sweep at 1/20 size, then the modules it could do without
FIG1_CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.experiments.common import run_fig1_workloads_batched

    points = run_fig1_workloads_batched([0.0, 0.04, 0.08, 0.14], 100, gt_period=65)
    assert len(points) == 4 and all(point.be_packets or not point.be_load for point in points)
    print(json.dumps([m for m in ("numpy.ma", "cffi.cparser", "pycparser") if m in sys.modules]))
    """
)


def spawn(cache, code=CHILD):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(REPRO_KERNEL_CACHE=str(cache), PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
    )


def finish(child):
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0
    return json.loads(out)


def kinds(files):
    return sorted(name.split("-")[1] + os.path.splitext(name)[1] for name in files)


class TestWarmBind:
    def test_cold_emits_warm_reuses_and_never_parses(self, tmp_path):
        cold = finish(spawn(tmp_path))
        assert cold["kernel"] == ["levelized", None]
        assert cold["parsers"] == ["cffi.cparser", "pycparser"]  # the builder's
        # two translation units, two distinct cdefs; no temporary left
        assert kinds(cold["files"]) == ["binding.py", "binding.py", "kernel.so", "kernel.so"]
        warm = finish(spawn(tmp_path))
        assert warm["kernel"] == ["levelized", None]
        assert warm["parsers"] == []
        assert warm["files"] == cold["files"]  # same names, mtimes unchanged

    def test_fig1_sweep_imports_no_parser_and_no_masked_arrays(self, tmp_path):
        """The timed region of Fig. 1 holds simulation only: a warm bind
        parses nothing, and the latency tracker and the NumPy sweeps
        group keys without ``np.unique`` (whose first call imports
        ``numpy.ma``)."""
        finish(spawn(tmp_path, FIG1_CHILD))  # warms the cache
        assert finish(spawn(tmp_path, FIG1_CHILD)) == []

    def test_racing_builders_leave_one_intact_file_each(self, tmp_path):
        racers = [spawn(tmp_path) for _ in range(3)]
        reports = [finish(child) for child in racers]
        assert all(report["kernel"] == ["levelized", None] for report in reports)
        after = finish(spawn(tmp_path))
        assert kinds(after["files"]) == ["binding.py", "binding.py", "kernel.so", "kernel.so"]
        assert after["parsers"] == []  # every file loads as it stands


#: one tiny translation unit per use, so no test meets another's entry
PROBE_CDEF = "int64_t repro_probe(int64_t x);"


def probe_source(tag):
    return f"#include <stdint.h>\n/* {tag} */\nint64_t repro_probe(int64_t x) {{ return x + 1; }}\n"


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory and no in-process entry."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(cbackend, "_LIB_CACHE", {})
    return tmp_path


def count_calls(monkeypatch, name):
    calls, real = [], getattr(cbackend, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cbackend, name, counted)
    return calls


class TestRegenerateOnce:
    def test_load_source_hands_back_the_library_and_its_ffi(self, cache):
        lib, ffi = cbackend.load_source(probe_source("pair"), PROBE_CDEF)
        assert lib.repro_probe(41) == 42
        assert ffi.cast("int64_t", 7) == ffi.cast("int64_t", 7) and ffi.NULL == ffi.NULL
        assert cbackend.load_source(probe_source("pair"), PROBE_CDEF) == (lib, ffi)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda text: text[: len(text) // 2],  # truncated mid-literal
            lambda text: text + "\n)\n",  # a syntax error
            lambda text: "",  # no `ffi` in it at all
            lambda text: text.replace("_version = 0x", "_version = 0x7"),  # a foreign cffi
        ],
        ids=["truncated", "syntax-error", "empty", "rejected-version"],
    )
    def test_a_damaged_binding_is_regenerated_once(self, cache, monkeypatch, damage):
        cbackend.load_source(probe_source("damage"), PROBE_CDEF)
        (binding,) = cache.glob("repro-binding-*.py")
        good = binding.read_text()
        assert damage(good) != good
        binding.write_text(damage(good))
        cbackend._LIB_CACHE.clear()
        emits, builds = count_calls(monkeypatch, "_emit_binding"), count_calls(monkeypatch, "_build")
        lib, _ = cbackend.load_source(probe_source("damage"), PROBE_CDEF)
        assert lib.repro_probe(1) == 2
        assert len(emits) == 1 and builds == [] and binding.read_text() == good
        # intact again: the next bind regenerates nothing
        cbackend._LIB_CACHE.clear()
        cbackend.load_source(probe_source("damage"), PROBE_CDEF)
        assert len(emits) == 1

    def test_a_damaged_shared_object_is_rebuilt_once(self, cache, monkeypatch):
        cbackend.load_source(probe_source("so"), PROBE_CDEF)
        (so,) = cache.glob("repro-kernel-*.so")
        stump = so.read_bytes()[:100]
        so.unlink()  # a new file: the old one is still mapped in this process
        so.write_bytes(stump)
        cbackend._LIB_CACHE.clear()
        emits, builds = count_calls(monkeypatch, "_emit_binding"), count_calls(monkeypatch, "_build")
        lib, _ = cbackend.load_source(probe_source("so"), PROBE_CDEF)
        assert lib.repro_probe(1) == 2 and len(builds) == 1 and emits == []

    def test_one_binding_serves_every_source_of_a_cdef(self, cache, monkeypatch):
        emits = count_calls(monkeypatch, "_emit_binding")
        for tag in ("a", "b"):
            cbackend.load_source(probe_source(tag), PROBE_CDEF)
        assert len(emits) == 1
        assert len(list(cache.glob("repro-kernel-*.so"))) == 2
        assert len(list(cache.glob("repro-binding-*.py"))) == 1
        assert not [p for p in cache.iterdir() if p.name.startswith("tmp")]


class TestDegrade:
    def test_only_generating_a_binding_needs_the_cffi_package(self, cache, monkeypatch):
        assert cbackend.availability() is None
        monkeypatch.setitem(sys.modules, "cffi", None)  # `import cffi` fails
        assert cbackend.availability() is None  # _cffi_backend is there
        with pytest.raises(KernelUnavailableError) as err:
            cbackend.load_source(probe_source("nocffi"), PROBE_CDEF)
        assert "the cffi package is needed to generate the kernel binding" in str(err.value)
        assert list(cache.iterdir()) == []
        monkeypatch.delitem(sys.modules, "cffi")
        cbackend.load_source(probe_source("nocffi"), PROBE_CDEF)
        cbackend._LIB_CACHE.clear()
        monkeypatch.setitem(sys.modules, "cffi", None)
        lib, _ = cbackend.load_source(probe_source("nocffi"), PROBE_CDEF)  # warm: binds
        assert lib.repro_probe(2) == 3

    @pytest.mark.parametrize("how", ["below-a-file", "read-only"])
    def test_an_unusable_cache_falls_back_to_numpy_with_the_reason(
        self, tmp_path, monkeypatch, how
    ):
        if how == "read-only":
            target = tmp_path / "cache"
            target.mkdir()
            target.chmod(0o555)
            if os.access(target, os.W_OK):
                pytest.skip("this user writes through permission bits")
        else:
            (tmp_path / "file").write_text("")
            target = tmp_path / "file" / "cache"
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(target))
        monkeypatch.setattr(cbackend, "_LIB_CACHE", {})
        with pytest.raises(KernelUnavailableError, match="the kernel cache is unusable: "):
            BatchEngine(torus(), lanes=2, kernel="jit")
        digests = []
        for kernel in ("auto", "python"):
            engine = BatchEngine(torus(), lanes=2, kernel=kernel)
            assert engine.kernel == "python" and engine._compiled is None
            drivers = make_drivers(engine, 0.1)
            run_batched(engine, drivers, 120)
            for driver in drivers:
                driver.be = None
            digests.append((drain_batched(engine, drivers), full_digest(engine, drivers)))
            if kernel == "auto":
                assert engine.kernel_reason.startswith("the kernel cache is unusable: ")
                assert str(target) in engine.kernel_reason
        assert digests[0] == digests[1]
