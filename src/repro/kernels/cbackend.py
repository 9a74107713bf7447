"""Generated-C backend: compile, cache and load the generated kernels.

:class:`KernelSpec` names the compile-time constants a simulation body
is specialized for (ports, VCs, queue depth bound, flit field layout);
the body itself is generated by :mod:`repro.kernels.batchlevel`, the
traffic scan by :mod:`repro.kernels.trafficgen`, and both come through
:func:`load_source`.

Compilation is on demand and cached on disk: the source is hashed, the
shared object lands in ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``), and later processes dlopen the cached
``.so`` without invoking the compiler again.  Beside it the cache holds
the **binding module** of each distinct ``cdef``: cffi's pre-parsed
form of the declarations (out-of-line ABI mode, a KB or so of Python
that needs only ``_cffi_backend``), so a warm-cache process never
imports ``cffi.cparser`` / ``pycparser`` or parses a declaration;
``import cffi`` survives only in :func:`_emit_binding`.  Both files are
executed from the cache directory, so they carry the same trust; one
that fails to load is rebuilt once.  No cffi, no C compiler, a failing
compile or an unusable cache directory all surface through
:func:`availability` / :class:`~repro.kernels.KernelUnavailableError`:
a consumer asked for ``auto`` falls back to its bit-identical reference
with the reason, one asked for ``jit`` or ``levelized`` raises it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.kernels import KernelUnavailableError

__all__ = [
    "KernelSpec",
    "availability",
    "cache_dir",
    "load_source",
]

#: compiler flags every generated kernel is built with (part of the
#: disk-cache key, so changing them rebuilds).
CFLAGS = ("-O2", "-shared", "-fPIC")


@dataclass(frozen=True)
class KernelSpec:
    """The compile-time constants one kernel build is specialized for."""

    n_ports: int
    n_vcs: int
    n_queues: int
    depth_max: int
    data_width: int
    gt_mask: int
    #: the mask words a lane of the HBR delta-accounting pass, one bit a
    #: router (``ceil(R / 64)``); 0: the body carries no pass.  The one
    #: constant of a fabric's size: a kernel with the pass serves every
    #: fabric of as many mask words, one without it every fabric.
    hbr: int = 0

    @classmethod
    def from_engine(cls, engine) -> "KernelSpec":
        return cls(
            n_ports=engine._P,
            n_vcs=engine._V,
            n_queues=engine._NQ,
            depth_max=int(engine.state.mem.shape[-1]),
            data_width=engine._dw,
            gt_mask=engine._gt_mask,
            hbr=-(-engine.cfg.n_routers // 64) if engine.HBR_ACCOUNTING else 0,
        )

    @property
    def vc_shift(self) -> int:
        return self.data_width + 2


def _find_compiler() -> Optional[str]:
    """The C compiler: ``$CC`` where it names one, else the first of
    ``cc``, ``gcc``, ``clang`` on ``$PATH`` — probed once a process for
    each value of the two."""
    return _probe_compiler(os.environ.get("CC"), os.environ.get("PATH"))


@functools.lru_cache(maxsize=8)
def _probe_compiler(cc: Optional[str], path: Optional[str]) -> Optional[str]:
    if cc and shutil.which(cc, path=path):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate, path=path):
            return candidate
    return None


def availability() -> Optional[str]:
    """``None`` when the generated-C tier can run, else the reason not.
    Running needs cffi's backend module only; the ``cffi`` package is
    asked for where a binding has to be generated."""
    try:
        import _cffi_backend  # type: ignore  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    if _find_compiler() is None:
        return "no C compiler found (set $CC or install cc/gcc/clang)"
    return None


def cache_dir() -> str:
    path = os.environ.get("REPRO_KERNEL_CACHE")
    if not path:
        path = os.path.join(
            os.path.expanduser("~"), ".cache", "repro-kernels"
        )
    os.makedirs(path, exist_ok=True)
    return path


def _atomic(path: str, suffix: str):
    """An open temporary file beside ``path`` (same directory, so the
    ``os.replace`` that publishes it is atomic against racers)."""
    fd, tmp = tempfile.mkstemp(suffix=suffix, dir=os.path.dirname(path))
    return os.fdopen(fd, "w"), tmp


def _unlink(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


def _emit_binding(cdef: str, py_path: str) -> None:
    """Parse ``cdef`` and write its out-of-line binding module to
    ``py_path`` — the one place that needs the ``cffi`` package (and,
    through it, ``pycparser``)."""
    try:
        import cffi  # type: ignore
    except ImportError:
        raise KernelUnavailableError(
            f"the cffi package is needed to generate the kernel binding "
            f"{py_path} (only its _cffi_backend module is installed)"
        ) from None
    ffi = cffi.FFI()
    ffi.cdef(cdef)
    ffi.set_source("repro_kernel_binding", None, compiler_verbose=0)
    stream, tmp = _atomic(py_path, ".py")
    try:
        with stream:
            ffi.emit_python_code(stream)
        os.replace(tmp, py_path)
    finally:
        _unlink(tmp)


def _load_binding(py_path: str):
    """The ``ffi`` of the binding module at ``py_path`` (executed, like
    the ``.so`` beside it; nothing is parsed)."""
    namespace: Dict[str, object] = {}
    with open(py_path) as stream:
        exec(compile(stream.read(), py_path, "exec"), namespace)
    return namespace["ffi"]


def _build(source: str, so_path: str, cc: str) -> None:
    """Compile ``source`` into ``so_path`` (atomic against racers)."""
    stream, c_path = _atomic(so_path, ".c")
    tmp_so = c_path[:-2] + ".so"
    try:
        with stream:
            stream.write(source)
        cmd = [cc, *CFLAGS, c_path, "-o", tmp_so]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise KernelUnavailableError(
                f"kernel compile failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp_so, so_path)
    finally:
        _unlink(c_path, tmp_so)


#: ``(lib, ffi)`` of every unit this process loaded, by compiler, source
#: and ``cdef``.
_LIB_CACHE: Dict[Tuple[Optional[str], str, str], Tuple[object, object]] = {}


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()[:24]


def _once_more(load, path: str, rebuild, *errors):
    """``load(path)``; a cache entry that fails with one of ``errors``
    (stale, truncated, foreign) is rebuilt once and loaded again."""
    if os.path.exists(path):
        try:
            return load(path)
        except errors:
            _unlink(path)
    rebuild(path)
    return load(path)


def load_source(source: str, cdef: str):
    """Compile, disk-cache and dlopen one generated C translation unit;
    returns ``(lib, ffi)``.

    The shared entry point for every generated kernel (the simulation
    body, the traffic generator): availability-gated, the ``.so`` hashed
    over compiler + flags + source + ``cdef`` and the binding module
    over the ``cdef``, both atomic against concurrent builders.  Raises
    :class:`~repro.kernels.KernelUnavailableError` when the tier cannot
    run, the compile fails or the cache directory cannot take the files.
    """
    reason = availability()
    if reason is not None:
        raise KernelUnavailableError(reason)
    cc = _find_compiler()
    cached = _LIB_CACHE.get((cc, source, cdef))
    if cached is not None:
        return cached
    key = _digest(cc or "", " ".join(CFLAGS), source, cdef)
    try:
        directory = cache_dir()
        ffi = _once_more(
            _load_binding,
            os.path.join(directory, f"repro-binding-{_digest(cdef)}.py"),
            lambda path: _emit_binding(cdef, path),
            Exception,  # whatever executing a damaged module raises
        )
        lib = _once_more(
            ffi.dlopen,
            os.path.join(directory, f"repro-kernel-{key}.so"),
            lambda path: _build(source, path, cc),
            OSError,
        )
    except OSError as exc:
        raise KernelUnavailableError(f"the kernel cache is unusable: {exc}") from exc
    _LIB_CACHE[cc, source, cdef] = lib, ffi
    return lib, ffi
