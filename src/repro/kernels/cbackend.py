"""Generated-C backend: compile, cache and load the generated kernels.

:class:`KernelSpec` names the compile-time constants a simulation body
is specialized for (ports, VCs, queue depth bound, flit field layout);
the body itself is generated by :mod:`repro.kernels.batchlevel`, the
traffic scan by :mod:`repro.kernels.trafficgen`, and both come through
:func:`load_source`.

Compilation is on demand and cached on disk: the source is hashed, the
shared object lands in ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``), and later processes dlopen the cached
``.so`` without invoking the compiler again.  Everything degrades with
a reason instead of an exception: no cffi, no C compiler, or a failing
compile all surface through :func:`availability` /
:class:`~repro.kernels.KernelUnavailableError` and the callers fall
back to the bit-identical NumPy sweeps.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

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
    #: whether the body carries the HBR delta-accounting pass
    hbr: bool = False

    @classmethod
    def from_engine(cls, engine) -> "KernelSpec":
        return cls(
            n_ports=engine._P,
            n_vcs=engine._V,
            n_queues=engine._NQ,
            depth_max=int(engine.state.mem.shape[-1]),
            data_width=engine._dw,
            gt_mask=engine._gt_mask,
            hbr=engine.HBR_ACCOUNTING,
        )

    @property
    def vc_shift(self) -> int:
        return self.data_width + 2


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def availability() -> Optional[str]:
    """``None`` when the generated-C tier can run, else the reason not."""
    try:
        import cffi  # type: ignore  # noqa: F401
    except Exception:
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


_FFI_CACHE: Dict[str, object] = {}


def _ffi_for(cdef: str):
    ffi = _FFI_CACHE.get(cdef)
    if ffi is None:
        import cffi  # type: ignore

        ffi = cffi.FFI()
        ffi.cdef(cdef)
        _FFI_CACHE[cdef] = ffi
    return ffi


def _build(source: str, so_path: str, cc: str) -> None:
    """Compile ``source`` into ``so_path`` (atomic against racers)."""
    directory = os.path.dirname(so_path)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
    try:
        with os.fdopen(fd, "w") as stream:
            stream.write(source)
        tmp_so = c_path[:-2] + ".so"
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
        for path in (c_path, c_path[:-2] + ".so"):
            try:
                os.unlink(path)
            except OSError:
                pass


_LIB_CACHE: Dict[str, object] = {}


def load_source(source: str, cdef: str):
    """Compile, disk-cache and dlopen one generated C translation unit.

    The shared entry point for every generated kernel (the simulation
    body, the traffic generator): availability-gated, hashed over compiler +
    flags + source, atomic against concurrent builders.  Raises
    :class:`~repro.kernels.KernelUnavailableError` when the tier cannot
    run or the compile fails.
    """
    reason = availability()
    if reason is not None:
        raise KernelUnavailableError(reason)
    cc = _find_compiler()
    key = hashlib.sha256(
        "\x00".join((cc or "", " ".join(CFLAGS), source, cdef)).encode()
    ).hexdigest()[:24]
    cached = _LIB_CACHE.get(key)
    if cached is not None:
        return cached
    so_path = os.path.join(cache_dir(), f"repro-kernel-{key}.so")
    if not os.path.exists(so_path):
        _build(source, so_path, cc)
    ffi = _ffi_for(cdef)
    try:
        lib = ffi.dlopen(so_path)
    except OSError:
        # A stale or truncated cache entry: rebuild once.
        try:
            os.unlink(so_path)
        except OSError:
            pass
        _build(source, so_path, cc)
        lib = ffi.dlopen(so_path)
    _LIB_CACHE[key] = lib
    return lib
