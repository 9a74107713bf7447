"""Static-scheduled compiled kernels: the "10x the hot loop" layer.

Two cooperating pieces:

* :mod:`repro.kernels.levelize` — the **levelizer**: topologically level
  the router dependency graph (feedback arcs broken at the registered
  state boundary) into a static evaluation schedule, replacing
  delta-cycle fixed-point iteration with a bounded number of passes.
* :mod:`repro.kernels.batchlevel` — the **generated simulation body**:
  one specialized C function for the ``ArrayState`` batch cycle (one
  pure evaluation of the routers that hold something, one commit; one
  cycle or a whole chunk of cycles per call), compiled at first use by
  :mod:`repro.kernels.cbackend` and driven through cffi.  It is the
  only generated body: :mod:`repro.kernels.batchstep` binds it for the
  ``jit`` tier, ``kernel="levelized"`` once the levelizer has proved
  the schedule.  :mod:`repro.kernels.trafficgen` is
  the matching traffic scan.

Backend ladder, selected at import/construction time::

    cffi (generated C, compiled on demand)  ->  pure NumPy

The generated-C tier needs only ``cffi`` plus any C compiler
(``pip install repro[kernels]``), both probed lazily — at run time
``_cffi_backend`` alone: the ``cffi`` package parses declarations only
where a kernel is first built (:mod:`~repro.kernels.cbackend`).  When
either is missing every consumer degrades to the bit-identical NumPy
sweeps with a recorded reason, and the test suite passes either way
(skip-with-reason for the JIT-only cases).
``REPRO_KERNELS=auto|jit|numpy`` overrides the default selection;
explicit constructor arguments override the environment.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

__all__ = [
    "KernelUnavailableError",
    "kernel_versions",
    "probe_backends",
    "resolve_kernels_mode",
    "select_backend",
]

_MODES = ("auto", "jit", "numpy")

#: the one-warning latch of the degrade path (reset only by tests).
_warned_degrade = False


class KernelUnavailableError(RuntimeError):
    """A JIT kernel backend was required but cannot be provided."""


def probe_backends() -> Dict[str, str]:
    """Availability of every ladder tier, with reasons.

    Returns ``{backend: "ok" | "unavailable: <reason>"}``.
    """
    from repro.kernels import cbackend

    reason = cbackend.availability()
    return {
        "cffi": "ok" if reason is None else f"unavailable: {reason}",
        "numpy": "ok",
    }


def resolve_kernels_mode(mode: Optional[str]) -> str:
    """Normalise a ``kernels=`` argument against ``REPRO_KERNELS``.

    ``None``/``"auto"`` defer to the environment (which itself defaults
    to ``auto``); an explicit ``"jit"``/``"numpy"`` wins over the
    environment.  Unknown values raise ``ValueError``.
    """
    if mode is None or mode == "auto":
        mode = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"
    if mode not in _MODES:
        raise ValueError(f"unknown kernels mode {mode!r}; known: {_MODES}")
    return mode


def select_backend(mode: Optional[str]) -> str:
    """Pick the executing backend for a consumer: ``"cffi"`` or ``"numpy"``.

    ``jit`` raises :class:`KernelUnavailableError` when no JIT tier can
    run; ``auto`` degrades silently; ``numpy`` forces the fallback.
    """
    global _warned_degrade
    mode = resolve_kernels_mode(mode)
    if mode == "numpy":
        return "numpy"
    from repro.kernels import cbackend

    reason = cbackend.availability()
    if reason is None:
        return "cffi"
    if mode == "jit":
        raise KernelUnavailableError(
            "kernels='jit' requested but no JIT backend is available: " + reason
        )
    if not _warned_degrade:
        _warned_degrade = True
        warnings.warn(
            f"repro.kernels: no JIT backend available ({reason}); "
            "falling back to the reference NumPy kernels",
            RuntimeWarning,
            stacklevel=2,
        )
    return "numpy"


def kernel_versions() -> Dict[str, Optional[str]]:
    """Versions of the ladder's ingredients, for host fingerprints."""
    out: Dict[str, Optional[str]] = {}
    try:
        import cffi  # type: ignore

        out["cffi"] = getattr(cffi, "__version__", "unknown")
    except Exception:
        out["cffi"] = None
    from repro.kernels import cbackend

    out["cc"] = cbackend._find_compiler()
    return out
