"""Compiled kernels: the "10x the hot loop" layer.

* :mod:`repro.kernels.batchlevel` — the **generated simulation body**:
  one specialized C function for the ``ArrayState`` batch cycle (one
  pure evaluation of the routers that hold something, one commit; one
  cycle or a whole chunk of cycles per call), compiled at first use by
  :mod:`repro.kernels.cbackend` and driven through cffi.  It is the
  only generated body; ``kernel="levelized"`` and ``kernel="jit"`` are
  two labels for it (:mod:`repro.kernels.batchstep` is the ``jit``
  binding).  Evaluation reads committed state only, so any router order
  is a valid order and no schedule is computed or carried.
* :mod:`repro.kernels.trafficgen` — the matching traffic scan.

Which body runs depends on two things only: the consumer's ``kernel=``
argument and :func:`repro.kernels.cbackend.availability` (``cffi`` plus
any C compiler, ``pip install repro[kernels]``).  Without them ``auto``
falls back to the consumer's bit-identical reference with the reason
recorded, and ``jit`` / ``levelized`` raise :class:`KernelUnavailableError`.
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "KernelUnavailableError",
    "kernel_versions",
    "probe_backends",
]


class KernelUnavailableError(RuntimeError):
    """A JIT kernel backend was required but cannot be provided."""


def probe_backends() -> Dict[str, str]:
    """Availability of every execution body, with reasons.

    Returns ``{backend: "ok" | "unavailable: <reason>"}``.
    """
    from repro.kernels import cbackend

    reason = cbackend.availability()
    return {
        "cffi": "ok" if reason is None else f"unavailable: {reason}",
        "numpy": "ok",
    }


def kernel_versions() -> Dict[str, Optional[str]]:
    """Versions of the generated-C body's ingredients, for host
    fingerprints."""
    out: Dict[str, Optional[str]] = {}
    try:
        import cffi  # type: ignore

        out["cffi"] = getattr(cffi, "__version__", "unknown")
    except Exception:
        out["cffi"] = None
    from repro.kernels import cbackend

    out["cc"] = cbackend._find_compiler()
    return out
