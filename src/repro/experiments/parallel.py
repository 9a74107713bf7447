"""Sweep fan-out: lanes or supervised farm workers.

Every experiment sweep in this package (the Figure-1 load sweep, the
traffic-pattern sweep, multi-seed fault campaigns) is embarrassingly
parallel: each point is a pure function of an explicit, seeded
configuration, and the points share no state.  A sweep takes exactly
one decision: a wide homogeneous sweep rides the batch engine's lane
axis (:func:`lane_batchable`); everything else goes through
:func:`parallel_map`, which fans the points out over supervised farm
workers (:func:`repro.farm.client.farm_map`) while keeping the one
property the reproduction cannot give up — **determinism**: results
are returned in submission order, every worker input carries its own
seed, and nothing about the output depends on worker count or
completion order.  ``workers=1`` is a plain serial loop; a host that
cannot spawn processes, or a payload that cannot be pickled, ends in
the same byte-identical results through the farm's ``processes ->
inline`` ladder — the only degradation ladder there is.

The worker count resolves from, in order: the explicit ``workers``
argument, the ``REPRO_WORKERS`` environment variable, and
``os.cpu_count()``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: sweeps at least this wide default to the batch engine's lane axis
#: (one vectorized process) instead of farm workers; narrower sweeps
#: stay on the process path, where the per-point cost dominates.
LANE_BATCH_THRESHOLD = 4


def lane_batchable(n_points: int, workers: Optional[int] = None) -> bool:
    """Whether a sweep should run on the batch engine's lane axis.

    Lane batching replaces the worker processes with a single
    :class:`repro.engines.BatchEngine` carrying one sweep point per
    lane — every lane is bit-identical to the sequential engine, so the
    numbers do not change, only the wall-clock.  It is chosen
    automatically only when the caller did not pin a worker count
    (an explicit ``workers=`` keeps the historical process path, which
    the serial-vs-parallel byte-equality tests rely on) and the sweep
    is wide enough to amortise the vectorized sweep setup.
    """
    return workers is None and n_points >= LANE_BATCH_THRESHOLD


def resolve_workers(workers: Optional[int] = None) -> int:
    """The worker count to use: argument > $REPRO_WORKERS > cpu_count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer worker count, got {env!r}"
                ) from None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, workers)


@contextmanager
def sweep_stage(profiler, **counts: int):
    """Account one sweep in ``profiler`` (a
    :class:`repro.platform.profiler.StageProfiler`, or ``None`` for a
    no-op): bump the given counters, time the body under ``"sweep"``."""
    if profiler is None:
        yield
        return
    for name, n in counts.items():
        profiler.count(name, n)
    with profiler.stage("sweep"):
        yield


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
    profiler=None,
) -> List[R]:
    """``[fn(x) for x in items]``, fanned out over farm workers.

    * **Order-preserving**: result ``i`` corresponds to ``items[i]``
      regardless of which worker finished first.
    * **Deterministic**: ``fn`` must be a pure function of its item (all
      experiment points here are seeded), so the output is identical to
      the serial loop — the parallel-sweep tests assert byte equality.
    * **Supervised**: with more than one worker and more than one item
      the points run under :func:`repro.farm.client.farm_map` — a
      killed or hung worker is replaced and its point retried; no
      process spawning, or an unpicklable ``fn`` (lambda, closure),
      degrades to in-process execution with the same results.
    * **Loud**: a point that raises is a real experiment failure.  The
      serial loop propagates it as is; from a worker it arrives as
      :class:`repro.farm.FarmJobError` quoting ``TypeName: message``.

    ``profiler``, when given, is a
    :class:`repro.platform.profiler.StageProfiler`; the sweep records
    wall-clock under stage ``"sweep"`` and counts points and workers.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items)) or 1
    with sweep_stage(profiler, points=len(items), workers=workers):
        if workers <= 1:
            return [fn(item) for item in items]
        from repro.farm.client import farm_map

        return farm_map(fn, items, workers=workers)
