"""Sweep fan-out: lanes or a process pool.

Every experiment sweep in this package (the Figure-1 load sweep, the
traffic-pattern sweep, multi-seed fault campaigns) is embarrassingly
parallel: each point is a pure function of an explicit, seeded
configuration, and the points share no state.  A sweep takes exactly
one decision: a wide homogeneous sweep rides the batch engine's lane
axis (:func:`lane_batchable`); everything else goes through
:func:`parallel_map`, which fans the points out over a stdlib
:class:`~concurrent.futures.ProcessPoolExecutor` while keeping the one
property the reproduction cannot give up — **determinism**: results
are returned in submission order, every worker input carries its own
seed, and nothing about the output depends on worker count or
completion order.  ``workers=1`` is a plain serial loop; a host that
cannot start a process, or a payload that cannot be pickled, runs the
points in-process with the same byte-identical results.  This module is
the only one that imports ``multiprocessing`` or ``concurrent.futures``,
and only inside :func:`parallel_map`.

The worker count resolves from, in order: the explicit ``workers``
argument, the ``REPRO_WORKERS`` environment variable, and
``os.cpu_count()``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: sweeps at least this wide default to the batch engine's lane axis
#: (one vectorized process) instead of pool workers; narrower sweeps
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
    is wide enough to amortise the batch engine's setup.
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




def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]``, fanned out over a process pool.

    * **Order-preserving**: result ``i`` corresponds to ``items[i]``
      regardless of which worker finished first.
    * **Deterministic**: ``fn`` must be a pure function of its item (all
      experiment points here are seeded), so the output is identical to
      the serial loop — the parallel-sweep tests assert byte equality.
    * **Degrades inline**: one worker or one item runs the plain loop;
      an unpicklable ``(fn, items)`` (lambda, closure) or a host that
      cannot start a process runs the points in-process, same results.
    * **A dead worker is not a hole**: the points whose worker died get
      one more pass on a fresh pool; dying again raises
      :class:`~concurrent.futures.process.BrokenProcessPool` naming them.
    * **Loud**: a point that raises is final, not retried; its own
      exception propagates, as from the serial loop.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items)) or 1
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    import pickle
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        pickle.dumps((fn, items))
    except (pickle.PicklingError, AttributeError, TypeError):  # lambda, closure
        return [fn(item) for item in items]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this host
        return [fn(item) for item in items]

    results = {}
    for _attempt in range(2):
        todo = [i for i in range(len(items)) if i not in results]
        try:
            pool = ProcessPoolExecutor(min(workers, len(todo)), mp_context=context)
        except (OSError, ImportError, NotImplementedError):  # no pipes, semaphores
            break
        try:
            futures = {}
            try:  # the first submit forks the workers
                for i in todo:
                    futures[i] = pool.submit(fn, items[i])
            except BrokenProcessPool:  # a worker died while points were queued
                pass
            except (OSError, ImportError):  # the host refused the fork
                break
            for i, future in futures.items():
                try:
                    results[i] = future.result()
                except BrokenProcessPool:  # its worker died: one more pass
                    pass
        finally:
            pool.shutdown(cancel_futures=True)
        if len(results) == len(items):
            return [results[i] for i in range(len(items))]
    else:
        missing = [i for i in range(len(items)) if i not in results]
        raise BrokenProcessPool(
            f"worker processes died twice running sweep points {missing}"
        )
    return [results[i] if i in results else fn(items[i]) for i in range(len(items))]
