"""Spans around the simulator's public entry points, from outside.

``Tracer.install`` replaces each attribute of ``TARGETS`` with a timing
wrapper and ``restore`` puts the originals back (and verifies it did).  A
span is ``(id, parent id, thread, name, start, end, count)``; spans stay in
memory until the run is over.  A layer's self time is its spans' duration
minus what their same-thread child spans cover, so the self times of one
thread add up to the root span: nothing is counted twice.

Only the traced pass uses this; end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench.run"


def _note_run_batched(seen: Dict, args: Tuple) -> int:
    seen["engine"], seen["drivers"] = args[0], args[1]
    return args[2]


def _note_engine(seen: Dict, args: Tuple) -> int:
    seen["engine"] = args[0]
    return 0


def _chunk_cycles(seen: Dict, args: Tuple) -> int:
    return args[2]


#: (span name, module, attribute path, note).  ``note(seen, args)`` returns
#: the span's count and may remember an argument the workload cannot reach
#: (the Fig. 1 sweeps build their engine internally).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("engines.run_batched", "repro.engines.batch", "run_batched", _note_run_batched),
    ("engines.drain", "repro.engines.batch", "drain_batched", None),
    ("engines.step", "repro.engines.batch", "BatchEngine.step", _note_engine),
    ("kernels.genwin", "repro.kernels.trafficgen", "BatchedBeGenerator.generate_window", None),
    ("kernels.stage", "repro.kernels.batchlevel", "CompiledBatchLevel.stage", None),
    ("kernels.run_chunk", "repro.kernels.batchlevel", "CompiledBatchLevel.run_chunk", _chunk_cycles),
    ("kernels.step", "repro.kernels.batchstep", "CompiledBatchStep.step", None),
    ("traffic.lfsr_jump", "repro.traffic.rng", "HardwareLfsr.jump", None),
    ("traffic.generate", "repro.traffic.stimuli", "TrafficDriver.generate", None),
    ("traffic.pump", "repro.traffic.stimuli", "TrafficDriver.pump", None),
    ("seqsim.step", "repro.seqsim.sequential", "SequentialNetwork.step", None),
    ("stats.collect", "repro.stats.latency", "PacketLatencyTracker.collect", None),
    ("stats.collect", "repro.stats.latency", "PacketLatencyTracker.collect_records", None),
)


def resolve(module: str, path: str):
    """``(owner, attribute name, current object)`` of one target."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        #: arguments remembered by the ``note`` functions.
        self.seen: Dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patched: List[Tuple] = []  # (owner, name, original, wrapper)
        self.restored = False

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, span_name: str, fn: Callable, note: Optional[Callable]):
        spans, seen, local = self.spans, self.seen, self._local
        next_id, clock, ident = self._ids.__next__, time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                # a stage thread's first span hangs off the root span
                stack = local.stack = [self._root]
            span_id = next_id()
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = note(seen, args) if note is not None else 0
                spans.append((span_id, parent, ident(), span_name, start, end, count))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for span_name, module, path, note in TARGETS:
            owner, name, original = resolve(module, path)
            wrapper = self._wrap(span_name, original, note)
            self._patched.append((owner, name, original, wrapper))
            setattr(owner, name, wrapper)
            if "." not in path:
                # a module-level function: other repro modules hold it by name
                for alias in _repro_modules():
                    if alias.__dict__.get(name) is original:
                        setattr(alias, name, wrapper)

    def restore(self) -> None:
        """Put every original back, wherever a wrapper ended up, and check."""
        for owner, name, original, wrapper in reversed(self._patched):
            setattr(owner, name, original)
            for alias in _repro_modules():
                if alias.__dict__.get(name) is wrapper:
                    setattr(alias, name, original)
        for owner, name, original, _ in self._patched:
            if owner.__dict__[name] is not original:
                raise RuntimeError(f"{owner.__name__}.{name} is still wrapped")
        self._patched.clear()
        self.restored = True

    @contextmanager
    def root(self):
        """The timed region: parent of every top-level span."""
        self._root = next(self._ids)
        self._local.stack = [self._root]
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                (self._root, 0, threading.get_ident(), ROOT_SPAN, start,
                 time.perf_counter(), 0)
            )

    # -- reading ------------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds of its outermost spans,
        self seconds, and the sum of the spans' counts."""
        by_id = {span[0]: span for span in self.spans}
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}
        )
        for span_id, parent_id, thread, name, start, end, count in self.spans:
            row = table[name]
            duration = end - start
            row["calls"] += 1
            row["count"] += count
            row["self_s"] += duration
            parent = by_id.get(parent_id)
            if parent is None or parent[3] != name:
                row["total_s"] += duration
            if parent is not None and parent[2] == thread:
                table[parent[3]]["self_s"] -= duration
        return dict(table)

    def named(self, name: str) -> List[Tuple]:
        return sorted(
            (span for span in self.spans if span[3] == name),
            key=lambda span: span[4],
        )

    def write(self, path: str, run_id: str) -> None:
        with open(path, "w") as stream:
            json.dump(
                {
                    "run_id": run_id,
                    "columns": ["id", "parent", "thread", "name", "start", "end", "count"],
                    "spans": self.spans,
                },
                stream,
            )


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
