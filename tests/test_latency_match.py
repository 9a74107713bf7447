"""The two bodies of ``PacketLatencyTracker._match``, held to each other.

``test_latency_columns`` (and its ``_numpy`` twin) hold each body to the
per-flit oracle.  Here the C pass and the NumPy body are given the same
blocks — real engine logs and hand-made streams that break every rule a
sink checks — and must hand back array-equal blocks or raise the same
exception with the same text; then what the C body alone promises: its
scratch is one tracker's (two threads), it is no part of a tracker's
pickled state (a run resumed on the other body), and ``collect`` reads a
log in place, part by part.
"""

from __future__ import annotations

import copy
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.eventlog import EventLog, record_block
from repro.noc import NetworkConfig, Packet, PacketClass, RouterConfig
from repro.noc.flit import Flit, FlitType, Header, SourceInfo
from repro.noc.network import EjectionRecord
from repro.noc.packet import ProtocolError, segment
from repro.stats import PacketLatencyTracker
from repro.stats.latency import _NO_EVENTS, _SEQS
from tests.test_batch_levelized import needs_jit
from tests.test_latency_columns import (
    compiled_run,
    cycle_engine_run,
    wrapping_stream,
)

pytestmark = needs_jit


def tracker_on(body: str, net) -> PacketLatencyTracker:
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_KERNELS", "numpy" if body == "numpy" else "auto")
        tracker = PacketLatencyTracker(net)
    assert tracker.kernel == body
    return tracker


def outcome(tracker, *window):
    """What ``_match`` returns, or what it raises."""
    try:
        return tracker._match(*window)
    except (ProtocolError, IndexError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same(got, want) -> bool:
    """Equal outcomes; true when they are blocks (the run goes on)."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return False
    assert len(got) == len(want) == 4
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype == np.int64
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    return True


class Stream:
    """A run's submits ``[4, m]`` (src, seq, vc, cycle) and its two logs
    as ``[4, n]`` blocks, cycle-ordered."""

    def __init__(self, net, submits, injections, ejections) -> None:
        self.net = net
        self.submits = np.asarray(submits, dtype=np.int64).reshape(4, -1)
        self.injections, self.ejections = injections, ejections
        self.end = int(max(injections[0].max(initial=0), ejections[0].max(initial=0))) + 1

    @classmethod
    def of(cls, scenario) -> "Stream":
        return cls(scenario.net, scenario.submits, *(b[:4] for b in scenario.blocks))

    def windows(self, cuts, pieces):
        """Per window: the submits noted in it (as the tracker keeps
        them) and its two logs, the ejections in ``pieces`` blocks —
        every block a column slice of a wider log, read in place."""
        bounds = [0, *sorted(c for c in set(cuts) if 0 < c < self.end), self.end]
        src, seq, vc, cycle = self.submits
        for lo, hi in zip(bounds, bounds[1:]):
            noted = (cycle >= lo) & (cycle < hi)
            keys = np.array([src * _SEQS + (seq & 0xFF), vc, cycle])[:, noted]
            a, b = np.searchsorted(self.injections[0], (lo, hi))
            c, d = np.searchsorted(self.ejections[0], (lo, hi))
            steps = np.linspace(c, d, pieces + 1).astype(int)
            yield (
                keys,
                [self.injections[:, a:b]],
                [self.ejections[:, e:f] for e, f in zip(steps, steps[1:])],
            )

    def differential(self, cuts, pieces=1):
        fast, reference = tracker_on("c", self.net), tracker_on("numpy", self.net)
        state = [np.empty((3, 0), dtype=np.int64), np.empty((2, 0), dtype=np.int64), _NO_EVENTS]
        samples = []
        for noted, injections, ejections in self.windows(cuts, pieces):
            state[0] = np.concatenate([state[0], noted], axis=1)
            want = outcome(reference, *state, injections, ejections)
            # the NumPy body's blocks are Fortran-ordered: the C body takes them too
            if not assert_same(outcome(fast, *state, injections, ejections), want):
                return want
            samples.append(want[0])
            state = list(want[1:])
        return np.concatenate(samples, axis=1)


@pytest.mark.parametrize("scenario", [wrapping_stream, cycle_engine_run, compiled_run])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_engine_logs_match_alike_however_cut(scenario, data):
    scenario = scenario()
    stream = Stream.of(scenario)
    cuts = data.draw(st.lists(st.integers(1, stream.end), max_size=10))
    samples = stream.differential(cuts, pieces=data.draw(st.integers(1, 3)))
    assert samples.T.tolist() == scenario.want


# -- hand-made streams -------------------------------------------------------
FAULTS = (
    "head while open",
    "orphan body",
    "orphan tail",
    "too short",
    "too short and off the fabric",
    "source off the fabric",
    "destination off the fabric",
    "no submit record",
    "delivered twice",
)


@st.composite
def adversarial_streams(draw):
    """Packets of a few sources to a few sinks: sequence numbers start
    near the wrap, one ``(src, vc)`` stream reaches different sinks at
    different speeds (same-key packets finish out of order), IDLE words
    lie between flits — and up to two faults, anywhere."""
    width, height = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    net = NetworkConfig(
        width,
        height,
        topology=draw(st.sampled_from(["torus", "mesh"])),
        router=RouterConfig(queue_depth=2),
    )
    n_vcs, dw = net.router.n_vcs, net.router.data_width
    routers = st.integers(0, net.n_routers - 1)
    sources = draw(st.lists(routers, min_size=1, max_size=3, unique=True))
    seqs = {src: draw(st.integers(240, 255)) for src in sources}
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    n_packets = draw(st.integers(1, 40))
    struck = {draw(st.integers(0, n_packets - 1)): fault for fault in faults}
    free = {}  # sink queue -> first cycle it can take a HEAD
    submits, injections, ejections = [], [], []

    def eject(cycle, router, vc, ftype, data=0):
        ejections.append((cycle, router, vc, Flit(ftype, data).encode(dw)))

    for i in range(n_packets):
        src = draw(st.sampled_from(sources))
        dest = draw(routers.filter(lambda r: r != src))
        vc, sink_vc = draw(st.integers(0, n_vcs - 1)), draw(st.integers(0, n_vcs - 1))
        seq, seqs[src] = seqs[src], (seqs[src] + 1) & 0xFF
        at = draw(st.integers(0, 400))
        fault = struck.get(i)
        packet = Packet(src, dest, PacketClass.BE, bytes(draw(st.integers(1, 8))), seq=seq)
        words = [flit.encode(dw) for flit in segment(packet, net)]
        if fault == "too short":
            words = [words[0], Flit(FlitType.TAIL, SourceInfo(*net.coords(src), seq).encode()).encode(dw)]
        elif fault == "too short and off the fabric":
            words = [
                Flit(FlitType.HEAD, Header(0, height).encode()).encode(dw),
                Flit(FlitType.TAIL, SourceInfo(width, 0, seq).encode()).encode(dw),
            ]
        elif fault == "source off the fabric":
            words[1] = Flit(FlitType.BODY, SourceInfo(width, 0, seq).encode()).encode(dw)
        elif fault == "destination off the fabric":
            words[0] = Flit(FlitType.HEAD, Header(0, height).encode()).encode(dw)
        if fault != "no submit record":
            submits.append((src, seq, vc, at))
        injections += [(at + 1 + j, src, vc, word) for j, word in enumerate(words)]
        stride = draw(st.integers(1, 4))
        start = max(at + draw(st.integers(2, 30)), free.get((dest, sink_vc), 0))
        for copy_ in range(2 if fault == "delivered twice" else 1):
            for j, word in enumerate(words):
                cycle = start + j * stride
                if draw(st.integers(0, 9)) == 0:
                    eject(cycle, dest, sink_vc, FlitType.IDLE, j)
                ejections.append((cycle, dest, sink_vc, word))
                if j == 1 and fault == "head while open":
                    eject(cycle, dest, sink_vc, FlitType.HEAD, Header(0, 0).encode())
            start = cycle + 1
        free[(dest, sink_vc)] = start
        if fault in ("orphan body", "orphan tail"):
            orphan = FlitType.BODY if fault == "orphan body" else FlitType.TAIL
            eject(start, dest, sink_vc, orphan)

    def block(events):
        events.sort(key=lambda event: event[0])  # stable: a cycle keeps its order
        return np.array(events, dtype=np.int64).reshape(len(events), 4).T

    stream = Stream(net, np.array(submits, dtype=np.int64).reshape(-1, 4).T,
                    block(injections), block(ejections))
    cuts = draw(st.lists(st.integers(1, stream.end), max_size=6))
    return stream, cuts, draw(st.integers(1, 3)), bool(faults)


@settings(max_examples=300, deadline=None)
@given(case=adversarial_streams())
def test_hand_made_streams_match_or_raise_alike(case):
    stream, cuts, pieces, broken = case
    result = stream.differential(cuts, pieces)
    if not broken:
        # a sound stream delivers every packet, however it was cut
        assert result.shape[1] == stream.submits.shape[1]


def test_each_fault_is_refused_in_the_sinks_words():
    """The strategy above reaches every refusal a sink has (so the
    differential compared each of them)."""
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(case=adversarial_streams())
    def run(case):
        stream, cuts, pieces, _ = case
        result = stream.differential(cuts, pieces)
        if isinstance(result, tuple):
            seen.add((result[0].__name__, result[1].lstrip("VC 0123:")[:12]))

    run()
    assert {kind for kind, _ in seen} == {"ProtocolError", "IndexError", "RuntimeError"}
    assert len(seen) >= 6, seen


def test_events_outside_the_fabric_are_the_numpy_bodys_to_judge():
    """The C pass indexes tables by router and VC: a stream that leaves
    them is handed to the NumPy body, whatever that makes of it."""
    net = wrapping_stream().net
    stray = np.array([[5], [net.n_routers], [0], [Flit(FlitType.BODY, 0).encode(16)]])
    window = (np.empty((3, 0), dtype=np.int64), np.empty((2, 0), dtype=np.int64), _NO_EVENTS)
    got = outcome(tracker_on("c", net), *window, [], [stray])
    assert got == outcome(tracker_on("numpy", net), *window, [], [stray])
    assert got[0] is ProtocolError


# -- what the C body alone promises -------------------------------------------
def test_two_trackers_on_two_threads_share_nothing():
    """The call runs without the GIL: its scratch is the tracker's own."""
    runs = [(wrapping_stream(), 240), (compiled_run(), 30)]
    cuts = [range(step, 50 * step, step) for _, step in runs]
    serial = [scenario.run(cut).samples for (scenario, _), cut in zip(runs, cuts)]
    threaded = [None, None]

    def work(i):
        for _ in range(3):
            threaded[i] = runs[i][0].run(cuts[i]).samples

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(cut) == 49 for cut in cuts)  # 50 windows each
    assert threaded == serial and len(serial[0]) == 600


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
@pytest.mark.parametrize("first,then", [("c", "numpy"), ("numpy", "c")])
def test_a_run_resumes_on_the_other_body(first, then, clone):
    scenario = compiled_run()
    cut = scenario.end // 2 + 15
    tracker = tracker_on(first, scenario.net)
    scenario.feed(tracker, 0, cut, records=False)
    assert tracker.open_vcs and tracker.pending()
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_KERNELS", "numpy" if then == "numpy" else "auto")
        twin = clone(tracker)
    assert (tracker.kernel, twin.kernel) == (first, then)
    state = pickle.dumps(tracker)
    assert b"cffi" not in state and b"_c_match" not in state
    for resumed in (tracker, twin):
        scenario.run((cut + 40,), tracker=resumed, start=cut)
        assert resumed.samples.columns.T.tolist() == scenario.want
    assert twin.samples == tracker.samples
    assert twin.pending() == tracker.pending() == []
    assert twin.open_vcs == tracker.open_vcs == []


class LoggedEngine:
    """An engine as ``collect`` sees one: two logs."""

    def __init__(self, scenario, parts: int) -> None:
        self.injections, self.ejections = (
            EventLog(record) for record in (type(scenario.injections[0]), EjectionRecord)
        )
        for log, block in zip((self.injections, self.ejections), scenario.blocks):
            steps = np.linspace(0, block.shape[1], parts + 1).astype(int)
            for lo, hi in zip(steps, steps[1:]):
                # every part its own array, as every chunk's block is
                log.extend_block(block[:, lo:hi].copy(), 0, hi - lo)


@pytest.mark.parametrize("body", ["c", "numpy"])
def test_collect_reads_a_log_part_by_part(body):
    """No copy of a log: what ``collect`` allocates goes with the log's
    largest part (and the samples it finds), not with the log."""
    scenario = compiled_run()

    def collect(parts):
        engine = LoggedEngine(scenario, parts)
        assert len(engine.ejections._parts) == parts
        tracker = tracker_on(body, scenario.net)
        tracker.note_submits(*scenario.submits)
        tracker.samples.extend_block(np.zeros((8, len(scenario.want)), dtype=np.int64))
        tracemalloc.start()
        tracker.collect(engine)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert tracker.samples.columns.T.tolist()[len(scenario.want) :] == scenario.want
        return peak

    collect(1)  # warm: imports, caches
    whole, in_parts = collect(1), collect(20)
    assert in_parts < whole / 3, (in_parts, whole)
    if body == "c":  # mostly the samples, twice; a copy of the ejection log is 32 bytes an event
        assert in_parts < 32 * len(scenario.ejections) / 2


def test_open_packets_that_outnumber_a_part_are_all_kept():
    """``still_open`` is sized for a part of the log; a window whose open
    packets hold more is matched again with room for them."""
    from tests.test_latency_columns import NET, eject

    queues = [(router, vc) for router in range(5) for vc in range(2)]
    events = [
        eject(cycle, router, vc, ftype)
        for cycle, ftype in enumerate((FlitType.HEAD, FlitType.BODY, FlitType.BODY))
        for router, vc in queues
    ]
    block = record_block(events)
    parts = [block[:, lo : lo + 10] for lo in range(0, 30, 10)]
    window = (np.empty((3, 0), dtype=np.int64), np.empty((2, 0), dtype=np.int64), _NO_EVENTS)
    want = outcome(tracker_on("numpy", NET), *window, [], parts)
    assert assert_same(outcome(tracker_on("c", NET), *window, [], parts), want)
    assert np.array_equal(want[3], block) and want[0].shape == (8, 0)
