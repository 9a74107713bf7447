"""The columnar latency tracker against a per-flit oracle.

``PacketLatencyTracker`` matches packets on integer blocks; the loop it
replaced lives on here, written on :class:`repro.noc.packet.Reassembler`.
Whatever the logs — engine records, engine column blocks, hand-made
streams — and however they are cut into windows, the tracker's sample
block equals the oracle's list, and a broken stream raises the oracle's
exception for the oracle's event.

The tracker's matching has two bodies (DESIGN section 15).  This module
holds the one a tracker binds by default — the C pass where there is a
compiler; ``test_latency_columns_numpy`` runs the same tests, imported,
not copied, on a host without one (the ``no_cc`` fixture).
"""

from __future__ import annotations

import copy
import pickle
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, CycleEngine, drain_batched, run_batched
from repro.engines.eventlog import log_window
from repro.experiments.common import fig1_network
from repro.kernels import cbackend
from repro.noc import NetworkConfig, Packet, PacketClass
from repro.noc.flit import Flit, FlitType, Header, SourceInfo
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.noc.packet import ProtocolError, Reassembler, segment
from repro.noc.topology import Topology
from repro.stats import PacketLatencyTracker
from tests.test_batch_levelized import JIT_REASON, lane_driver, needs_jit, torus

#: the ``_match`` body under test; the module that imports this battery
#: for the other body overrides it.
BODY = "c"

#: the host's compiler probe, for the scenario that needs the generated
#: body even inside the NumPy battery
FIND_COMPILER = cbackend._find_compiler


@pytest.fixture(autouse=True)
def body(request):
    """Every tracker a test builds binds the module's ``BODY`` (the
    NumPy one anyway where no C tier can run)."""
    want = request.module.BODY
    if want == "numpy":
        request.getfixturevalue("no_cc")
    return "numpy" if JIT_REASON != "ok" else want


class Oracle:
    """The scalar tracker: one flit at a time, one ``Reassembler`` per
    sink, one deque per key."""

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.topology = Topology(net)
        self.sinks = [Reassembler(net) for _ in range(net.n_routers)]
        self.submits = {}  # (src, seq) -> deque of (vc, cycle)
        self.head_injects = {}  # (router, vc) -> deque of cycles
        self.head_eject = {}  # (router, vc) -> cycle of the open packet's HEAD
        self.samples = []

    def note_submits(self, srcs, seqs, vcs, cycles) -> None:
        for src, seq, vc, cycle in zip(srcs, seqs, vcs, cycles):
            self.submits.setdefault((src, seq), deque()).append((vc, cycle))

    def collect_records(self, injections, ejections) -> None:
        width = self.net.router.data_width
        for event in injections:
            if Flit.decode(event.flit_word, width).ftype is FlitType.HEAD:
                key = (event.router, event.vc)
                self.head_injects.setdefault(key, deque()).append(event.cycle)
        for event in ejections:
            flit = Flit.decode(event.flit_word, width)
            packet = self.sinks[event.router].push(event.vc, flit, event.cycle)
            if flit.ftype is FlitType.HEAD:
                self.head_eject[(event.router, event.vc)] = event.cycle
            if packet is None:
                continue
            key = (packet.src, packet.seq)
            if not self.submits.get(key):
                raise RuntimeError(f"delivered packet with no submit record: {key}")
            submit_vc, submit_cycle = self.submits[key].popleft()
            head_eject = self.head_eject[(event.router, event.vc)]
            queue = self.head_injects.get((packet.src, submit_vc))
            head_inject = -1
            if queue and queue[0] <= head_eject:
                head_inject = queue.popleft()
            self.samples.append(
                [
                    int(packet.pclass is PacketClass.GT),
                    packet.src,
                    event.router,
                    self.topology.hops(packet.src, event.router),
                    submit_cycle,
                    head_inject,
                    head_eject,
                    event.cycle,
                ]
            )


class Scenario:
    """One run's submits ``(src, seq, vc, cycle)`` and its two logs, as
    records and as blocks, with the oracle's samples."""

    def __init__(self, net, submits, injections, ejections) -> None:
        self.net = net
        self.submits = np.array(submits, dtype=np.int64).reshape(len(submits), 4).T
        self.injections, self.ejections = list(injections), list(ejections)
        self.blocks = (
            log_window(self.injections, 0, len(self.injections)),
            log_window(self.ejections, 0, len(self.ejections)),
        )
        self.end = max(e.cycle for e in self.ejections) + 1
        oracle = Oracle(net)
        oracle.note_submits(*self.submits.tolist())
        oracle.collect_records(self.injections, self.ejections)
        self.want = oracle.samples

    def feed(self, tracker, lo, hi, records) -> None:
        """Cycles ``[lo, hi)``: the window's submits, then its events."""
        cycles = self.submits[3]
        tracker.note_submits(*self.submits[:, (cycles >= lo) & (cycles < hi)])
        window = []
        for log, block in zip((self.injections, self.ejections), self.blocks):
            a, b = np.searchsorted(block[0], (lo, hi))
            window.append(log[a:b] if records else block[:, a:b])
        tracker.collect_records(*window)

    def run(self, cuts, records=False, tracker=None, start=0):
        tracker = tracker or PacketLatencyTracker(self.net)
        bounds = [start, *sorted(c for c in set(cuts) if c > start), self.end]
        for lo, hi in zip(bounds, bounds[1:]):
            self.feed(tracker, lo, hi, records)
        return tracker


def events_of(packet, net, vc, sink_vc, inject, eject, stride):
    """The events of one hand-made packet: flit ``i`` enters its source
    at cycle ``inject + i`` and leaves its sink at ``eject + i * stride``."""
    width = net.router.data_width
    words = [flit.encode(width) for flit in segment(packet, net)]
    injections = [
        InjectionRecord(inject + i, packet.src, vc, word, 0)
        for i, word in enumerate(words)
    ]
    ejections = [
        EjectionRecord(eject + i * stride, packet.dest, sink_vc, word)
        for i, word in enumerate(words)
    ]
    return injections, ejections


@lru_cache(maxsize=None)
def wrapping_stream() -> Scenario:
    """One source, one injection VC, 600 packets: the sequence number
    wraps twice, and every slow packet to the far sink finishes after the
    quick one behind it — whose head-inject cycle it would otherwise
    take, so the "newer than the head ejection stays queued" rule bites
    on every pair."""
    net = torus(4, 4)
    submits, injections, ejections = [], [], []
    for k in range(600):
        slow = k % 2 == 0
        packet = Packet(3, 9 if slow else 2, PacketClass.BE, bytes(10), seq=k & 0xFF)
        at = 20 * k
        submits.append((3, k & 0xFF, 1, at))
        inj, ej = events_of(
            packet, net, 1, k % 3, at + 1, at + (6 if slow else 4), 5 if slow else 1
        )
        injections += inj
        ejections += ej
    key = lambda event: event.cycle  # noqa: E731 - stable: same-cycle events keep their order
    return Scenario(net, submits, sorted(injections, key=key), sorted(ejections, key=key))


def engine_scenario(engine, view, driver, cycles) -> Scenario:
    if isinstance(engine, BatchEngine):
        run_batched(engine, [driver], cycles)
        driver.be = driver.gt = None
        drain_batched(engine, [driver])
    else:
        driver.run(cycles)
        driver.be = driver.gt = None
        driver.drain()
    submits = [
        (s.packet.src, s.packet.seq, s.vc, s.submit_cycle) for s in driver.submits
    ]
    return Scenario(engine.cfg, submits, view.injections, view.ejections)


@lru_cache(maxsize=None)
def cycle_engine_run() -> Scenario:
    """GT + BE on the golden engine: its logs are plain record lists."""
    engine = CycleEngine(torus(4, 4))
    scenario = engine_scenario(engine, engine, lane_driver(engine, 0.2, 7, 150), 400)
    assert type(engine.ejections) is list and len(scenario.want) > 150
    return scenario


@lru_cache(maxsize=None)
def compiled_run() -> Scenario:
    """The Fig. 1 set near saturation on the generated body (whatever
    body the tracker under test is on)."""
    with pytest.MonkeyPatch.context() as env:
        env.setattr(cbackend, "_find_compiler", FIND_COMPILER)
        engine = BatchEngine(fig1_network(), lanes=1)
        view = engine.lane(0)
        scenario = engine_scenario(engine, view, lane_driver(view, 0.14, 11, 400), 1500)
    assert len(scenario.want) > 1000
    return scenario


SCENARIOS = [wrapping_stream, cycle_engine_run, pytest.param(compiled_run, marks=needs_jit)]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_one_window_equals_the_oracle(scenario, body):
    scenario = scenario()
    tracker = scenario.run(())
    assert tracker.kernel == body and (tracker.kernel_reason is None) == (body == "c")
    assert tracker.samples.columns.T.tolist() == scenario.want
    assert tracker.pending() == [] and tracker.open_vcs == []
    # the rule bit somewhere: a packet went without its head-inject cycle
    if scenario is not cycle_engine_run():
        assert any(sample[5] < 0 for sample in scenario.want)
    # the lazy sequence hands out what the oracle recorded
    sample = tracker.samples[len(scenario.want) // 2]
    want = scenario.want[len(scenario.want) // 2]
    assert (sample.src, sample.dest, sample.hops) == tuple(want[1:4])
    assert sample.total_latency == want[7] - want[4]
    assert sample.head_inject_cycle == (None if want[5] < 0 else want[5])
    assert len(tracker.samples[-3:]) == 3 and tracker.samples[:] == list(tracker.samples)


@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_split_into_windows_yields_the_same_columns(scenario, data):
    scenario = scenario()
    cuts = data.draw(st.lists(st.integers(1, scenario.end), max_size=12))
    tracker = scenario.run(cuts, records=data.draw(st.booleans()))
    assert tracker.samples.columns.T.tolist() == scenario.want
    assert tracker.pending() == []


def test_windows_cut_packets_mid_flight():
    scenario = wrapping_stream()
    tracker = PacketLatencyTracker(scenario.net)
    scenario.feed(tracker, 0, 1215, records=False)
    # packet 60 (slow) is half ejected, packet 61 not yet injected
    assert tracker.open_vcs == [(9, 0)]
    assert tracker.pending() == [(3, 60, 1, 1200)]
    assert len(tracker.samples) == 60


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_copied_tracker_resumes_mid_packet(scenario, clone):
    """Controller rollback deep-copies the tracker, farm resume pickles it."""
    scenario = scenario()
    cut = scenario.end // 2 + 15
    tracker = PacketLatencyTracker(scenario.net)
    scenario.feed(tracker, 0, cut, records=False)
    assert tracker.open_vcs
    twin = clone(tracker)
    for resumed in (tracker, twin):
        scenario.run((cut + 40,), tracker=resumed, start=cut)
        assert resumed.samples.columns.T.tolist() == scenario.want
    assert twin.samples == tracker.samples and twin.samples is not tracker.samples


# -- broken streams ----------------------------------------------------------
NET = torus(3, 3)
WIDTH = NET.router.data_width


def eject(cycle, router, vc, ftype, data=0):
    return EjectionRecord(cycle, router, vc, Flit(ftype, data).encode(WIDTH))


def packet_at(cycle, router, vc, src=(1, 0), dest=None, seq=0, flits=4):
    """A packet's ejection events, one per cycle from ``cycle``."""
    dest = NET.coords(router) if dest is None else dest
    body = [(FlitType.BODY, 0)] * (flits - 3) + [(FlitType.TAIL, 0)] if flits > 2 else []
    words = [
        (FlitType.HEAD, Header(*dest).encode()),
        (FlitType.BODY if flits > 2 else FlitType.TAIL, SourceInfo(*src, seq).encode()),
        *body,
    ]
    return [eject(cycle + i, router, vc, *word) for i, word in enumerate(words)]


def broken_streams():
    good = packet_at(0, 4, 1)
    yield "head while open", good[:2] + [eject(2, 4, 1, FlitType.HEAD)] + good[2:]
    yield "body without a head", good + [eject(9, 4, 2, FlitType.BODY)]
    yield "tail without a head", [eject(0, 5, 3, FlitType.TAIL)] + good
    yield "too short", good + packet_at(10, 4, 1, seq=1, flits=2)
    yield "source off the fabric", packet_at(0, 4, 1, src=(3, 0))
    yield "destination off the fabric", packet_at(0, 4, 1, dest=(1, 7))
    yield "source and destination off the fabric", packet_at(0, 4, 1, src=(0, 9), dest=(9, 0))
    yield "no submit record", good + packet_at(10, 4, 1, seq=5)
    yield "submitted once, delivered twice", good + packet_at(10, 5, 0)
    # two offenders: the first in event order is the one reported
    orphan = eject(5, 7, 0, FlitType.BODY)
    unknown = packet_at(2, 6, 2, seq=9)  # its TAIL leaves at cycle 5
    yield "no submit, then an orphan body", good + unknown + [orphan]
    yield "an orphan body, then no submit", good + unknown[:3] + [orphan] + unknown[3:]
    yield "orphan at the very first event", [orphan] + good
    yield "idle words are skipped", [eject(0, 4, 1, FlitType.IDLE)] + good + [orphan]
    # a sink counts the flits before it reads the addresses
    yield "too short and off the fabric", packet_at(0, 4, 1, src=(9, 9), dest=(1, 7), flits=2)


@pytest.mark.parametrize("name,stream", list(broken_streams()))
@pytest.mark.parametrize("split", [None, 1, 3])
def test_a_broken_stream_raises_what_the_oracle_raises(name, stream, split):
    stream = sorted(stream, key=lambda event: event.cycle)
    raised = []
    for tracker in (Oracle(NET), PacketLatencyTracker(NET)):
        tracker.note_submits((1,), (0,), (2,), (0,))
        windows = [stream] if split is None else [stream[:split], stream[split:]]
        with pytest.raises((ProtocolError, IndexError, RuntimeError)) as caught:
            for window in windows:
                tracker.collect_records([], window)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]
    # the window that raised changed nothing: a tracker is never half-updated
    assert len(tracker.samples) == 0 and tracker.pending() == [(1, 0, 2, 0)]
