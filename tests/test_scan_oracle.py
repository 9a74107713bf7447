"""The C traffic scan, word for word against the drivers' own Python
generators.

:class:`DriverWindows` is the Python scan: it cuts windows on the same
flit budget, one ``TrafficDriver.packets`` call per lane per cycle, and
loads them through :class:`~repro.traffic.stimuli.FlitEncoder`.  Every
window of :class:`~repro.kernels.trafficgen.BatchedBeGenerator` must
equal it — packet columns, flits and queue table — and leave the same
LFSR ``state`` / ``words_read``, sequence numbers and BE-VC toggles,
on lanes that mix every destination pattern of :mod:`repro.traffic`
with GT-only and zero-load lanes, on a mesh and a torus, through budget
cuts and a mid-window overload rewind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines import BatchEngine
from repro.kernels import trafficgen
from repro.noc import NetworkConfig
from repro.noc.packet import flits_per_packet
from repro.traffic import stimuli
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    bit_complement,
    hotspot,
    neighbor_shift,
    reserve_shift_streams,
    transpose,
    uniform_random,
)
from repro.traffic.stimuli import (
    F_CYCLE,
    F_SEQ,
    F_WORD,
    P_DEST,
    P_GT,
    P_LANE,
    P_SRC,
    FlitEncoder,
    Stimuli,
    TrafficDriver,
    flit_words,
)

from tests.test_batch_levelized import needs_jit


def generator_state(driver):
    """Everything a scan advances on ``driver``: its BE stream's LFSR
    state, words read and sequence numbers, its GT streams' sequence
    numbers, its BE-VC toggles."""
    be, gt = driver.be, driver.gt
    return (
        None if be is None else (be.rng.state, be.rng.words_read, [int(s) for s in be._seq]),
        None if gt is None else [int(s) for s in gt._seq],
        [int(t) for t in driver._be_vc_toggle],
    )


def restore(driver, state) -> None:
    be, gt, toggles = state
    if be is not None:
        driver.be.rng.state, driver.be.rng.words_read, driver.be._seq[:] = be
    if gt is not None:
        driver.gt._seq[:] = gt
    driver._be_vc_toggle[:] = toggles


class DriverWindows:
    """Windows from the drivers' own Python generators (the scan's
    oracle): each lane's packets cycle by cycle, the window cut at the
    first cycle boundary at which it holds its flit budget, then the
    load step."""

    def __init__(self, drivers) -> None:
        self.drivers = list(drivers)
        self.budget = stimuli.FLIT_BUDGET
        self.net = self.drivers[0].net
        self.encoder = FlitEncoder(self.net)

    def generate_window(self, start: int, limit: int) -> Stimuli:
        snapshot = [generator_state(driver) for driver in self.drivers]
        per_lane = [[] for _ in self.drivers]
        width = self.net.router.data_width
        flits, stop = 0, start
        while stop < limit and flits < self.budget:
            for driver, lane in zip(self.drivers, per_lane):
                fresh = driver.packets(stop, stop + 1)
                for _, packet, _ in fresh:
                    flits += flits_per_packet(len(packet.payload), width)
                lane += fresh
            stop += 1
        return self.load(start, stop, per_lane, snapshot)

    def load(self, start, stop, per_lane, snapshot) -> Stimuli:
        """The window's packet columns, and its flits grouped by
        ``(lane, router, vc)`` queue in first-submit order."""
        rows, lane_ends, lane_flits = [], [], []
        runs = {}  # (lane, src, vc) -> its flit columns
        for lane, packets in enumerate(per_lane):
            n = 0
            for cycle, packet, vc in packets:
                rows.append(
                    (lane, cycle, packet.src, packet.dest, vc, packet.seq, packet.tag,
                     packet.pclass.name == "GT", len(packet.payload))
                )
                words = flit_words(self.net, self.encoder, packet)
                run = runs.setdefault((lane, packet.src, vc), ([], [], []))
                run[F_WORD].extend(words)
                run[F_CYCLE].extend([cycle] * len(words))
                run[F_SEQ].extend([packet.seq] * len(words))
                n += len(words)
            lane_ends.append(len(rows))
            lane_flits.append(n)
        flits, table = [[], [], []], []
        for key, run in runs.items():
            for column, values in zip(flits, run):
                column += values
            table.append((*key, len(flits[0])))
        return Stimuli(
            start, stop,
            np.array(rows, dtype=np.int64).reshape(len(rows), 9).T, lane_ends, lane_flits,
            np.array(flits, dtype=np.int64).reshape(3, -1),
            np.array(table, dtype=np.int64).reshape(len(table), 4).T, snapshot, self,
        )

    def rewind(self, window: Stimuli, cycle: int, lane: int) -> None:
        """Where the per-cycle loop leaves the generators when ``lane``'s
        pump raises at ``cycle``: lanes up to ``lane`` have generated
        ``cycle``, later lanes have not."""
        for i, (driver, state) in enumerate(zip(self.drivers, window.snapshot)):
            restore(driver, state)
            driver.packets(window.start, cycle + (i <= lane))


#: the fabrics: a 4x4 mesh, and a 5x5 torus (25 sources: no multiple of
#: the scan's 16-word blocks)
NETS = {
    "mesh": lambda: NetworkConfig(4, 4),
    "torus": lambda: NetworkConfig(5, 5, topology="torus"),
}
#: the hotspot lanes' target (a source of its own lane too)
TARGET = 5


def mixed_lanes(net):
    """Per lane ``(pattern, load, with GT)``: every pattern, a hotspot
    that always hits, GT-only and zero-load lanes."""
    return [
        (uniform_random(net), 0.15, False),
        (transpose(net), 0.2, True),
        (bit_complement(net), 0.1, False),
        (hotspot(net, target=TARGET, fraction=0.4), 0.25, False),
        (neighbor_shift(net, 1, 1), 0.12, True),
        (None, None, True),
        (uniform_random(net), 0.0, True),
        (hotspot(net, target=TARGET, fraction=1.0), 0.1, True),
    ]


def build(net):
    """One driver a lane of :func:`mixed_lanes` (seeds ascending); a GT
    lane carries four neighbour-shift streams."""
    lanes = mixed_lanes(net)
    engine = BatchEngine(net, lanes=len(lanes), kernel="python")  # only hosts the drivers
    streams = reserve_shift_streams(net, routing=engine.routing).streams[:4]
    drivers = []
    for lane, (pattern, load, gt) in enumerate(lanes):
        be = None
        if pattern is not None:
            be = BernoulliBeTraffic(net, load, pattern, seed=0x5CA1 + 7 * lane)
        drivers.append(
            TrafficDriver(
                engine.lane(lane),
                be=be,
                gt=GtStreamTraffic(net, streams, period=41) if gt else None,
            )
        )
    return drivers


def pair(net):
    """The C scan over one driver set, the oracle over a twin."""
    scanned, twin = build(net), build(net)
    assert trafficgen.scan_decline(scanned) is None
    return trafficgen.BatchedBeGenerator(scanned), DriverWindows(twin)


def assert_same(window: Stimuli, want: Stimuli, generator, oracle) -> None:
    assert (window.start, window.stop) == (want.start, want.stop)
    assert window.lane_ends == want.lane_ends
    assert window.lane_flits == want.lane_flits
    np.testing.assert_array_equal(window.packets, want.packets)
    np.testing.assert_array_equal(window.flits, want.flits)
    np.testing.assert_array_equal(window.queues, want.queues)
    assert [generator_state(d) for d in generator.drivers] == [
        generator_state(d) for d in oracle.drivers
    ]


def windows(generator, oracle, start, stop, width):
    """Windows of at most ``width`` cycles over ``[start, stop)``, each
    held to the oracle's; returns the C scan's packet columns."""
    packets = []
    while start < stop:
        limit = min(start + width, stop)
        window = generator.generate_window(start, limit)
        assert_same(window, oracle.generate_window(start, limit), generator, oracle)
        assert start < window.stop <= limit
        packets.append(window.packets)
        start = window.stop
    return np.concatenate(packets, axis=1)


@needs_jit
class TestScanOracle:
    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("fabric", sorted(NETS))
    def test_every_window_is_the_python_scan(self, fabric, width):
        net = NETS[fabric]()
        generator, oracle = pair(net)
        packets = windows(generator, oracle, 0, 260, width)
        lanes = packets[P_LANE]
        # every lane sent: the GT-only and zero-load ones their GT packets
        assert set(lanes.tolist()) == set(range(8))
        assert packets[P_GT, (lanes == 5) | (lanes == 6)].all()
        hot = packets[:, lanes == 3]
        assert (hot[P_SRC] == TARGET).any()  # the target's own packets: no Bernoulli word
        assert (hot[P_DEST] == TARGET).sum() > hot.shape[1] / 4
        always = packets[:, (lanes == 7) & (packets[P_GT] == 0) & (packets[P_SRC] != TARGET)]
        assert (always[P_DEST] == TARGET).all() and always.shape[1]

    @pytest.mark.parametrize("fabric", sorted(NETS))
    def test_windows_cut_by_the_budget(self, fabric, monkeypatch):
        monkeypatch.setattr(stimuli, "FLIT_BUDGET", 150)
        generator, oracle = pair(NETS[fabric]())
        start, cuts = 0, 0
        while start < 300:
            limit = start + 64
            window = generator.generate_window(start, limit)
            assert_same(window, oracle.generate_window(start, limit), generator, oracle)
            cuts += window.stop < limit
            start = window.stop
        assert cuts > 3

    @pytest.mark.parametrize("failing", [0, 3, 7])
    @pytest.mark.parametrize("fabric", sorted(NETS))
    def test_a_mid_window_rewind(self, fabric, failing):
        generator, oracle = pair(NETS[fabric]())
        windows(generator, oracle, 0, 40, 40)
        window = generator.generate_window(40, 104)
        twin = oracle.generate_window(40, 104)
        assert_same(window, twin, generator, oracle)
        cycle = (window.start + window.stop) // 2  # the generators ran past it
        assert window.start < cycle < window.stop - 1
        generator.rewind(window, cycle, failing)
        oracle.rewind(twin, cycle, failing)
        assert [generator_state(d) for d in generator.drivers] == [
            generator_state(d) for d in oracle.drivers
        ]
