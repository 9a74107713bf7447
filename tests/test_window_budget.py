"""A traffic window is a flit budget, and the LFSR scan looks ahead.

Two contracts of the generate phase (DESIGN section 10):

* ``BatchedBeGenerator.generate_window(start, limit)`` ends a window at the first cycle
  boundary at which it holds ``FLIT_BUDGET`` flits.  Where the cuts fall
  is invisible in every simulated result: one-flit windows, the default
  and a budget no run reaches give the same snapshots, event columns,
  submit logs, tracker samples, stall counters and per-cycle delta
  columns, all equal to the golden cycle engine — through an overload
  that rewinds a cut window, and with fast-forward on or off.
* ``repro_gen_be`` reads the top bytes of the next sixteen words of an
  LFSR state at once and takes them all when none can be a hit — 32 on
  a lane at or under ``trafficgen.SPARSE_CUTOFF``, whose lone candidate
  is tested without a branch; in generate mode a lane's blocks run on
  across cycles, and a lane that read past the window's end is advanced
  again to it.  Word for word it
  is the serial scan on :class:`~repro.traffic.rng.HardwareLfsr`: a hit
  at any block position and across a cycle boundary, thresholds at the
  byte limit and at the sparse cutoff, false candidates before a hit and
  in pairs, back-to-back hits, rejection-sampled destinations, any
  source count, windows cut by the budget or the limit, GT firings
  between hits, in generate and probe mode.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import BatchEngine, CycleEngine, SequentialEngine, lane_views
from repro.engines.batch import drain_batched, run_batched
from repro.engines.eventlog import LaneView, record_block
from repro.experiments.common import fig1_gt_streams, fig1_network
from repro.kernels import trafficgen
from repro.kernels.batchlevel import CompiledBatchLevel
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.stats.latency import PacketLatencyTracker
from repro.traffic import stimuli
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    hotspot,
    transpose,
    uniform_random,
)
from repro.traffic.rng import _JUMP, HardwareLfsr, lfsr_jump
from repro.traffic.stimuli import (
    P_CYCLE,
    P_DEST,
    P_LANE,
    P_SRC,
    NetworkOverloadError,
    TrafficDriver,
)

from tests.test_batch_levelized import (
    PlannedFault,
    capture_generator,
    full_digest,
    make_drivers,
    needs_jit,
    spy_skips,
)

#: a budget no run below reaches: every run is one window.
UNBOUNDED = 10**6


# --------------------------------------------------------------------------
# (a) the look-ahead scan against the serial one
# --------------------------------------------------------------------------

#: fabrics by source count: a cycle of 4, 6 or 9 sources is shorter
#: than a block, 36 and 100 leave a tail
SHAPES = {4: (2, 2), 6: (3, 2), 9: (3, 3), 36: (6, 6), 100: (10, 10)}
#: LFSR words the scan rejects per dependency step
BLOCK = 16
PERIOD = 2**32 - 1
#: a Bernoulli threshold of 4096: hits only where a test plants one
RARE = 2**-20
#: the word before 0xFFFFFFFF, and the probability that makes it a hit:
#: its destination draw then starts on a rejected word
BEFORE_ONES = lfsr_jump(0xFFFFFFFF, PERIOD - 32)
RETRY = (BEFORE_ONES + 1) / 2**32


def seed_reading(word: int, reads: int) -> int:
    """The LFSR state whose ``reads``-th next word is ``word``."""
    return lfsr_jump(word, PERIOD - 32 * reads)


def scan_drivers(n_src, probabilities, seeds):
    """One BE driver per lane drawing at ``probabilities[lane]`` from
    ``seeds[lane]`` (``None``: no BE stream), and the C scan over them."""
    width, height = SHAPES[n_src]
    cfg = NetworkConfig(width, height, topology="torus")
    # the engine only hosts the drivers: the C body is the cheapest host
    engine = BatchEngine(cfg, lanes=len(probabilities))
    drivers = []
    for lane, (probability, seed) in enumerate(zip(probabilities, seeds)):
        be = None
        if probability is not None:
            be = BernoulliBeTraffic(cfg, 0.5, uniform_random(cfg), seed=seed)
            be.packet_probability = probability
        drivers.append(TrafficDriver(engine.lane(lane), be=be))
    reason = trafficgen.scan_decline(drivers)
    assert reason is None, reason
    return drivers, trafficgen.BatchedBeGenerator(drivers)


def serial_rngs(probabilities, seeds):
    return [
        (HardwareLfsr(seed), int(probability * 2**32))
        for probability, seed in zip(probabilities, seeds)
        if probability
    ]


def serial_scan(rngs, n_src, cycles):
    """Generate mode, one ``next_u32`` at a time: ``(live lane, cycle,
    src, dest)`` of every hit."""
    hits = []
    for cycle in range(cycles):
        for lane, (rng, threshold) in enumerate(rngs):
            for src in range(n_src):
                if rng.next_u32() < threshold:
                    dest = rng.next_below(n_src - 1)
                    hits.append((lane, cycle, src, dest + (dest >= src)))
    return hits


def serial_probe(rngs, n_src, limit):
    """Probe mode: the hit-free cycles from here, at most ``limit``;
    a cycle holding a hit is drawn by no lane."""
    for cycle in range(limit):
        before = [(rng.state, rng.words_read) for rng, _ in rngs]
        for rng, threshold in rngs:
            if any(rng.next_u32() < threshold for _ in range(n_src)):
                for (rng, _), state in zip(rngs, before):
                    rng.state, rng.words_read = state
                return cycle
    return limit


def scanned_hits(generator, cycles):
    """Every packet of ``[0, cycles)`` as ``(lane, cycle, src, dest)``,
    window after window."""
    hits, start = [], 0
    while start < cycles:
        window = generator.generate_window(start, cycles)
        assert start < window.stop <= cycles
        hits += zip(*window.packets[[P_LANE, P_CYCLE, P_SRC, P_DEST]].tolist())
        start = window.stop
    return sorted(hits)


def rng_states(drivers):
    return [
        (d.be.rng.state, d.be.rng.words_read)
        for d in drivers
        if d.be is not None and d.be.packet_probability
    ]


def assert_scan_is_serial(n_src, probabilities, seeds, cycles):
    drivers, generator = scan_drivers(n_src, probabilities, seeds)
    rngs = serial_rngs(probabilities, seeds)
    live = [lane for lane, p in enumerate(probabilities) if p]
    want = sorted(
        (live[lane], cycle, src, dest)
        for lane, cycle, src, dest in serial_scan(rngs, n_src, cycles)
    )
    assert scanned_hits(generator, cycles) == want
    assert rng_states(drivers) == [(rng.state, rng.words_read) for rng, _ in rngs]
    return want, drivers


def assert_probe_is_serial(n_src, probabilities, seeds, limit):
    drivers, generator = scan_drivers(n_src, probabilities, seeds)
    rngs = serial_rngs(probabilities, seeds)
    idle = serial_probe(rngs, n_src, limit)
    assert generator.skip_idle(0, limit) == idle
    assert rng_states(drivers) == [(rng.state, rng.words_read) for rng, _ in rngs]
    return idle


def image(table, state: int) -> int:
    """A ``[4][256]`` byte table's image of ``state``: four lookups XORed."""
    out = 0
    for position, row in enumerate(table):
        out ^= row[(state >> (8 * position)) & 0xFF]
    return out


@needs_jit
class TestLookaheadScan:
    def test_table_rows_are_successive_reads(self):
        jumps, tops = trafficgen.lfsr_tables()
        assert jumps.shape == (3, 4, 256) and jumps.dtype == np.uint32
        assert tops.shape == (4, 256, 2) and tops.dtype == np.uint64
        assert not jumps.flags.writeable and not tops.flags.writeable
        assert trafficgen.lfsr_tables()[0] is jumps
        # J^1 is next_u32's own table
        j1, j8, j16 = jumps.tolist()
        assert j1 == [list(table) for table in _JUMP]
        # the 16 packed top bytes as one integer: byte k - 1 is word k's
        packed = [[lo | hi << 64 for lo, hi in row] for row in tops.tolist()]
        rng = np.random.default_rng(0xC0FFEE)
        for state in [1, 0xFFFFFFFF, *rng.integers(1, 2**32, size=20).tolist()]:
            lfsr = HardwareLfsr(state)
            words = [lfsr.next_u32() for _ in range(16)]
            assert image(j1, state) == words[0]
            assert image(j8, state) == words[7]
            assert image(j16, state) == words[15]
            assert image(packed, state) == int.from_bytes(
                bytes(word >> 24 for word in words), "little"
            )

    @pytest.mark.parametrize("n_src", sorted(SHAPES))
    def test_a_hit_at_every_block_position_is_the_serial_hit(self, n_src):
        # lane 0 and lane 2 each meet one planted word below the
        # threshold, a dead lane between them; every position of a full
        # block, the tail past the last block and cycle 1 are covered
        positions = sorted({*range(min(n_src, 2 * BLOCK + 1)), n_src - 1})
        for position in positions:
            for cycle, lane in ((0, 0), (1, 2), (1, 0)):
                seeds = [0xBEE, 0xBEE, 0xFEED]
                seeds[lane] = seed_reading(7, cycle * n_src + position + 1)
                probabilities = (RARE, None, RARE)
                hits, _ = assert_scan_is_serial(n_src, probabilities, seeds, 3)
                assert [hit[:3] for hit in hits] == [(lane, cycle, position)]
                idle = assert_probe_is_serial(n_src, probabilities, seeds, 3)
                assert idle == cycle

    @pytest.mark.parametrize("n_src", sorted(SHAPES))
    def test_back_to_back_hits_and_a_rejected_destination_word(self, n_src):
        # every word a hit: a packet per source, none taken by a block
        hits, drivers = assert_scan_is_serial(n_src, (1.0, 0.0, 1.0), (5, 6, 7), 2)
        assert len(hits) == 2 * 2 * n_src
        # the first word is a hit and the next reads 0xFFFFFFFF: past the
        # rejection span of every fabric but the 9-source one (bound 8)
        seed = seed_reading(BEFORE_ONES, 1)
        hits, drivers = assert_scan_is_serial(n_src, (RETRY,), (seed,), 1)
        assert hits[0][:3] == (0, 0, 0)
        words = drivers[0].be.rng.words_read
        assert words == n_src + len(hits) + (n_src != 9)

    @given(
        n_src=st.sampled_from(sorted(SHAPES)),
        probabilities=st.lists(
            st.sampled_from((None, 0.0, RARE, 0.002, 0.02, 0.3, RETRY, 1.0)),
            min_size=1, max_size=4,
        ).filter(lambda ps: any(ps)),
        seeds=st.lists(
            st.integers(min_value=1, max_value=PERIOD), min_size=4, max_size=4
        ),
        cycles=st.integers(min_value=1, max_value=5),
        planted=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=60, deadline=None)
    def test_scan_and_probe_equal_the_serial_lfsr(
        self, n_src, probabilities, seeds, cycles, planted
    ):
        # the first live lane reads a hit (7 is below every threshold
        # here) as its `planted`-th word, wherever that falls
        live = next(lane for lane, p in enumerate(probabilities) if p)
        seeds = list(seeds)
        seeds[live] = seed_reading(7, planted + 1)
        assert_scan_is_serial(n_src, probabilities, seeds, cycles)
        assert_probe_is_serial(n_src, probabilities, seeds, cycles + 2)


class DirectScan:
    """``repro_gen_be`` called directly, beside its serial model on
    :class:`HardwareLfsr`.

    No fabric is needed, so any source count works: the destination
    bound is ``max(n_src - 1, 1)``.  Each lane has a Bernoulli threshold
    (``None``: no BE stream), a seed and GT streams (``(period,
    [(phase, src, dest, vc), ...])``).  Every call checks the kernel's
    packets, stop cycle, LFSR states, word tally and counters against
    the model's, which the call advances alike.
    """

    BPF, BE_BYTES, GT_BYTES = 4, 8, 4  # BE packets are 4 flits, GT ones 3
    BE_VCS = (2, 3)

    def __init__(self, n_src, thresholds, seeds, gts=None):
        self.lib, self.ffi = trafficgen.stimuli_kernel()
        lanes = self.lanes = len(thresholds)
        self.n_src, self.thresholds = n_src, list(thresholds)
        self.bound = max(n_src - 1, 1)
        self.span = 2**32 // self.bound * self.bound
        self.gts = gts or [(1, [])] * lanes
        n_gt = self.n_gt = max(len(streams) for _, streams in self.gts) or 1
        self.rngs = [HardwareLfsr(seed) for seed in seeds]
        self.probe_words = 0
        # the kernel's tables
        self.states = np.array(seeds, dtype=np.int64)
        self.be_seq = np.zeros((lanes, n_src), dtype=np.int64)
        self.toggles = np.zeros((lanes, n_src), dtype=np.int64)
        self.gt_seq = np.zeros((lanes, n_gt), dtype=np.int64)
        self.gt_lane = np.zeros((3, lanes), dtype=np.int64)
        self.gt_stream = np.zeros((4, lanes, n_gt), dtype=np.int64)
        for lane, (period, streams) in enumerate(self.gts):
            self.gt_lane[:, lane] = len(streams), period, self.GT_BYTES
            for i, stream in enumerate(streams):
                self.gt_stream[:, lane, i] = stream
        # the model's counters
        self.model = (self.be_seq.tolist(), self.toggles.tolist(), self.gt_seq.tolist())

    def _call(self, start, stop, probe, budget, upto):
        lanes, ffi = self.lanes, self.ffi
        cap = max(stop - start, 1) * lanes * (self.n_src + self.n_gt)
        pk = np.zeros((9, 2 * cap), dtype=np.int64)
        tally = np.zeros(lanes + 1, dtype=np.int64)
        ends = np.zeros((2, lanes), dtype=np.int64)
        work = np.zeros(lanes * (self.n_gt + 5), dtype=np.int64)
        thresholds = np.array(
            [-1 if t is None else t for t in self.thresholds], dtype=np.int64
        )
        be_nbytes = np.full(lanes, self.BE_BYTES, dtype=np.int64)
        be_vcs = np.array(self.BE_VCS, dtype=np.int64)
        dests = np.full((lanes, self.n_src), -1, dtype=np.int64)  # uniform draws
        hot = np.full((2, lanes), -1, dtype=np.int64)  # no hotspot
        # both pairs of tables: the kernel picks each lane's path
        tables = [
            ffi.cast(f"uint{8 * table.itemsize}_t *", table.ctypes.data)
            for table in (*trafficgen.lfsr_tables(), *trafficgen.sparse_lfsr_tables())
        ]
        at = lambda array: trafficgen.pointer(ffi, array)  # noqa: E731
        stopped = self.lib.repro_gen_be(
            lanes, upto, self.n_src, start, stop, probe,
            at(thresholds), self.bound, self.span, at(dests), at(hot), *tables,
            at(self.states), at(tally), self.BPF, at(be_nbytes), at(self.be_seq),
            at(self.toggles), at(be_vcs), len(be_vcs), self.n_gt, at(self.gt_lane),
            at(self.gt_stream), at(self.gt_seq), at(work), at(pk), cap, budget,
            at(ends),
        )
        return stopped, pk, cap, tally, ends

    def _serial_window(self, start, stop, budget, upto):
        be_seq, toggles, gt_seq = self.model
        packets, flits, cycle = [], 0, start
        while cycle < stop and flits < budget:
            for lane in range(upto):
                period, streams = self.gts[lane]
                for i, (phase, src, dest, vc) in enumerate(streams):
                    if (cycle - phase) % period == 0:
                        seq = gt_seq[lane][i]
                        gt_seq[lane][i] = (seq + 1) & 0xFF
                        packets.append((lane, cycle, src, dest, vc, seq, i % 128, 1,
                                        self.GT_BYTES))
                        flits += 3
                threshold, rng = self.thresholds[lane], self.rngs[lane]
                if threshold is None:
                    continue
                for src in range(self.n_src):
                    if rng.next_u32() < threshold:
                        dest = rng.next_below(self.bound)
                        seq, toggle = be_seq[lane][src], toggles[lane][src]
                        be_seq[lane][src] = (seq + 1) & 0xFF
                        toggles[lane][src] = (toggle + 1) % len(self.BE_VCS)
                        packets.append((lane, cycle, src, dest + (dest >= src),
                                        self.BE_VCS[toggle], seq, seq % 128, 0,
                                        self.BE_BYTES))
                        flits += 4
            cycle += 1
        return packets, cycle

    def _serial_probe(self, start, stop):
        """Probe mode, as the kernel counts its words: a cycle's words
        lane by lane up to the first hit, which discards the cycle."""
        live = [rng for t, rng in zip(self.thresholds, self.rngs) if t is not None]
        for cycle in range(start, stop):
            before, examined = [(rng.state, rng.words_read) for rng in live], 0
            for t, rng in zip(self.thresholds, self.rngs):
                if t is None:
                    continue
                for k in range(self.n_src):
                    if rng.next_u32() < t:
                        for rng, state in zip(live, before):
                            rng.state, rng.words_read = state
                        self.probe_words += examined + k + 1
                        return cycle
                examined += self.n_src
            self.probe_words += examined
        return stop

    def _check_lanes(self, tally, words):
        assert self.states.tolist() == [rng.state for rng in self.rngs]
        assert tally[:-1].tolist() == [
            rng.words_read - read for rng, read in zip(self.rngs, words)
        ]

    def window(self, start, stop, budget=UNBOUNDED, upto=None):
        """One generate-mode scan; returns its packets (lane, cycle, src,
        dest, vc, seq, tag, gt, bytes) and the cycle it stopped at."""
        upto = self.lanes if upto is None else upto
        words = [rng.words_read for rng in self.rngs]
        stopped, pk, cap, tally, ends = self._call(start, stop, 0, budget, upto)
        want, cycle = self._serial_window(start, stop, budget, upto)
        assert stopped == cycle
        n = len(want)
        assert list(zip(*pk[:, :n].tolist())) == want
        by_lane = sorted(want, key=lambda packet: packet[0])  # stable
        assert list(zip(*pk[:, cap : cap + n].tolist())) == by_lane
        lanes = [packet[0] for packet in want]
        assert ends[0].tolist() == np.cumsum(
            [lanes.count(lane) for lane in range(self.lanes)]
        ).tolist()
        assert ends[1].tolist() == [
            sum(2 + -(-packet[8] // self.BPF) for packet in want if packet[0] == lane)
            for lane in range(self.lanes)
        ]
        self._check_lanes(tally, words)
        assert (self.be_seq.tolist(), self.toggles.tolist(), self.gt_seq.tolist()) == (
            self.model
        )
        return want, stopped

    def probe(self, start, stop):
        """One probe-mode scan; returns the cycle it stopped at."""
        words, probed = [rng.words_read for rng in self.rngs], self.probe_words
        stopped, _, _, tally, _ = self._call(start, stop, 1, UNBOUNDED, self.lanes)
        assert stopped == self._serial_probe(start, stop)
        assert tally[-1] == self.probe_words - probed
        self._check_lanes(tally, words)
        return stopped


#: source counts of the direct scan: shorter than a block, one block,
#: either side of one and two blocks, and long cycles
N_SRCS = (1, 7, 8, 15, 16, 17, 31, 36, 100)
#: a threshold whose hits have top byte 0: hits only where planted
T_RARE = 4096


def planted(word: int, position: int) -> int:
    """The seed whose ``position``-th word (from 0) is ``word``."""
    return seed_reading(word, position + 1)


def spans(cycles):
    """Windows ``[start, stop)`` covering ``[0, cycles)`` of growing
    length, so every cut falls somewhere new."""
    start, length = 0, 1
    while start < cycles:
        yield start, min(start + length, cycles)
        start, length = start + length, length + 1


@needs_jit
class TestBlockScan:
    @pytest.mark.parametrize("n_src", N_SRCS)
    def test_a_hit_at_every_block_position_and_across_cycles(self, n_src):
        # lane 1 reads its planted hit as word `position`: every position
        # of the first three blocks, wherever the cycle boundaries fall
        # (a 16-word block of 7 sources spans three cycles); lane 0 has
        # no hit, lane 2 no BE stream
        cycles = 3 * BLOCK // n_src + 2
        for position in range(3 * BLOCK + 1):
            seeds = (0xBEE, planted(T_RARE - 1, position), 0xFEED)
            thresholds = (T_RARE, T_RARE, None)
            hits, stop = DirectScan(n_src, thresholds, seeds).window(0, cycles)
            assert stop == cycles
            assert [hit[:3] for hit in hits] == [(1, *divmod(position, n_src))]
            probe = DirectScan(n_src, thresholds, seeds)
            assert probe.probe(0, cycles) == position // n_src
            # a window per cycle: the block is cut at every boundary
            scan = DirectScan(n_src, thresholds, seeds)
            assert [scan.window(c, c + 1)[1] for c in range(cycles)] == list(
                range(1, cycles + 1)
            )

    @pytest.mark.parametrize(
        "threshold",
        [1, 2, T_RARE, 2**24 - 1, 2**24, 2**24 + 1, (5 << 24) - 1, 5 << 24,
         (5 << 24) + 1, (0x7F << 24) + 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32],
    )
    @pytest.mark.parametrize("n_src", [7, 36])
    def test_thresholds_at_the_byte_limit(self, threshold, n_src):
        # lane 0 reads the largest hit, threshold - 1, whose top byte is
        # the scan's byte limit; lane 1 reads the threshold itself, a
        # candidate of that byte or the next that is no hit
        seeds = [0xBEE, 0xC0DE, 0xFEED]
        if threshold > 1:
            seeds[0] = planted(threshold - 1, 20)
        if threshold < 2**32:
            seeds[1] = planted(threshold, 9)
        scan = DirectScan(n_src, (threshold,) * 3, seeds)
        hits, _ = scan.window(0, 80 // n_src + 1)
        if 1 < threshold <= 2**24 + 1:  # no earlier hit shifts its words
            assert (0, *divmod(20, n_src)) in [hit[:3] for hit in hits]
        probe = DirectScan(n_src, (threshold,) * 3, seeds)
        probe.probe(0, 80 // n_src + 1)

    @given(
        n_src=st.sampled_from(N_SRCS),
        thresholds=st.lists(
            st.sampled_from(
                (None, 0, T_RARE, 1 << 24, int(0.002 * 2**32), int(0.02 * 2**32),
                 int(0.3 * 2**32), 2**31 + 1, 2**32)
            ),
            min_size=1, max_size=4,
        ),
        seeds=st.lists(st.integers(1, PERIOD), min_size=4, max_size=4),
        position=st.integers(0, 200),
        budget=st.sampled_from((1, 4, 30, 200, UNBOUNDED)),
        gt=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_windows_cut_by_the_budget_and_the_limit(
        self, n_src, thresholds, seeds, position, budget, gt
    ):
        # lanes scan ahead across cycles; every window ends at a budget
        # cut or at its limit, and each lane must stand exactly there
        seeds = list(seeds)
        seeds[0] = planted(T_RARE - 1, position)
        gts = None
        if gt:
            streams = [(1, 0, n_src - 1, 0), (4, n_src - 1, 0, 1)]
            gts = [(5 + lane, streams[: lane % 3]) for lane in range(len(thresholds))]
        scan = DirectScan(n_src, thresholds, seeds[: len(thresholds)], gts)
        cycles = 400 // n_src + 3
        for start, limit in spans(cycles):
            while start < limit:
                _, start = scan.window(start, limit, budget)

    @pytest.mark.parametrize("n_src", [7, 36])
    def test_a_scan_past_the_budget_cut_stands_at_the_cut(self, n_src):
        # lane 0 fills the budget in cycle 0; lane 1 had scanned ahead to
        # its hit in cycle 9 and lane 2 to the limit, so both are
        # advanced again to the cut — and find the same hit from there
        seeds = (0xBEE, planted(T_RARE - 1, 9 * n_src + 2), 0xFEED)
        scan = DirectScan(n_src, (2**32, T_RARE, T_RARE), seeds)
        assert scan.window(0, 12, budget=4)[1] == 1
        hits, stop = scan.window(1, 12)
        assert stop == 12 and (1, 9, 2) in [hit[:3] for hit in hits]

    def test_gt_firings_between_two_hits(self):
        # sparse BE lanes whose GT streams fire between their hits: the
        # cycle-major loop must visit every firing, however far the
        # lane's scan ran ahead to its next hit
        n_src, threshold = 17, int(0.004 * 2**32)
        gts = [
            (6, [(2, 3, 4, 0)]),
            (1, []),
            (4, [(1, 0, 5, 0), (3, 16, 2, 1)]),
            (9, [(8, 7, 7, 1)]),
        ]
        seeds = (0xBEE, 0x5EED, 0xFEED, 0xC0DE)
        scan = DirectScan(n_src, (threshold, threshold, None, threshold), seeds, gts)
        packets, start = [], 0
        for budget in (UNBOUNDED, 10, 1, 25, UNBOUNDED):
            window, start = scan.window(start, start + 60, budget)
            packets += window
        for lane in (0, 3):
            hits = [p[1] for p in packets if p[0] == lane and not p[7]]
            firings = [p[1] for p in packets if p[0] == lane and p[7]]
            assert any(a < f < b for a, b in zip(hits, hits[1:]) for f in firings)

    @pytest.mark.parametrize("n_src", [7, 36])
    def test_a_rewound_window_scans_a_prefix_of_the_lanes(self, n_src):
        # BatchedBeGenerator.rewind: the window to the fatal cycle, then
        # that cycle for the lanes up to the failing one
        seeds = (planted(T_RARE - 1, 3 * n_src + 5), 0xBEE, planted(T_RARE - 1, 40))
        thresholds = (T_RARE, int(0.05 * 2**32), T_RARE)
        gts = [(3, [(0, 1, 2, 0)])] * 3
        for upto in (1, 2):
            scan = DirectScan(n_src, thresholds, seeds, gts)
            scan.window(0, 3)
            scan.window(3, 4, upto=upto)

    @pytest.mark.parametrize("lanes", [1, 4, 16])
    def test_probe_words_are_the_cycles_examined(self, lanes):
        # the probe reads cycle by cycle: every word it examines lies in
        # a completed cycle or the discarded one, the last lane's hit
        # included — never more than 2 x lanes x n_src per cycle skipped
        n_src, hit_cycle = 36, 5
        seeds = [0xBEE + lane for lane in range(lanes)]
        seeds[-1] = planted(T_RARE - 1, hit_cycle * n_src + 30)
        scan = DirectScan(n_src, (T_RARE,) * lanes, seeds)
        assert scan.probe(0, 40) == hit_cycle
        assert scan.probe_words == lanes * n_src * (hit_cycle + 1) - (n_src - 31)
        assert scan.probe_words <= 2 * lanes * n_src * hit_cycle
        # a limit before the hit: exactly the cycles up to it
        scan = DirectScan(n_src, (T_RARE,) * lanes, seeds)
        assert scan.probe(0, 3) == 3 and scan.probe_words == lanes * n_src * 3


#: LFSR words a sparse lane's scan takes per dependency step
SPARSE_BLOCK = 32


@functools.lru_cache(maxsize=None)
def top_byte_zero_pair(max_gap: int):
    """``(first, second, gap)``: two words of one LFSR stream whose top
    bytes are 0 — candidates at any sparse threshold — read ``gap <=
    max_gap`` words apart, ``first > second``."""
    rng, last = HardwareLfsr(0xBEE), None
    for index in range(1 << 20):
        word = rng.next_u32()
        if word >> 24:
            continue
        if last is not None and index - last[0] <= max_gap and last[1] > word:
            return last[1], word, index - last[0]
        last = (index, word)
    raise AssertionError("no pair")


def block_bit(position: int) -> int:
    """The bit of the scan's folded candidate mask that stands for word
    ``position`` of a 32-word block: byte ``position % 8`` of uint64
    ``position // 8``."""
    return 8 * (position % 8) + position // 8


@needs_jit
class TestSparseScan:
    """Lanes at or under ``trafficgen.SPARSE_CUTOFF``: 32 words a step, a
    lone candidate tested without a branch, a block of several through
    a dense step — word for word the serial scan."""

    def test_table_rows_are_successive_reads(self):
        rows, tops32 = trafficgen.sparse_lfsr_tables()
        assert rows.shape == (32, 4, 256) and rows.dtype == np.uint32
        assert tops32.shape == (4, 256, 4) and tops32.dtype == np.uint64
        assert not rows.flags.writeable and not tops32.flags.writeable
        assert trafficgen.sparse_lfsr_tables()[0] is rows
        # the 32 packed top bytes as one integer: byte k - 1 is word k's
        packed = [
            [sum(word << (64 * i) for i, word in enumerate(entry)) for entry in row]
            for row in tops32.tolist()
        ]
        rows = rows.tolist()
        rng = np.random.default_rng(0xC0FFEE)
        for state in [1, 0xFFFFFFFF, *rng.integers(1, 2**32, size=20).tolist()]:
            lfsr = HardwareLfsr(state)
            words = [lfsr.next_u32() for _ in range(SPARSE_BLOCK)]
            # row k - 1 is the k-th next read
            assert [image(row, state) for row in rows] == words
            assert image(packed, state) == int.from_bytes(
                bytes(word >> 24 for word in words), "little"
            )

    @pytest.mark.parametrize("n_src", [19, 36, 100])
    def test_a_hit_at_every_position_of_two_blocks_and_the_tail(self, n_src):
        # lane 1 reads its planted hit as word `position` of the window:
        # two whole blocks and a tail after them (19 sources: 31 words;
        # 36 and 100: a third block first), across cycle boundaries in
        # generate mode, inside one cycle's words in probe mode
        cycles = -(-(2 * SPARSE_BLOCK + 31) // n_src)
        for position in range(n_src * cycles):
            seeds = (0xBEE, planted(T_RARE - 1, position), 0xFEED)
            thresholds = (T_RARE, T_RARE, None)
            hits, stop = DirectScan(n_src, thresholds, seeds).window(0, cycles)
            assert stop == cycles
            assert [hit[:3] for hit in hits] == [(1, *divmod(position, n_src))]
            probe = DirectScan(n_src, thresholds, seeds)
            assert probe.probe(0, cycles) == position // n_src

    @pytest.mark.parametrize("n_src", [7, 36])
    def test_a_false_candidate_before_a_hit(self, n_src):
        # a word of top byte 0 at or above the threshold, then the hit
        # `gap` words on: in the same block, and in the block before.
        # A lone candidate that is no hit takes the whole block; two
        # are tested in order, whichever the folded mask holds lower
        first, second, gap = top_byte_zero_pair(SPARSE_BLOCK // 2)
        threshold = second + 1
        placements = range(SPARSE_BLOCK - 1)
        same = [p for p in placements if p + gap < SPARSE_BLOCK]
        assert any(block_bit(p) < block_bit(p + gap) for p in same)
        assert any(p + gap >= SPARSE_BLOCK for p in placements)
        cycles = 2 * SPARSE_BLOCK // n_src + 1
        for position in placements:
            seeds = (0xBEE, planted(first, position))
            scan = DirectScan(n_src, (threshold, threshold), seeds)
            hits, _ = scan.window(0, cycles)
            assert (1, *divmod(position + gap, n_src)) in [hit[:3] for hit in hits]
            DirectScan(n_src, (threshold, threshold), seeds).probe(0, cycles)

    @pytest.mark.parametrize("n_src", [7, 36, 100])
    def test_two_false_candidates_in_one_block(self, n_src):
        # both words at or above the threshold: the block takes a dense
        # step per candidate, and no word is lost or read twice
        first, second, gap = top_byte_zero_pair(SPARSE_BLOCK - 1)
        threshold = min(first, second)
        cycles = 2 * SPARSE_BLOCK // n_src + 1
        for position in range(SPARSE_BLOCK - gap):
            seeds = (planted(first, position), 0xBEE)
            scan = DirectScan(n_src, (threshold, T_RARE), seeds)
            hits, _ = scan.window(0, cycles)
            assert (0, *divmod(position, n_src)) not in [hit[:3] for hit in hits]
            DirectScan(n_src, (threshold, T_RARE), seeds).probe(0, cycles)

    @pytest.mark.parametrize(
        "threshold", [1, 2**24, 2**24 + 1, trafficgen.SPARSE_CUTOFF, trafficgen.SPARSE_CUTOFF + 1]
    )
    @pytest.mark.parametrize("n_src", [4, 36, 100])
    def test_thresholds_at_the_cutoff(self, threshold, n_src):
        # lane 0 reads the largest hit, threshold - 1 (none at 1: the
        # LFSR never reads 0), lane 1 the threshold itself, a candidate
        # that is no hit; ~3,600 words a lane, so that blocks of two or
        # more candidates come up.  The probe runs on past each hit
        # through a one-cycle window, as the fast-forward does
        # the binding's cutoff is the kernel's
        assert trafficgen.SPARSE_CUTOFF == 2**25
        assert "#define SPARSE_CUTOFF ((int64_t)1 << 25)" in trafficgen._SOURCE
        seeds = [0xBEE, planted(threshold, 9), 0xFEED]
        if threshold > 1:
            seeds[0] = planted(threshold - 1, 20)
        cycles = 3600 // n_src
        thresholds = (threshold,) * 3
        hits, _ = DirectScan(n_src, thresholds, seeds).window(0, cycles)
        if threshold > 1:
            assert (0, *divmod(20, n_src)) in [hit[:3] for hit in hits]
        scan, cycle = DirectScan(n_src, thresholds, seeds), 0
        while cycle < cycles:
            cycle = scan.probe(cycle, cycles)
            if cycle < cycles:
                cycle = scan.window(cycle, cycle + 1)[1]


# --------------------------------------------------------------------------
# (b) where the budget cuts is invisible
# --------------------------------------------------------------------------

def event_columns(log, record):
    """Every field of every event of ``log``, one row per field."""
    names = [field.name for field in dataclasses.fields(record)]
    if isinstance(log, LaneView):  # packed words, unpacked
        fields = log.log.layout.unpack(log.arrays(0, len(log)))
        return [row.tolist() for row in fields[: len(names)]]
    return record_block(log, names).tolist()


def lane_columns(view, driver, drained):
    """One lane (or one solo engine) after run + drain + collect: state,
    event columns, submit log, samples, generators, stall counters."""
    driver.tracker.collect(view)
    be, gt = driver.sources
    return (
        view.snapshot(),
        event_columns(view.injections, InjectionRecord),
        event_columns(view.ejections, EjectionRecord),
        repr(driver.submits),
        driver.tracker.samples,
        None if be is None else (be.rng.state, be.rng.words_read, list(be._seq)),
        None if gt is None else list(gt._seq),
        list(driver._be_vc_toggle),
        dict(driver._stall),
        driver.flits_generated,
        drained,
    )


def tracked(driver):
    driver.attach_tracker(PacketLatencyTracker(driver.net))
    driver.sources = (driver.be, driver.gt)
    return driver


def be16_lane(target, lane):
    net = target.cfg
    return TrafficDriver(
        target, be=BernoulliBeTraffic(net, 0.08, uniform_random(net), seed=0xBEE + lane)
    )


#: Fig. 1 in small: shared seed, a zero-load and a BE-less lane, GT
#: streams firing several times in a run
FIG1_LOADS = (0.0, 0.04, None, 0.14, 0.08)


def fig1_lane(target, lane):
    net, load = target.cfg, FIG1_LOADS[lane]
    be = None
    if load is not None:
        be = BernoulliBeTraffic(net, load, uniform_random(net), seed=0x5EED)
    return TrafficDriver(
        target, be=be, gt=GtStreamTraffic(net, fig1_gt_streams(net).streams, period=130)
    )


def hbr_lane(target, lane):
    net = target.cfg
    return TrafficDriver(
        target, be=BernoulliBeTraffic(net, 0.3, uniform_random(net), seed=0xBEE)
    )


def pattern_lane(target, lane):
    net = target.cfg
    pattern = (transpose(net), hotspot(net, target=14, fraction=0.4))[lane]
    return TrafficDriver(
        target,
        be=BernoulliBeTraffic(net, 0.2, pattern, seed=0x7A77),
        gt=GtStreamTraffic(net, fig1_gt_streams(net).streams, period=97),
    )


#: name -> (engine, lanes, lane driver, cycles, windows at the default
#: budget, traffic source)
CASES = {
    "be16": (lambda: BatchEngine(fig1_network(), lanes=16, kernel="levelized"),
             16, be16_lane, 400, 3, "C scan"),
    "fig1": (lambda: BatchEngine(fig1_network(), lanes=5), 5, fig1_lane, 300, 7, "C scan"),
    "hbr": (lambda: SequentialEngine(fig1_network()), 1, hbr_lane, 1000, 2, "C scan"),
    "patterns": (lambda: BatchEngine(fig1_network(), lanes=2), 2, pattern_lane,
                 280, 4, "C scan"),
}


def run_budgeted(case, budget, monkeypatch):
    """One case under ``budget`` (``None``: the default): per-lane
    columns, the delta column, the engine and the windows it ran."""
    make_engine, lanes, make_lane, cycles, _, source = CASES[case]
    windows = []
    real = CompiledBatchLevel.run_chunk

    def run_chunk(self, drivers, k, window=None):
        windows.append((self.engine.cycle, k, int(window.flits.shape[1])))
        real(self, drivers, k, window)

    with monkeypatch.context() as patch:
        patch.setattr(CompiledBatchLevel, "run_chunk", run_chunk)
        if budget is not None:
            patch.setattr(stimuli, "FLIT_BUDGET", budget)
        engine = make_engine()
        views = lane_views(engine)
        drivers = [tracked(make_lane(view, lane)) for lane, view in enumerate(views)]
        assert (trafficgen.scan_decline(drivers) is None) == (source == "C scan")
        run_batched(engine, drivers, cycles)
    for driver in drivers:
        driver.be = driver.gt = None
    drained = drain_batched(engine, drivers)
    columns = [
        lane_columns(view, driver, done)
        for view, driver, done in zip(views, drivers, drained)
    ]
    return columns, list(engine.metrics.per_cycle), engine, windows


@needs_jit
class TestBudgetWindows:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_flit_default_and_unbounded_windows_equal_the_golden_engine(
        self, case, monkeypatch
    ):
        _, lanes, make_lane, cycles, expected, _ = CASES[case]
        columns, deltas, engine, windows = run_budgeted(case, None, monkeypatch)
        # the default budget cuts this run, at cycle boundaries, each
        # window the first to reach the budget
        assert len(windows) == expected == engine.kernel_windows
        assert [start for start, _, _ in windows] == [
            sum(k for _, k, _ in windows[:i]) for i in range(len(windows))
        ]
        assert sum(k for _, k, _ in windows) == cycles == engine.kernel_window_cycles
        assert all(flits >= stimuli.FLIT_BUDGET for _, _, flits in windows[:-1])
        assert sum(f for _, _, f in windows) == engine.kernel_window_flits

        ones, ones_deltas, _, one_windows = run_budgeted(case, 1, monkeypatch)
        # one flit: a window ends with the first cycle that generated
        assert len(one_windows) > cycles // 3
        assert all(flits > 0 for _, _, flits in one_windows[:-1])
        whole, whole_deltas, _, (one,) = run_budgeted(case, UNBOUNDED, monkeypatch)
        assert one[:2] == (0, cycles)
        assert ones == columns == whole
        assert ones_deltas == deltas == whole_deltas

        total = engine.cycle
        for lane in sorted({0, lanes // 2, lanes - 1}):
            golden = CycleEngine(fig1_network())
            driver = tracked(make_lane(golden, lane))
            driver.run(cycles)
            driver.be = driver.gt = None
            drained = driver.drain()
            golden.run(total - golden.cycle)  # lanes idle until the slowest drained
            assert columns[lane] == lane_columns(golden, driver, drained)
        assert sum(len(lane[1][0]) for lane in columns) > 1000

    def test_a_window_stops_at_the_first_boundary_holding_the_budget(self, monkeypatch):
        # the rule itself, on uniform and on pattern lanes: against the
        # per-cycle flit counts of one unbounded window
        for make_lane, lanes in ((fig1_lane, 5), (pattern_lane, 2)):
            def source(budget):
                monkeypatch.setattr(stimuli, "FLIT_BUDGET", budget)
                engine = BatchEngine(fig1_network(), lanes=lanes)
                return trafficgen.BatchedBeGenerator(
                    [make_lane(engine.lane(i), i) for i in range(lanes)]
                )

            whole = source(UNBOUNDED).generate_window(0, 400)
            assert whole.stop == 400
            per_cycle = np.bincount(whole.flits[stimuli.F_CYCLE], minlength=400)
            for budget in (1, 500, 4000):
                windows, start = source(budget), 0
                while start < 400:
                    window = windows.generate_window(start, 400)
                    held = np.cumsum(per_cycle[start:])
                    reached = int(np.searchsorted(held, budget)) + 1
                    assert window.stop == min(start + reached, 400)
                    assert window.flits.shape[1] == held[window.stop - start - 1]
                    start = window.stop

    def test_the_scan_scratch_is_sized_by_the_budget(self):
        engine = BatchEngine(fig1_network(), lanes=16)
        generator = trafficgen.BatchedBeGenerator(make_drivers(engine, 0.08))
        cap = generator._packets.shape[1] // 2
        assert cap == stimuli.FLIT_BUDGET // 3 + 16 * (36 + 1)
        # every lane hitting on every source in the last cycle still fits
        for be in (d.be for d in generator.drivers):
            be.packet_probability = 1.0
        full = trafficgen.BatchedBeGenerator(generator.drivers)
        window = full.generate_window(0, 50)
        assert window.stop < 50 and window.packets.shape[1] <= cap
        assert generator._packets.nbytes < 512 * 1024


# --------------------------------------------------------------------------
# (c) an overload inside a cut window
# --------------------------------------------------------------------------

@needs_jit
class TestOverloadInsideACutWindow:
    # the failing lane: a middle one (later lanes have not generated the
    # fatal cycle), the last one
    @pytest.mark.parametrize(
        "pattern, seed, stall_limit, failing",
        [("uniform", 0xBEE, 60, 1), ("transpose", 0x5EED, 40, 2)],
    )
    def test_engine_drivers_and_generators_stop_where_the_reference_stops(
        self, pattern, seed, stall_limit, failing, monkeypatch
    ):
        cfg = NetworkConfig(4, 4, topology="torus", router=RouterConfig(queue_depth=1))
        monkeypatch.setattr(stimuli, "FLIT_BUDGET", 500)
        windows = []
        real = CompiledBatchLevel.run_chunk

        def run_chunk(self, drivers, k, window=None):
            windows.append((self.engine.cycle, self.engine.cycle + k))
            real(self, drivers, k, window)

        monkeypatch.setattr(CompiledBatchLevel, "run_chunk", run_chunk)
        results = {}
        for kernel in ("python", "levelized"):
            engine = BatchEngine(cfg, lanes=3, kernel=kernel)
            drivers = [
                TrafficDriver(
                    engine.lane(i),
                    be=BernoulliBeTraffic(
                        cfg,
                        0.6,
                        uniform_random(cfg) if pattern == "uniform" else transpose(cfg),
                        seed=seed + i,
                    ),
                    stall_limit=stall_limit,
                )
                for i in range(3)
            ]
            declined = trafficgen.scan_decline(drivers)
            with pytest.raises(NetworkOverloadError) as err:
                run_batched(engine, drivers, 2000)
            results[kernel] = (
                str(err.value),
                full_digest(engine, drivers),
                [d.overloaded for d in drivers],
                [
                    (list(d.be._seq), list(d._be_vc_toggle), list(d.queues))
                    for d in drivers
                ],
            )
        assert results["levelized"] == results["python"]
        assert declined is None  # every pattern: the C scan
        # the fatal window was a later one, cut short by the budget, and
        # the overload fell strictly inside it
        start, stop = windows[-1]
        assert len(windows) > 2 and stop < 2000
        assert start < engine.cycle < stop - 1
        assert results["python"][2].index(True) == failing


# --------------------------------------------------------------------------
# (d) fast-forward across one window of many idle gaps
# --------------------------------------------------------------------------

@needs_jit
class TestFastForwardAcrossALongWindow:
    def test_on_equals_off_in_windows_and_per_cycle(self, monkeypatch):
        cfg, lanes, load, cycles = fig1_network(), 2, 0.0005, 6000
        made = capture_generator(monkeypatch)
        digests = {}
        for name, kernel, fast_forward, hooked in (
            ("reference", "python", False, False),
            ("windows", "levelized", False, False),
            ("windows+ff", "levelized", True, False),
            ("per-cycle+ff", "levelized", True, True),
        ):
            engine = BatchEngine(cfg, lanes=lanes, kernel=kernel)
            drivers = make_drivers(engine, load)
            if hooked:  # dormant to the end: the run steps, and may skip
                engine.pre_step_hooks.append(PlannedFault(cycles, lambda e: None))
            skips = spy_skips(engine)
            run_batched(engine, drivers, cycles, fast_forward=fast_forward)
            digests[name] = full_digest(engine, drivers)
            if name == "windows":
                # one window; its idle gaps are the kernel's to jump
                assert engine.kernel_windows == 1 and not skips
                assert engine.kernel_lane_cycles < lanes * cycles // 2
                packets = sum(len(d.submits) for d in drivers)
                assert packets > 20
            elif name == "windows+ff":
                # the probe fires once, up to the first arrival
                assert len(skips) == 1 and engine.kernel_windows == 1
            elif name == "per-cycle+ff":
                # the probe finds every gap, within its word budget
                assert engine.kernel_windows == 0 and len(skips) > packets // 2
                assert sum(skips) > cycles // 2
                words = made[-1].probe_words
                assert 0 < words <= 2 * lanes * cfg.n_routers * sum(skips)
        assert len(set(map(repr, digests.values()))) == 1
