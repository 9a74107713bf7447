"""The columnar event log: a list to its readers, arrays until read.

``EventLog`` replaces the per-lane record lists of the batch engine.
The fused chunk kernel hands it column blocks; the per-cycle paths keep
appending records.  Every reader in the repo — ``len``, ``log[seen:]``
cursors, ``[lo:hi]`` window copies, iteration, ``==`` against a
reference engine's plain list — must see exactly the list the old
per-event extraction loop built, and must be the *only* thing that ever
builds a record.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.batch import BatchEngine, run_batched
from repro.engines.eventlog import EventLog, log_window
from repro.kernels import probe_backends
from repro.kernels.batchlevel import CompiledBatchLevel
from repro.noc import NetworkConfig, RouterConfig
from repro.noc.network import EjectionRecord, InjectionRecord
from repro.traffic.generators import BernoulliBeTraffic, uniform_random
from repro.traffic.stimuli import TrafficDriver

JIT_REASON = probe_backends()["cffi"]
needs_jit = pytest.mark.skipif(
    JIT_REASON != "ok", reason=f"cffi backend unavailable: {JIT_REASON}"
)


def record(i: int) -> EjectionRecord:
    return EjectionRecord(cycle=i, router=i % 7, vc=i % 4, flit_word=1000 + i)


def block_of(lo: int, hi: int) -> np.ndarray:
    """The ``[fields, n]`` column block holding ``record(lo..hi-1)``."""
    idx = np.arange(lo, hi, dtype=np.int64)
    return np.stack([idx, idx % 7, idx % 4, 1000 + idx])


def mixed_log(n_parts: int = 6, width: int = 5):
    """A log alternating block parts and appended tails, and the plain
    list it must read as."""
    log = EventLog(EjectionRecord)
    want = []
    at = 0
    for part in range(n_parts):
        if part % 2 == 0:
            log.extend_block(block_of(at, at + width), 0, width)
        else:
            for i in range(at, at + width):
                log.append(record(i))
        want.extend(record(i) for i in range(at, at + width))
        at += width
    return log, want


class TestSequenceSurface:
    def test_empty(self):
        log = EventLog(InjectionRecord)
        assert len(log) == 0
        assert log[:] == [] and list(log) == [] and log == []
        assert log[3:] == []
        with pytest.raises(IndexError):
            log[0]

    def test_len_and_indexing(self):
        log, want = mixed_log()
        assert len(log) == len(want) == 30
        for i in range(-len(want), len(want)):
            assert log[i] == want[i]
        for bad in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                log[bad]

    def test_slices(self):
        log, want = mixed_log()
        bounds = (None, 0, 1, 4, 5, 6, 12, 29, 30, 99, -1, -7, -30, -99)
        for lo in bounds:
            for hi in bounds:
                assert log[lo:hi] == want[lo:hi], (lo, hi)
        assert log[::3] == want[::3]
        assert log[::-1] == want[::-1]
        assert log[20:3:-2] == want[20:3:-2]
        assert isinstance(log[2:9], list)

    def test_cursor_reads(self):
        # PacketLatencyTracker.collect / controller / RetrieveStage:
        # remember len, later read log[seen:] or log[lo:hi].
        log = EventLog(EjectionRecord)
        want, seen, got = [], 0, []
        for step in range(9):
            lo, hi = 4 * step, 4 * step + 4
            if step % 3:
                log.extend_block(block_of(lo, hi), 0, 4)
            else:
                for i in range(lo, hi):
                    log.append(record(i))
            want.extend(record(i) for i in range(lo, hi))
            if step % 2:
                got.extend(log[seen:])
                seen = len(log)
        got.extend(log[seen : len(log)])
        assert got == want

    def test_iteration_and_equality(self):
        log, want = mixed_log()
        assert list(log) == want
        assert [r.cycle for r in log] == list(range(30))
        assert log == want and want == log
        assert not (log != want) and not (want != log)
        other, _ = mixed_log()
        assert log == other
        for wrong in (want[:-1], want + [record(30)], want[:3] + [record(99)] + want[4:]):
            assert log != wrong and wrong != log
            assert not (log == wrong) and not (wrong == log)
        assert log != tuple(want)  # like a list: no cross-type equality

    def test_block_slices_are_not_copied_or_clipped_wrongly(self):
        # One chunk's block is shared by every lane: each log sees only
        # its own [lo, hi) columns of it.
        block = block_of(0, 12)
        a, b = EventLog(EjectionRecord), EventLog(EjectionRecord)
        a.extend_block(block, 0, 5)
        b.extend_block(block, 5, 12)
        a.extend_block(block, 5, 5)  # empty range: no part
        assert a == [record(i) for i in range(5)]
        assert b == [record(i) for i in range(5, 12)]
        assert b[1:3] == [record(6), record(7)]
        assert len(a._parts) == 1

    def test_interleaved_appends_and_blocks_keep_cycle_order(self):
        # A run that mixes per-cycle stepping (appends) with chunked
        # windows (blocks), as drain_batched after run_batched does.
        log = EventLog(EjectionRecord)
        at = 0
        for width in (1, 3, 0, 2, 5, 1, 0, 4):
            log.extend_block(block_of(at, at + width), 0, width)
            at += width
            log.append(record(at))
            log.append(record(at + 1))
            at += 2
        assert [r.cycle for r in log] == list(range(at))
        assert log == [record(i) for i in range(at)]


class TestSmallBlocksCoalesce:
    """Single-cycle steps log a few events per call: they join one part
    in the log's tail buffer instead of leaving one part per cycle."""

    def test_many_small_blocks_few_parts(self):
        log = EventLog(EjectionRecord)
        want, at = [], 0
        for step in range(4000):
            width = step % 4  # 0..3 events per "cycle"
            log.extend_block(block_of(at, at + width), 0, width)
            want.extend(record(i) for i in range(at, at + width))
            at += width
        assert len(log) == len(want) == 6000
        assert log == want
        assert log[1234:1250] == want[1234:1250]
        # tail buffers double from 256 to 4096 columns: O(N / block) parts
        assert len(log._parts) <= 6
        sizes = [part[2] - part[1] for part in log._parts]
        assert all(cap - 3 < n <= cap for n, cap in zip(sizes, (256, 512, 1024, 2048)))

    def test_wide_blocks_stay_by_reference_between_small_ones(self):
        log = EventLog(EjectionRecord)
        wide = block_of(2, 102)
        log.extend_block(block_of(0, 2), 0, 2)
        log.extend_block(wide, 0, 100)
        log.extend_block(block_of(102, 103), 0, 1)
        log.extend_block(block_of(103, 105), 0, 2)
        log.append(record(105))
        log.extend_block(block_of(106, 108), 0, 2)
        assert log == [record(i) for i in range(108)]
        assert log._parts[1][0] is wide
        assert [type(p) for p in log._parts] == [tuple, tuple, tuple, list, tuple]
        # the three small parts share one tail buffer, disjoint columns
        small = [log._parts[i] for i in (0, 2, 4)]
        assert len({id(p[0]) for p in small}) == 1
        assert [(p[1], p[2]) for p in small] == [(0, 2), (2, 5), (5, 7)]

    def test_a_caller_may_reuse_a_small_block(self):
        log = EventLog(EjectionRecord)
        scratch = block_of(0, 3)
        log.extend_block(scratch, 0, 3)
        scratch[:] = -1
        assert log == [record(i) for i in range(3)]


class TestColumns:
    def test_columns_equal_the_record_fields(self):
        log, want = mixed_log()
        for lo, hi in ((0, 30), (3, 17), (5, 5), (29, 30), (0, 0)):
            block = log.arrays(lo, hi)
            assert block.dtype == np.int64 and block.shape == (4, hi - lo)
            assert list(zip(*block.tolist())) == [
                (r.cycle, r.router, r.vc, r.flit_word) for r in want[lo:hi]
            ]
            # a plain record list (the Python engines' logs) reads the same
            assert np.array_equal(log_window(want, lo, hi), block)
        inj = EventLog(InjectionRecord)
        inj.extend_block(np.arange(10, dtype=np.int64).reshape(5, 2), 0, 2)
        assert inj.arrays(0, 2).tolist() == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        assert inj.arrays(0, 0).shape == (5, 0)

    def test_columns_build_no_record(self, monkeypatch):
        log = EventLog(EjectionRecord)
        log.extend_block(block_of(0, 100), 0, 100)
        log.extend_block(block_of(100, 103), 0, 3)
        built = []
        original = EjectionRecord.__init__
        monkeypatch.setattr(
            EjectionRecord,
            "__init__",
            lambda self, *a, **k: (built.append(1), original(self, *a, **k))[1],
        )
        assert log.arrays(0, 103)[0].tolist() == list(range(103))
        assert built == []
        assert log[101].cycle == 101 and built == [1]


def old_extract_events(events, n_sent, n_ej, lanes, vc_shift):
    """The per-event extraction loop this log replaced, verbatim."""
    injections = [[] for _ in range(lanes)]
    ejections = [[] for _ in range(lanes)]
    for b, r, v, w, d, c in zip(
        events["sent_lane"][:n_sent].tolist(),
        events["sent_r"][:n_sent].tolist(),
        events["sent_vc"][:n_sent].tolist(),
        events["sent_word"][:n_sent].tolist(),
        events["sent_delay"][:n_sent].tolist(),
        events["sent_cycle"][:n_sent].tolist(),
    ):
        injections[b].append(InjectionRecord(c, r, v, w, d))
    mask = (1 << vc_shift) - 1
    for b, r, w, c in zip(
        events["ej_lane"][:n_ej].tolist(),
        events["ej_r"][:n_ej].tolist(),
        events["ej_word"][:n_ej].tolist(),
        events["ej_cycle"][:n_ej].tolist(),
    ):
        ejections[b].append(EjectionRecord(c, r, w >> vc_shift, w & mask))
    return injections, ejections


VC_SHIFT = 18


@st.composite
def chunked_runs(draw):
    """Lane count plus a few chunks of kernel-ordered events: per cycle,
    lanes ascending, routers ascending within a lane."""
    lanes = draw(st.integers(min_value=1, max_value=5))
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n_cycles = draw(st.integers(min_value=1, max_value=64))
        rate = draw(st.sampled_from([0.0, 0.05, 0.4]))
        seed = draw(st.integers(min_value=0, max_value=2**31))
        chunks.append((n_cycles, rate, seed))
    return lanes, chunks


class TestMatchesOldExtraction:
    @given(run=chunked_runs())
    @settings(max_examples=60, deadline=None)
    def test_logs_equal_the_old_record_lists(self, run):
        lanes, chunks = run
        routers = 6
        inj_logs = [EventLog(InjectionRecord) for _ in range(lanes)]
        ej_logs = [EventLog(EjectionRecord) for _ in range(lanes)]
        want_inj = [[] for _ in range(lanes)]
        want_ej = [[] for _ in range(lanes)]
        cycle = 0
        for n_cycles, rate, seed in chunks:
            rng = np.random.default_rng(seed)
            fired = rng.random((2, n_cycles, lanes, routers)) < rate
            events, counts = {}, {}
            for kind, prefix in enumerate(("sent", "ej")):
                c, b, r = np.nonzero(fired[kind])  # cycle-major, then lane, router
                n = counts[prefix] = c.size
                events[f"{prefix}_cycle"] = cycle + c
                events[f"{prefix}_lane"] = b
                events[f"{prefix}_r"] = r
                events[f"{prefix}_word"] = rng.integers(0, 1 << 20, n)
            events["sent_vc"] = rng.integers(0, 4, counts["sent"])
            events["sent_delay"] = rng.integers(0, 99, counts["sent"])
            old_inj, old_ej = old_extract_events(
                events, counts["sent"], counts["ej"], lanes, VC_SHIFT
            )
            # The kernel's row buffers: record fields in order, the events
            # grouped by lane (cycle order within a lane), plus how many
            # each lane has.
            ej_word = events["ej_word"]
            by_lane = {
                prefix: np.argsort(events[f"{prefix}_lane"], kind="stable")
                for prefix in ("sent", "ej")
            }
            per_lane = {
                prefix: np.bincount(events[f"{prefix}_lane"], minlength=lanes).tolist()
                for prefix in ("sent", "ej")
            }
            buffers = {
                "sent": np.stack(
                    [
                        events["sent_cycle"],
                        events["sent_r"],
                        events["sent_vc"],
                        events["sent_word"],
                        events["sent_delay"],
                    ]
                ).astype(np.int64)[:, by_lane["sent"]],
                "ej": np.stack(
                    [
                        events["ej_cycle"],
                        events["ej_r"],
                        ej_word >> VC_SHIFT,
                        ej_word & ((1 << VC_SHIFT) - 1),
                    ]
                ).astype(np.int64)[:, by_lane["ej"]],
            }
            kernel = SimpleNamespace(_event_pool=[])
            CompiledBatchLevel._log(
                kernel,
                [
                    (inj_logs, buffers["sent"], per_lane["sent"]),
                    (ej_logs, buffers["ej"], per_lane["ej"]),
                ],
                buffers,
            )
            cycle += n_cycles
            for lane in range(lanes):
                want_inj[lane] += old_inj[lane]
                want_ej[lane] += old_ej[lane]
                # a per-cycle step between chunks logs by append
                stepped = EjectionRecord(cycle, lane, 0, 7)
                ej_logs[lane].append(stepped)
                want_ej[lane].append(stepped)
            cycle += 1
        for lane in range(lanes):
            assert len(inj_logs[lane]) == len(want_inj[lane])
            assert inj_logs[lane] == want_inj[lane]
            assert ej_logs[lane] == want_ej[lane]
            mid = len(want_ej[lane]) // 2
            assert ej_logs[lane][mid:] == want_ej[lane][mid:]


def be_drivers(engine, load, seed=0xBEE):
    net = engine.cfg
    return [
        TrafficDriver(
            engine.lane(i),
            be=BernoulliBeTraffic(net, load, uniform_random(net), seed=seed + i),
        )
        for i in range(engine.lanes)
    ]


@needs_jit
def test_chunked_run_builds_no_record_until_a_log_is_read(monkeypatch):
    built = {InjectionRecord: 0, EjectionRecord: 0}
    for cls in built:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            built[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    cfg = NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=2))
    engine = BatchEngine(cfg, lanes=2, kernel="levelized")
    run_batched(engine, be_drivers(engine, 0.1), 256)
    assert engine.cycle == 256
    sizes = [
        (len(engine.lane_injections(i)), len(engine.lane_ejections(i)))
        for i in range(2)
    ]
    assert all(n_inj > 50 and n_ej > 50 for n_inj, n_ej in sizes)
    assert built == {InjectionRecord: 0, EjectionRecord: 0}

    first = engine.lane_injections(1)[0]
    assert isinstance(first, InjectionRecord)
    assert built == {InjectionRecord: 1, EjectionRecord: 0}
    assert len(engine.lane_ejections(0)[10:25]) == 15
    assert built == {InjectionRecord: 1, EjectionRecord: 15}
    cycles = [r.cycle for r in engine.lane_ejections(1)]
    assert cycles == sorted(cycles) and len(cycles) == sizes[1][1]
    assert built == {InjectionRecord: 1, EjectionRecord: 15 + sizes[1][1]}


@needs_jit
def test_tracker_collects_a_chunked_run_from_columns(monkeypatch):
    from repro.stats.latency import PacketLatencyTracker

    cfg = NetworkConfig(3, 3, topology="torus", router=RouterConfig(queue_depth=2))

    def run(kernel):
        engine = BatchEngine(cfg, lanes=2, kernel=kernel)
        drivers = be_drivers(engine, 0.1)
        for driver in drivers:
            driver.attach_tracker(PacketLatencyTracker(cfg))
        run_batched(engine, drivers, 200)
        return engine, drivers

    engine, drivers = run("jit")
    built = []
    for cls in (InjectionRecord, EjectionRecord):
        original = cls.__init__
        monkeypatch.setattr(
            cls,
            "__init__",
            lambda self, *a, _o=original, **k: (built.append(1), _o(self, *a, **k))[1],
        )
    for lane, driver in enumerate(drivers):
        driver.tracker.collect(engine.lane(lane))
        driver.tracker.collect(engine.lane(lane))  # cursor: nothing new
    assert built == []
    monkeypatch.undo()
    # ... and reads what the record path reads off the NumPy engine's lists
    reference, ref_drivers = run("python")
    for lane, driver in enumerate(ref_drivers):
        driver.tracker.collect(reference.lane(lane))
        assert driver.tracker.samples == drivers[lane].tracker.samples
        assert len(driver.tracker.samples) > 20
        # explicit record slices (the pipeline's analyze stage) agree too
        replay = PacketLatencyTracker(cfg)
        for record in driver.submits:
            replay.note_submit(record)
        replay.collect_records(
            reference.lane_injections(lane)[:], reference.lane_ejections(lane)[:]
        )
        assert replay.samples == driver.tracker.samples


def test_reader_below_an_observed_length_is_safe_against_the_writer():
    """The streaming pipeline's retrieve thread copies ``log[lo:hi]``
    below a bound the simulate thread recorded, while that thread keeps
    logging.  One writer, one reader, a tiny switch interval."""
    log = EventLog(EjectionRecord)
    total = 6000
    failures = []
    done = threading.Event()

    def writer():
        at = 0
        while at < total:
            width = 1 + at % 5
            if at % 2:
                log.extend_block(block_of(at, at + width), 0, width)
            else:
                for i in range(at, at + width):
                    log.append(record(i))
            at += width
        done.set()

    def reader():
        seen = 0
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            finished = done.is_set()
            bound = len(log)
            if bound < seen:
                failures.append(f"length shrank {seen} -> {bound}")
                return
            got = log[seen:bound]
            if [r.cycle for r in got] != list(range(seen, bound)):
                failures.append(f"wrong records in [{seen}, {bound})")
                return
            seen = bound
            if finished:
                return
        failures.append("reader timed out")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert len(log) >= total and log[-1].cycle == len(log) - 1
