"""Columnar stimuli, the per-VC stimuli queues and the injection driver.

Mirrors the paper's data flow (section 5.3): generated traffic lands in
a *stimuli table* with timestamps, is moved into per-VC buffers, and the
interface hardware injects it when the network accepts it.  "If the
network is overloaded with traffic and it does not accept data on
virtual channels for a longer time, this is reported to the user and
simulation is stopped" — :class:`TrafficDriver` implements exactly that
guard.

Stimuli travel as integer columns, never as per-flit objects:

* :class:`Stimuli` — one window of cycles for every lane: packet columns
  plus flit columns grouped by ``(lane, router, vc)`` queue.  The C
  traffic scan (:mod:`repro.kernels.trafficgen`) is the only source of
  windows; every other run generates cycle by cycle
  (``TrafficDriver.generate``, through :class:`FlitEncoder`).
  :func:`~repro.engines.batch.run_plan` decides which, once, for every
  run: ``TrafficDriver.run`` / ``drain`` are ``run_batched`` /
  ``drain_batched`` with one driver, on every engine.
* :class:`StimuliQueues` — one driver's FIFOs in the same flit columns,
  read by ``TrafficDriver.pump`` one head at a time and by the chunk
  kernel's staging in one pass.

A :class:`StimuliEntry`, a :class:`SubmitRecord` or a packet object is
built only where a caller reads one (``driver.queues[key][i]``,
``driver.submits[i]``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engines.eventlog import EventLog
from repro.noc.config import NetworkConfig
from repro.noc.flit import FlitType, Header, SourceInfo
from repro.noc.packet import Packet, PacketClass, segment
from repro.traffic.generators import (
    BernoulliBeTraffic,
    GtStreamTraffic,
    _ramp_payload,
)

#: rows of a window's packet columns (``Stimuli.packets``).
P_LANE, P_CYCLE, P_SRC, P_DEST, P_VC, P_SEQ, P_TAG, P_GT, P_NBYTES = range(9)
#: rows of flit columns (``Stimuli.flits``, a queue store's entries):
#: flit word, release cycle, sequence number of its packet.
F_WORD, F_CYCLE, F_SEQ = range(3)
#: rows of a window's queue table (``Stimuli.queues``): ``END`` is the
#: cumulative end of the queue's run in the flit columns.
Q_LANE, Q_ROUTER, Q_VC, Q_END = range(4)


#: Flits one traffic window holds: a window ends at the first cycle
#: boundary at which it has this many (or at the caller's limit).  The
#: paper sizes a simulation period by the depth of the VC stimuli buffers
#: (section 5.3); here they are the staged columns, and the period that
#: balances per-window Python (tens of microseconds a lane) against the
#: columns' cache and RSS footprint was measured at 4k-16k flits on
#: every bench workload (DESIGN section 10): 128-256 cycles of 16 loaded
#: lanes, 2k+ cycles of one, the whole of a near-idle run.
FLIT_BUDGET = 8192


class NetworkOverloadError(RuntimeError):
    """The network refused stimuli on a VC for longer than the limit."""


@dataclass(frozen=True)
class StimuliEntry:
    """One flit in the stimuli table (flit word + generation timestamp —
    'the data in the buffers has a timestamp', section 5.2)."""

    cycle: int
    router: int
    vc: int
    flit_word: int
    packet_key: Optional[Tuple[int, int]] = None  # (src, seq) of its packet


class FlitEncoder:
    """Caching ``segment`` + ``encode``: packet -> encoded flit words.

    Segmentation dominates the generate/load cost of long runs, yet its
    inputs recur heavily: a packet's head word depends only on
    ``(dest, class, tag)``, its source-info word on ``(src, seq)``, and
    its payload words only on the payload bytes — which the generators
    derive from ``(src, seq)`` mod 256, so every cache is bounded by the
    traffic alphabet, not the run length.  The output is bit-identical
    to ``[f.encode(dw) for f in segment(packet, net)]`` (the slow path
    constructs the words through the very same ``Header``/``SourceInfo``
    encoders on a miss).
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.data_width = net.router.data_width
        self._bytes_per_flit = self.data_width // 8
        if self._bytes_per_flit < 1:
            raise ValueError("data path narrower than a byte cannot carry payloads")
        self._head: Dict[Tuple[int, bool, int], int] = {}
        self._source: Dict[Tuple[int, int], int] = {}
        self._payload: Dict[bytes, Tuple[int, ...]] = {}

    def words(self, packet: Packet) -> Tuple[int, ...]:
        """Encoded flit words of ``packet``, head first."""
        dw = self.data_width
        gt = packet.pclass is PacketClass.GT
        hkey = (packet.dest, gt, packet.tag)
        head = self._head.get(hkey)
        if head is None:
            dx, dy = self.net.coords(packet.dest)
            head = Header(dx, dy, gt=gt, tag=packet.tag).head_flit().encode(dw)
            self._head[hkey] = head
        skey = (packet.src, packet.seq & 0xFF)
        source = self._source.get(skey)
        if source is None:
            sx, sy = self.net.coords(packet.src)
            source = (int(FlitType.BODY) << dw) | SourceInfo(sx, sy, skey[1]).encode()
            self._source[skey] = source
        tail = self._payload.get(packet.payload)
        if tail is None:
            bpf = self._bytes_per_flit
            payload = packet.payload
            chunks = [payload[i : i + bpf] for i in range(0, len(payload), bpf)]
            body, tail_t = int(FlitType.BODY) << dw, int(FlitType.TAIL) << dw
            last = len(chunks) - 1
            tail = tuple(
                (tail_t if i == last else body) | int.from_bytes(chunk, "little")
                for i, chunk in enumerate(chunks)
            )
            self._payload[packet.payload] = tail
        return (head, source) + tail


def flit_words(net: NetworkConfig, encoder: Optional[FlitEncoder], packet: Packet):
    """Encoded flit words of ``packet``: through the word cache where it
    applies, else through ``segment`` + ``encode``."""
    if encoder is not None and packet.payload:
        return encoder.words(packet)
    dw = net.router.data_width
    return [flit.encode(dw) for flit in segment(packet, net)]


@dataclass
class SubmitRecord:
    """Bookkeeping for one submitted packet (for latency analysis)."""

    packet: Packet
    vc: int
    submit_cycle: int


#: rows of a driver's submit log (``TrafficDriver.submits``): a
#: window's packet columns from ``P_CYCLE`` on.
SUBMIT_FIELDS = ("cycle", "src", "dest", "vc", "seq", "tag", "gt", "nbytes")


def _submit_row(record: SubmitRecord) -> Tuple[int, ...]:
    """One submit log column (rows :data:`SUBMIT_FIELDS`) of ``record``."""
    packet = record.packet
    return (
        record.submit_cycle, packet.src, packet.dest, record.vc, packet.seq,
        packet.tag, packet.pclass is PacketClass.GT, len(packet.payload),
    )


def _submit_record(cycle, src, dest, vc, seq, tag, gt, nbytes) -> SubmitRecord:
    """The record of one submit log column (generator packets carry the
    byte ramp, so the payload is a function of the column)."""
    if gt:
        packet = Packet(src, dest, PacketClass.GT, _ramp_payload(seq, nbytes), tag, seq)
    else:
        packet = Packet(
            src, dest, PacketClass.BE, _ramp_payload(src + seq, nbytes), tag, seq
        )
    return SubmitRecord(packet, vc, cycle)


@dataclass(eq=False, slots=True)
class Stimuli:
    """One window ``[start, stop)`` of traffic for every lane, columnar,
    as the C traffic scan fills it
    (:meth:`~repro.kernels.trafficgen.BatchedBeGenerator.generate_window`).

    ``packets`` is a ``[9, m]`` integer array (rows ``P_*``), grouped by
    lane and in submit order within each lane (cycle-major, GT streams
    before BE sources — the order ``TrafficDriver.generate`` submits in);
    ``lane_ends[lane]`` is the cumulative end of that lane's columns and
    ``lane_flits[lane]`` its flit count.  The paper's load step is done
    too: ``flits`` (``[3, n]``, rows ``F_*``) grouped by stimuli queue,
    ``queues`` (``[4, q]``, rows ``Q_*``) naming each run — queues
    grouped by lane, in the order their first packet was submitted.

    ``snapshot`` is the ``source``'s generator state at ``start``: a
    mid-window :class:`NetworkOverloadError` rewinds to it.
    """

    start: int
    stop: int
    packets: np.ndarray
    lane_ends: List[int]
    lane_flits: List[int]
    flits: np.ndarray
    queues: np.ndarray
    snapshot: object
    source: object

    def submit_columns(self, lo: int, hi: int):
        """Rows ``src, seq, vc, cycle`` of packet columns ``[lo, hi)`` —
        what a latency tracker notes of a submit."""
        return self.packets[[P_SRC, P_SEQ, P_VC, P_CYCLE], lo:hi]


class StimuliQueue(Sequence):
    """One ``(router, vc)`` FIFO of a :class:`StimuliQueues` store, read
    as the :class:`StimuliEntry` sequence ``TrafficDriver._submit``
    queued — entries are built when indexed or iterated, and kept
    nowhere."""

    __slots__ = ("_store", "_slot")

    def __init__(self, store: "StimuliQueues", slot: int) -> None:
        self._store = store
        self._slot = slot

    def __len__(self) -> int:
        store, slot = self._store, self._slot
        return store._hi[slot] - store._lo[slot]

    def _entries(self) -> List[StimuliEntry]:
        store, slot = self._store, self._slot
        router, vc = store._router[slot], store._vc[slot]
        columns = store._rows[:, store._lo[slot] : store._hi[slot]]
        return [
            StimuliEntry(cycle, router, vc, word, packet_key=(router, seq))
            for word, cycle, seq in zip(*columns.tolist())
        ]

    def __getitem__(self, index):
        return self._entries()[index]

    def __iter__(self):
        return iter(self._entries())

    def __eq__(self, other):
        if not isinstance(other, (StimuliQueue, list)):
            return NotImplemented
        return self._entries() == other[:]

    def __repr__(self) -> str:
        return f"StimuliQueue({self._entries()!r})"


class StimuliQueues(Mapping):
    """One driver's per-``(router, vc)`` stimuli FIFOs as flit columns.

    A mapping ``(router, vc) -> StimuliQueue`` in the order the keys
    were first submitted to (the order ``pump`` offers in, which decides
    which VC an overload names).  Underneath, every queue is a *slot*:
    a ``[lo, hi)`` run of the store's ``[3, capacity]`` entry arena
    (rows ``F_*``).  All per-slot state lives in one integer table so
    the chunk kernel's staging (``repro_stage`` / ``repro_carry`` in
    :mod:`repro.kernels.trafficgen`) reads and rewrites it in place:

    ==== ==========================================================
    row  contents
    ==== ==========================================================
    0    ``router * n_vcs + vc`` -> slot, -1 while unregistered
    1-2  slot -> router, VC
    3-4  slot -> ``lo``, ``hi``: its live run in the arena
    5    slot -> stall counter, -1 until the queue was first offered
    6    ``[0]`` registered slots, ``[1]`` the arena's fill mark
    ==== ==========================================================

    Python reads and writes single cells through one memoryview per row
    (plain ints, a third of the cost of NumPy scalar indexing — ``pump``
    is the per-cycle engines' hot loop) and whole rows through the
    array.
    """

    def __init__(self, net: NetworkConfig) -> None:
        table = np.zeros((7, max(2, net.n_routers * net.router.n_vcs)), dtype=np.int64)
        table[0] = table[5] = -1
        self.__setstate__(
            (net.n_routers, net.router.n_vcs, table, np.empty((3, 64), dtype=np.int64))
        )

    def __getstate__(self) -> Tuple:
        return self._n_routers, self._n_vcs, self._table, self._rows

    def __setstate__(self, state: Tuple) -> None:
        self._n_routers, self._n_vcs, table, rows = state
        self._table = table
        (
            self._slot_of,
            self._router,
            self._vc,
            self._lo,
            self._hi,
            self._stall,
            self._mark,
        ) = map(memoryview, table)
        self._table_at = table.ctypes.data
        self._keys: List[Tuple[int, int]] = []
        self._use(rows)

    def _use(self, rows) -> None:
        """Make ``rows`` the entry arena."""
        self._rows = rows
        self._address = self._table_at, rows.ctypes.data, rows.shape[1]
        self._words, self._cycles = memoryview(rows[F_WORD]), memoryview(rows[F_CYCLE])

    # -- the mapping ---------------------------------------------------------
    def __len__(self) -> int:
        return self._mark[0]

    def _key_list(self) -> List[Tuple[int, int]]:
        n = self._mark[0]
        if len(self._keys) != n:  # the staging kernel registers keys too
            self._keys = list(zip(self._router[:n].tolist(), self._vc[:n].tolist()))
        return self._keys

    def __iter__(self):
        return iter(self._key_list())

    def __getitem__(self, key) -> StimuliQueue:
        router, vc = key
        if 0 <= vc < self._n_vcs and 0 <= router < self._n_routers:
            slot = self._slot_of[router * self._n_vcs + vc]
            if slot >= 0:
                return StimuliQueue(self, slot)
        raise KeyError(key)

    def address(self) -> Tuple[int, int, int]:
        """Where the staging kernel finds this store: the table's
        address, the entry arena's address and capacity."""
        return self._address

    # -- the FIFOs -----------------------------------------------------------
    def _live(self):
        """The slots holding entries (``lo < hi``), in offer order."""
        table, n = self._table, self._mark[0]
        return (table[3, :n] < table[4, :n]).nonzero()[0]

    def backlog(self) -> int:
        table, n = self._table, self._mark[0]
        return int((table[4, :n] - table[3, :n]).sum())  # hi - lo

    def stalls(self) -> Dict[Tuple[int, int], int]:
        """Stall counter of every queue that was ever offered."""
        stalls = self._stall[: self._mark[0]].tolist()
        return {
            key: stall for key, stall in zip(self._key_list(), stalls) if stall >= 0
        }

    def append(self, router: int, vc: int, words, cycles, seqs) -> None:
        """Queue flit ``words`` (with their release cycles and packet
        sequence numbers: columns or scalars) behind ``(router, vc)``."""
        mark = self._mark
        key = router * self._n_vcs + vc
        slot = self._slot_of[key]
        if slot < 0:
            slot = self._slot_of[key] = mark[0]
            self._router[slot], self._vc[slot] = router, vc
            self._lo[slot] = self._hi[slot] = 0
            self._stall[slot] = -1
            mark[0] = slot + 1
        k = len(words)
        lo, hi, top = self._lo[slot], self._hi[slot], mark[1]
        if top + (k if hi == top else hi - lo + k) > self._rows.shape[1]:
            self._repack(hi - lo + k)
            lo, hi, top = self._lo[slot], self._hi[slot], mark[1]
        rows = self._rows
        if hi != top:  # not the arena's last run: move it there to grow
            rows[:, top : top + hi - lo] = rows[:, lo:hi]
            lo, hi = top, top + hi - lo
            self._lo[slot] = lo
        rows[F_WORD, hi : hi + k] = words
        rows[F_CYCLE, hi : hi + k] = cycles
        rows[F_SEQ, hi : hi + k] = seqs
        self._hi[slot] = mark[1] = hi + k

    def _repack(self, extra: int) -> None:
        """Move every live run into a fresh arena with room for ``extra``
        more entries (and as much again)."""
        old, lo, hi = self._rows, self._lo, self._hi
        rows = np.empty((3, max(64, 2 * (self.backlog() + extra))), dtype=np.int64)
        top = 0
        for slot in self._live().tolist():
            size = hi[slot] - lo[slot]
            rows[:, top : top + size] = old[:, lo[slot] : hi[slot]]
            lo[slot], hi[slot] = top, top + size
            top += size
        self._use(rows)
        self._mark[1] = top

    def trim(self, cut: int, before: int) -> int:
        """Forget every entry released at cycle ``cut`` or later, and
        every key past the first ``before`` that then never held one;
        returns the number of entries dropped."""
        lo, hi, released = self._lo, self._hi, self._rows[F_CYCLE]
        dropped = 0
        for slot in self._live().tolist():
            keep = lo[slot] + int(np.searchsorted(released[lo[slot] : hi[slot]], cut))
            dropped += hi[slot] - keep
            hi[slot] = keep
        # a key of this window that still holds an entry, or was offered
        # one, was registered by a packet that stays
        n = self._mark[0]
        while n > before and lo[n - 1] == hi[n - 1] and self._stall[n - 1] < 0:
            n -= 1
            self._slot_of[self._router[n] * self._n_vcs + self._vc[n]] = -1
        self._mark[0] = n
        return dropped


def settle(drivers, stimuli: Stimuli, before, overload=None) -> None:
    """Book a window on its drivers once its cycles have run: submit
    log, tracker notes, ``flits_generated``.

    ``overload = (cycle, lane)`` says a :class:`NetworkOverloadError`
    ended the window there.  The per-cycle reference loop would by then
    have generated ``cycle`` itself only on lanes up to ``lane``: every
    later packet is dropped from the queues (``before[lane]`` keys were
    registered before the window) and the books, and the window's source
    rewinds its generators to the same point.
    """
    ends, flits = stimuli.lane_ends, stimuli.lane_flits
    starts = [0, *ends[:-1]]
    if overload is not None:
        # a lane's packets are in cycle order: it keeps those before its cut
        lanes = stimuli.packets[P_LANE]
        cuts = overload[0] + (np.arange(len(drivers)) <= overload[1])
        kept = np.bincount(lanes[stimuli.packets[P_CYCLE] < cuts[lanes]], minlength=len(drivers))
        ends = (kept + starts).tolist()
        flits = [
            n - driver.queues.trim(cut, int(mark))
            for driver, n, cut, mark in zip(drivers, flits, cuts.tolist(), before)
        ]
    for driver, lo, hi, n in zip(drivers, starts, ends, flits):
        driver.book(stimuli, lo, hi, n)
    if overload is not None:
        stimuli.source.rewind(stimuli, *overload)


class TrafficDriver:
    """Generates traffic, queues it per (router, VC), and pumps the
    engine's injection registers every cycle.

    The driver is deterministic: identical generator seeds produce the
    identical offer sequence on every engine, which the equivalence tests
    rely on.
    """

    def __init__(
        self,
        engine,
        be: Optional[BernoulliBeTraffic] = None,
        gt: Optional[GtStreamTraffic] = None,
        stall_limit: int = 10_000,
    ) -> None:
        self.engine = engine
        self.net: NetworkConfig = engine.cfg
        self.be = be
        self.gt = gt
        self.stall_limit = stall_limit
        self.queues = StimuliQueues(self.net)
        #: one :class:`SubmitRecord` per submitted packet, in submit
        #: order; a C-scanned window's are built when read.
        self.submits = EventLog(_submit_record, SUBMIT_FIELDS, _submit_row)
        self._be_vc_toggle = [0] * self.net.n_routers
        self._be_vcs = self.net.router.be_vcs  # the VCs a source alternates over
        self.overloaded = False
        self.flits_generated = 0
        self.tracker = None  # optional PacketLatencyTracker
        try:
            self._encoder: Optional[FlitEncoder] = FlitEncoder(self.net)
        except ValueError:  # sub-byte data path: keep the generic path
            self._encoder = None

    def attach_tracker(self, tracker) -> None:
        """Register a latency tracker notified of every submit."""
        self.tracker = tracker

    @property
    def _stall(self) -> Dict[Tuple[int, int], int]:
        return self.queues.stalls()

    # -- generation (simulation step 1) --------------------------------------
    def packets(self, start: int, stop: int) -> List[Tuple[int, Packet, int]]:
        """The pure half of generation: ``(cycle, packet, vc)`` for every
        packet of cycles ``[start, stop)`` in submit order (cycle-major,
        GT streams before BE sources).  Only generator state and the
        per-source BE-VC toggles advance — no queue, counter or tracker
        is touched."""
        gt_cycles = (
            self.gt.packets_for_cycles(start, stop) if self.gt is not None else None
        )
        be_cycles = (
            self.be.packets_for_cycles(start, stop) if self.be is not None else None
        )
        be_vcs = self._be_vcs
        n_vcs = len(be_vcs)
        toggles = self._be_vc_toggle
        out = []
        for off in range(stop - start):
            cycle = start + off
            if gt_cycles is not None:
                for packet, vc in gt_cycles[off]:
                    out.append((cycle, packet, vc))
            if be_cycles is not None:
                for packet in be_cycles[off]:
                    toggle = toggles[packet.src]
                    toggles[packet.src] = (toggle + 1) % n_vcs
                    out.append((cycle, packet, be_vcs[toggle]))
        return out

    def generate(self, cycle: int) -> None:
        for _, packet, vc in self.packets(cycle, cycle + 1):
            self._submit(packet, vc, cycle)

    def send_packet(self, packet: Packet, vc: int) -> None:
        """Queue a single packet for injection (in addition to whatever
        the attached generators produce)."""
        self._submit(packet, vc, self.engine.cycle)

    def _submit(self, packet: Packet, vc: int, cycle: int) -> None:
        record = SubmitRecord(packet, vc, cycle)
        self.submits.append(record)
        if self.tracker is not None:
            self.tracker.note_submit(record)
        words = flit_words(self.net, self._encoder, packet)
        self.queues.append(packet.src, vc, words, cycle, packet.seq)
        self.flits_generated += len(words)

    def book(self, stimuli: Stimuli, lo: int, hi: int, flits: int) -> None:
        """Account for packet columns ``[lo, hi)`` of ``stimuli`` — this
        driver's, ``flits`` flit words long — whose entries are in the
        queues already."""
        self.flits_generated += flits
        if hi <= lo:
            return
        self.submits.extend_block(stimuli.packets[P_CYCLE:], lo, hi)
        if self.tracker is not None:
            self.tracker.note_submits(*stimuli.submit_columns(lo, hi))

    # -- injection (simulation steps 2/3) --------------------------------------
    def pump(self) -> None:
        """Offer the head flit of every per-VC queue whose release cycle
        has come; track stalls."""
        queues = self.queues
        live = queues._live()
        if not len(live):
            queues._mark[1] = 0  # nothing queued: the arena starts over
            return
        now = self.engine.cycle
        offer = self.engine.offer
        keys, lo, stall = queues._key_list(), queues._lo, queues._stall
        words, cycles = queues._words, queues._cycles
        for slot in live.tolist():
            head = lo[slot]
            if cycles[head] > now:
                continue
            router, vc = keys[slot]
            if offer(router, vc, words[head]):
                lo[slot] = head + 1
                stall[slot] = 0
            else:
                stalled = stall[slot] + 1 if stall[slot] > 0 else 1
                stall[slot] = stalled
                if stalled > self.stall_limit:
                    self.overloaded = True
                    raise NetworkOverloadError(
                        f"router {router} VC {vc} refused stimuli for "
                        f"{stalled} cycles — network overloaded"
                    )

    def step(self) -> None:
        """One driver cycle: generate, pump, advance the engine
        (:func:`~repro.engines.batch.step_cycle`)."""
        from repro.engines import batch

        batch.step_cycle(self.engine, [self])

    def run(self, cycles: int) -> None:
        """``cycles`` driver cycles: :func:`~repro.engines.batch.run_batched`
        with this driver alone, on every engine — whole generated windows
        on a compiled one, cycle by cycle elsewhere
        (:func:`~repro.engines.batch.chunk_decline` and
        :func:`~repro.kernels.trafficgen.scan_decline` name the reason).
        Bit-identical either way."""
        from repro.engines import batch

        batch.run_batched(self._solo(), [self], cycles)

    def _solo(self):
        """The engine this driver alone advances (a one-lane engine's lane
        advances the engine; a lane among several cannot step alone)."""
        owner = getattr(self.engine, "engine", None)
        return owner if owner is not None and owner.lanes == 1 else self.engine

    # -- accounting -----------------------------------------------------------
    def backlog(self) -> int:
        """Flits generated but not yet accepted by the network."""
        return self.queues.backlog()

    def drain(self, max_cycles: int = 100_000) -> int:
        """Stop generating, run until everything in flight is delivered;
        returns the cycles it took (:func:`~repro.engines.batch.drain_batched`
        with this driver alone: one fused call on a compiled engine)."""
        from repro.engines import batch

        (used,) = batch.drain_batched(self._solo(), [self], max_cycles)
        return used
