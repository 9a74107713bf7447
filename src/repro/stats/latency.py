"""Packet latency measurement and the analytic GT guarantee.

Latency definitions (Figure 1 plots the *total* latency):

* **total latency** — from the cycle the packet was handed to the
  stimuli buffers to the cycle its TAIL flit left the network.  This
  includes the source access delay, which is the quantity that explodes
  when the network saturates.
* **network latency** — from the cycle the HEAD flit entered the source
  router to the TAIL ejection.

:class:`PacketLatencyTracker` finds the packets in the engines' event
logs: one function (``_match``) with a C and a NumPy body, DESIGN
section 15.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.engines.eventlog import log_blocks, record_block
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.flit import (
    GT_FIELD,
    SEQ_FIELD,
    X_FIELD,
    Y_FIELD,
    FlitType,
    field,
)
from repro.noc.packet import PacketClass, ProtocolError, flits_per_packet
from repro.noc.topology import Topology
from repro.traffic.stimuli import SubmitRecord


@dataclass(frozen=True)
class LatencySample:
    """One delivered packet's timing."""

    pclass: PacketClass
    src: int
    dest: int
    hops: int
    submit_cycle: int
    head_inject_cycle: Optional[int]
    head_eject_cycle: int
    tail_eject_cycle: int

    @property
    def total_latency(self) -> int:
        return self.tail_eject_cycle - self.submit_cycle

    @property
    def network_latency(self) -> Optional[int]:
        if self.head_inject_cycle is None:
            return None
        return self.tail_eject_cycle - self.head_inject_cycle


#: rows of the sample block, in :class:`LatencySample` field order.
#: ``S_GT`` is the header's class bit; ``S_HEAD_INJECT`` is -1 where the
#: sample's ``head_inject_cycle`` is ``None``.
(
    S_GT,
    S_SRC,
    S_DEST,
    S_HOPS,
    S_SUBMIT,
    S_HEAD_INJECT,
    S_HEAD_EJECT,
    S_TAIL_EJECT,
) = range(8)

_CLASSES = (PacketClass.BE, PacketClass.GT)


def _sample(column) -> LatencySample:
    gt, src, dest, hops, submit, head_inject, head_eject, tail_eject = map(int, column)
    return LatencySample(
        _CLASSES[gt],
        src,
        dest,
        hops,
        submit,
        None if head_inject < 0 else head_inject,
        head_eject,
        tail_eject,
    )


class SampleLog(Sequence):
    """The delivered packets' timings, in delivery order: one growing
    ``[8, n]`` integer block (rows ``S_*``).  Like an
    :class:`~repro.engines.eventlog.EventLog`, indexing, slicing,
    iteration and comparison build exactly the :class:`LatencySample`
    objects they hand out; ``len`` and :attr:`columns` build none."""

    def __init__(self) -> None:
        self._block = np.empty((8, 0), dtype=np.int64)
        self._used = 0

    @property
    def columns(self):
        """The ``[8, n]`` sample block (a view: read it, do not write)."""
        return self._block[:, : self._used]

    def total_latency(self, start: int = 0):
        """Submit to TAIL ejection, per sample from ``start`` on."""
        columns = self.columns[:, start:]
        return columns[S_TAIL_EJECT] - columns[S_SUBMIT]

    def extend_block(self, block) -> None:
        used = self._used + block.shape[1]
        if used > self._block.shape[1]:
            grown = np.empty((8, max(used, 2 * self._block.shape[1])), dtype=np.int64)
            grown[:, : self._used] = self.columns
            self._block = grown
        self._block[:, self._used : used] = block
        self._used = used

    def __len__(self) -> int:
        return self._used

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(_sample, self.columns.T[index]))
        return _sample(self.columns.T[index])

    def __iter__(self):
        return map(_sample, self.columns.T)

    def __eq__(self, other):
        if isinstance(other, SampleLog):
            return np.array_equal(self.columns, other.columns)
        if isinstance(other, list):
            return self[:] == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SampleLog({self[:]!r})"


@dataclass
class LatencyStats:
    """Aggregate over one traffic class."""

    count: int
    mean: float
    maximum: int
    minimum: int
    p50: float
    p99: float

    @staticmethod
    def from_samples(latencies) -> Optional["LatencyStats"]:
        arr = np.asarray(latencies, dtype=np.int64)
        if not arr.size:
            return None
        return LatencyStats(
            count=int(arr.size),
            mean=float(arr.mean()),
            maximum=int(arr.max()),
            minimum=int(arr.min()),
            p50=float(np.percentile(arr, 50)),
            p99=float(np.percentile(arr, 99)),
        )


_HEAD, _TAIL = int(FlitType.HEAD), int(FlitType.TAIL)

#: sequence numbers per source on the wire: the radix of a packet key.
_SEQS = SEQ_FIELD[1] + 1


def _queue_key(router, vc):
    """One integer per ``(router, vc)`` — a sink's reassembly queue, or a
    source's injection queue.  Fits 16 bits on any fabric the header can
    address."""
    return router * 256 + vc


def _event_block(events):
    """A window's events as integer rows ``cycle, router, vc,
    flit_word``, from a log block or from records."""
    if not isinstance(events, np.ndarray):
        events = record_block(events)
    if len(events) < 4:
        raise ValueError("an event block has rows cycle, router, vc, flit word")
    return events[:4]


_NO_EVENTS = np.empty((4, 0), dtype=np.int64)
_NO_SAMPLES = [np.empty((8, 0), dtype=np.int64)]

#: what a sink refuses: ``repro_match``'s return codes (``kernels/trafficgen.py``)
_HEAD_WHILE_OPEN, _NO_HEAD, _TOO_SHORT, _OFF_SRC, _OFF_DEST, _NO_SUBMIT = range(-1, -7, -1)


def _stable_order(keys):
    """Stable sort order of non-negative ``keys``; 16-bit keys get
    NumPy's radix sort."""
    if keys.size and keys.max() < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _fifo_slots(queue_keys, keys):
    """Which queue entry a per-key FIFO pops for each of ``keys``, taken
    in order: the r-th entry queued under a key for that key's r-th
    occurrence, -1 once its queue has run out."""
    slots = np.full(keys.size, -1, dtype=np.int64)
    if not (queue_keys.size and keys.size):
        return slots
    order = _stable_order(keys)
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    rank = np.arange(keys.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    queue_order = _stable_order(queue_keys)
    queued = queue_keys[queue_order]
    at = np.searchsorted(queued, ordered) + rank
    inside = np.minimum(at, queued.size - 1)
    # past the key's run lies a larger key, or the end of the queue
    found = (at == inside) & (queued[inside] == ordered)
    slots[order[found]] = queue_order[inside[found]]
    return slots


class PacketLatencyTracker:
    """Matches engine ejection logs against submit records, on arrays.

    Matching key is ``(src, seq)``; sequence numbers wrap at 256, so
    outstanding submits are matched FIFO per key — correct because a
    single (source, VC) stream delivers in order.

    State between windows is integer blocks only (DESIGN, "Analysis in
    columns"): the outstanding submits, the HEAD injections no packet
    has claimed, the ejection events of packets still open, and the
    :class:`SampleLog`.  The matching itself (:meth:`_match`) is one
    function with two bodies, chosen by the kernels backend ladder when
    the tracker is built, copied or unpickled: :attr:`kernel` is ``"c"``
    (``repro_match``, one pass over the events in the stimuli kernel) or
    ``"numpy"`` (whole-array arithmetic; :attr:`kernel_reason` says why).
    """

    def __init__(self, net: NetworkConfig) -> None:
        self.net = net
        self.topology = Topology(net)
        self.samples = SampleLog()
        #: outstanding submits in submit order, rows ``src * 256 + seq,
        #: vc, submit cycle``: the block left by the last window, then
        #: the blocks noted since (joined when a window is matched)
        self._submits: List = [np.empty((3, 0), dtype=np.int64)]
        #: unclaimed HEAD injections in event order, rows ``queue key,
        #: cycle``
        self._head_injects = np.empty((2, 0), dtype=np.int64)
        #: ejection events so far of the packets still open
        self._open = np.empty((4, 0), dtype=np.int64)
        self._ej_seen = 0
        self._inj_seen = 0
        self._bind()

    def _bind(self) -> None:
        from repro.kernels.trafficgen import PacketMatch, bind_stimuli_kernel

        kernel, self.kernel_reason = bind_stimuli_kernel()
        self.kernel = "numpy" if kernel is None else "c"
        #: the C body with this tracker's call scratch; not state
        self._c_match = kernel and PacketMatch(
            kernel, self.net, self.topology.hop_table()
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        for bound in ("kernel", "kernel_reason", "_c_match"):
            del state[bound]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind()

    def note_submit(self, record: SubmitRecord) -> None:
        packet = record.packet
        self.note_submits(
            (packet.src,), (packet.seq,), (record.vc,), (record.submit_cycle,)
        )

    def note_submits(self, srcs, seqs, vcs, cycles) -> None:
        """Note submitted packets from their columns, in submit order."""
        keys = np.asarray(srcs) * _SEQS + (np.asarray(seqs) & SEQ_FIELD[1])
        self._submits.append(np.array([keys, vcs, cycles], dtype=np.int64))

    def _pending_block(self):
        if len(self._submits) > 1:
            self._submits = [np.concatenate(self._submits, axis=1)]
        return self._submits[0]

    def pending(self) -> List[Tuple[int, int, int, int]]:
        """The outstanding submits as ``(src, seq, vc, submit cycle)``,
        in submit order."""
        return [
            (*divmod(int(key), _SEQS), int(vc), int(cycle))
            for key, vc, cycle in self._pending_block().T
        ]

    def collect(self, engine) -> None:
        """Process new injection/ejection records from the engine, read
        part by part where its logs lie: no copy of a log is made."""
        injections = engine.injections
        ejections = engine.ejections
        n_inj, n_ej = len(injections), len(ejections)
        self._collect(
            log_blocks(injections, self._inj_seen, n_inj),
            log_blocks(ejections, self._ej_seen, n_ej),
        )
        self._inj_seen = n_inj
        self._ej_seen = n_ej

    def collect_records(self, injections, ejections) -> None:
        """Process one window of events — the streaming analyze stage's
        entry point (:meth:`collect` is the cursor-keeping wrapper over
        the engine's full logs).  Either argument is the ``[fields, n]``
        block of a log window (:func:`~repro.engines.eventlog.log_window`)
        or a list of records.

        This is the analysis hot path, so reassembly works on the raw
        integer words, with the same wormhole-protocol checks (and the
        same :class:`~repro.noc.packet.ProtocolError` messages, for the
        first offending event in event order) as
        :class:`~repro.noc.packet.Reassembler`.  A window that raises
        leaves the tracker as it was.
        """
        self._collect((injections,), (ejections,))

    def _collect(self, injections, ejections) -> None:
        samples, submits, self._head_injects, self._open = self._match(
            self._pending_block(),
            self._head_injects,
            self._open,
            list(map(_event_block, injections)),
            list(map(_event_block, ejections)),
        )
        self.samples.extend_block(samples)
        self._submits = [submits]

    def _refuse(self, code: int, a=0, b=0):
        """Raise what a sink raises for the offending event ``code``
        names; ``a, b`` are its particulars."""
        if code == _HEAD_WHILE_OPEN:
            raise ProtocolError(f"VC {a}: HEAD while a packet is open")
        if code == _NO_HEAD:
            raise ProtocolError(f"VC {a}: {FlitType(b).name} without a HEAD")
        if code == _TOO_SHORT:
            raise ProtocolError("packet too short: no body flits before TAIL")
        if code in (_OFF_SRC, _OFF_DEST):
            self.net.index(int(a), int(b))  # IndexError: a real router too
        raise RuntimeError(
            f"delivered packet with no submit record: {(int(a), int(b))}"
        )

    def _match(self, submits, head_injects, still_open, injections, ejections):
        """One window, its two logs as lists of event blocks: the HEAD
        ``injections`` join the queue, then the samples that
        ``still_open ++ ejections`` complete are found.  Returns them
        and what is left of the three queues — ``(samples, submits,
        head_injects, open events)``.  Pure: the tracker changes when
        the caller commits what this returns."""
        if self._c_match:
            found = self._c_match(
                submits, head_injects, still_open, injections, ejections, self._refuse
            )
            if found is not None:  # else the NumPy body's to judge
                return found
        queued = [head_injects]
        for cycle, router, vc, word in injections:
            heads = (word >> self.net.router.data_width) & 3 == _HEAD
            queued.append([_queue_key(router[heads], vc[heads]), cycle[heads]])
        state, found = (submits, np.concatenate(queued, axis=1), still_open), []
        for events in ejections:  # in turn: a window cut anywhere finds the same
            samples, *state = self._match_numpy(*state, events)
            found.append(samples)
        return [np.concatenate(found or _NO_SAMPLES, axis=1), *state]

    def _match_numpy(self, submits, head_injects, still_open, events):
        """One block of :meth:`_match`'s ejections in whole-array
        arithmetic — the body of a host without a C compiler, and the
        reference the C pass is held to."""
        net = self.net
        data_width = net.router.data_width
        events = np.concatenate([still_open, events], axis=1)
        ftype = (events[3] >> data_width) & 3
        live = ftype != 0
        if not live.all():  # IDLE words carry nothing
            events, ftype = events[:, live], ftype[live]
        cycle, router, vc, word = events
        n = ftype.size

        # -- reassembly: one stable sort by sink queue ------------------
        queue = _queue_key(router, vc)
        order = _stable_order(queue)
        queue, ftype = queue[order], ftype[order]
        is_head, is_tail = ftype == _HEAD, ftype == _TAIL
        # a queue's flit is a HEAD exactly where no packet is open: at
        # the queue's first event here, and after a TAIL
        starts_packet = np.ones(n, dtype=bool)
        starts_packet[1:] = (queue[1:] != queue[:-1]) | is_tail[:-1]
        broken = np.flatnonzero(is_head != starts_packet)
        if broken.size:
            first = broken[np.argmin(order[broken])]
            at = order[first]
            # the events before it are sound, and may hold the first offender
            self._match_numpy(submits, head_injects, events[:, :at], _NO_EVENTS)
            self._refuse(
                _HEAD_WHILE_OPEN if is_head[first] else _NO_HEAD, vc[at], ftype[first]
            )
        head_at, tail_at = np.flatnonzero(is_head), np.flatnonzero(is_tail)
        # finished packets in the order their TAILs left; each one's HEAD
        # is the last one before its TAIL
        tail_at = tail_at[np.argsort(order[tail_at])]
        packet = np.searchsorted(head_at, tail_at) - 1
        head_at = head_at[packet]
        flits = tail_at - head_at + 1
        at_head, at_source, at_tail = order[head_at], order[head_at + 1], order[tail_at]
        closed = np.zeros(is_head.sum(), dtype=bool)
        closed[packet] = True
        still_open = ~closed[np.cumsum(is_head) - 1]

        # -- the packets' fields, off the HEAD and the source-info word --
        mask = (1 << data_width) - 1
        header, source = word[at_head] & mask, word[at_source] & mask
        src_x, src_y = field(source, X_FIELD), field(source, Y_FIELD)
        dest_x, dest_y = field(header, X_FIELD), field(header, Y_FIELD)
        src, seq = src_y * net.width + src_x, field(source, SEQ_FIELD)
        dest = router[at_tail]
        head_eject, tail_eject = cycle[at_head], cycle[at_tail]

        # -- submits: FIFO per (src, seq) -----------------------------------
        submit = _fifo_slots(submits[0], src * _SEQS + seq)

        off_src = (src_x >= net.width) | (src_y >= net.height)
        off_dest = (dest_x >= net.width) | (dest_y >= net.height)
        wrong = (flits < 3) | off_src | off_dest | (submit < 0)
        if wrong.any():
            i = int(np.argmax(wrong))  # first in event order; checks in the sink's order
            if flits[i] < 3:
                self._refuse(_TOO_SHORT)
            if off_src[i]:
                self._refuse(_OFF_SRC, src_x[i], src_y[i])
            if off_dest[i]:
                self._refuse(_OFF_DEST, dest_x[i], dest_y[i])
            self._refuse(_NO_SUBMIT, src[i], seq[i])
        submit_vc, submit_cycle = submits[1:, submit]
        left = np.ones(submits.shape[1], dtype=bool)
        left[submit] = False

        # -- head injections: FIFO per (src, submit vc) ------------------------
        inject_queue = _queue_key(src, submit_vc)
        slot = _fifo_slots(head_injects[0], inject_queue)
        head_inject = np.full(slot.size, -1, dtype=np.int64)
        head_inject[slot >= 0] = head_injects[1, slot[slot >= 0]]
        # A head cannot eject before it injected, so a front entry newer
        # than the head ejection belongs to a *later* packet on this key
        # (same-key packets can finish out of order across different
        # sinks).  Leaving it queued keeps the attribution deterministic
        # whether the logs are matched at end of run or chunk by chunk —
        # and means the packets behind it see a different front than
        # their rank says: those queues are replayed entry by entry.
        claimed = (slot >= 0) & (head_inject <= head_eject)
        unclaimed = np.ones(head_injects.shape[1], dtype=bool)
        unclaimed[slot[claimed]] = False
        # each such key once, ascending (np.unique's order, without the
        # numpy.ma import its first call costs)
        keys = np.sort(inject_queue[~claimed])
        for key in keys[np.flatnonzero(np.diff(keys, prepend=-1))]:
            entries = np.flatnonzero(head_injects[0] == key)
            front = 0
            for i in np.flatnonzero(inject_queue == key):
                head_inject[i] = -1
                if front < entries.size:
                    injected = head_injects[1, entries[front]]
                    if injected <= head_eject[i]:
                        head_inject[i] = injected
                        front += 1
            unclaimed[entries] = np.arange(entries.size) >= front

        samples = np.array(
            [
                field(header, GT_FIELD),
                src,
                dest,
                self.topology.hop_table()[src, dest],
                submit_cycle,
                head_inject,
                head_eject,
                tail_eject,
            ],
            dtype=np.int64,
        )
        keep = np.zeros(n, dtype=bool)
        keep[order[still_open]] = True
        return samples, submits[:, left], head_injects[:, unclaimed], events[:, keep]

    @property
    def open_vcs(self) -> List[Tuple[int, int]]:
        """(router, VC) pairs with a partially ejected packet (for
        end-of-run checks)."""
        return sorted({(int(router), int(vc)) for router, vc in self._open[1:3].T})

    # -- aggregation ----------------------------------------------------------
    def stats(
        self, pclass: Optional[PacketClass] = None, network: bool = False
    ) -> Optional[LatencyStats]:
        columns = self.samples.columns
        chosen = np.ones(columns.shape[1], dtype=bool)
        if pclass is not None:
            chosen &= columns[S_GT] == _CLASSES.index(pclass)
        since = S_SUBMIT
        if network:
            since = S_HEAD_INJECT
            chosen &= columns[S_HEAD_INJECT] >= 0
        latency = columns[S_TAIL_EJECT] - columns[since]
        return LatencyStats.from_samples(latency[chosen])

    def delivered(self, pclass: Optional[PacketClass] = None) -> int:
        if pclass is None:
            return len(self.samples)
        return int((self.samples.columns[S_GT] == _CLASSES.index(pclass)).sum())


def gt_guarantee_bound(
    cfg: RouterConfig, payload_bytes: int, hops: int
) -> int:
    """Analytic worst-case latency of a GT packet (the "Guarantee" line
    of Figure 1).

    Derivation: on every link at most ``n_vcs`` output VCs can be
    allocated, and the output arbiter is round-robin, so a GT queue with
    a flit and downstream room is served at least once every ``n_vcs``
    cycles.  A hop additionally costs one allocation cycle and one
    transfer cycle for the head.  Hence

    * head reaches the sink after at most ``(hops + 1) * (1 + n_vcs)``
      cycles,
    * the remaining ``L - 1`` flits drain at worst one per ``n_vcs``
      cycles.
    """
    n_flits = flits_per_packet(payload_bytes, cfg.data_width)
    return (hops + 1) * (1 + cfg.n_vcs) + (n_flits - 1) * cfg.n_vcs
