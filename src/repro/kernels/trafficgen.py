"""Generated-C kernel for lane-batched Bernoulli BE (+ GT) traffic.

Sweeps and benches drive every lane of a batch engine with its own
:class:`~repro.traffic.generators.BernoulliBeTraffic` stream, usually
beside a fixed set of :class:`~repro.traffic.generators.GtStreamTraffic`
streams (the Fig. 1 workload).  The per-cycle cost of the BE streams is
one LFSR jump and a threshold compare per source per lane — pure integer
arithmetic that dominates the driver once the simulation step itself is
compiled.  This module moves exactly that scan into one C call per
window of cycles:

* every lane's 32-bit Galois LFSR advances through the same 4x256-byte
  jump tables as :class:`~repro.traffic.rng.HardwareLfsr.next_u32`,
  against that lane's own threshold (a zero-load or ``be=None`` lane
  draws no words at all, like ``packets_for_cycle``'s early return);
* a Bernoulli hit records ``(lane, cycle, src)`` and immediately draws
  the uniform-random destination with the same rejection sampling as
  :meth:`~repro.traffic.rng.HardwareLfsr.next_below` — consuming the
  identical number of RNG words in the identical order;
* GT streams are periodic, so their firing cycles inside the window are
  closed-form; Python merges them with the hit list per lane,
  cycle-major and GT before BE — the order ``TrafficDriver.generate``
  submits in, which the tracker's ``(src, seq)`` FIFO matching needs —
  and builds the :class:`~repro.noc.packet.Packet` objects (sequence
  numbers, payloads and tags are per-lane state);
* in probe mode the same scan stops before the first hit in any lane —
  the quiescence fast-forward's proof that a window is idle and its
  LFSR advance over that window, in one pass (bounded by the next GT
  firing).

The kernel is built, cached and loaded through the same pipeline as the
simulation body (:func:`repro.kernels.cbackend.load_source`), so it
shares the compiler probe, the content-hashed disk cache and the
availability gating.  When no C tier is available the caller falls back
to per-lane pure-Python generators, bit-identical by construction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "batched_be_generator",
    "jump_table",
    "load_traffic_kernel",
    "traffic_ffi",
]

_CDEF = """
int64_t repro_gen_be(
    int64_t lanes, int64_t n_src, int64_t start, int64_t stop, int64_t probe,
    const int64_t *thresholds, int64_t bound, int64_t span,
    const int64_t *jump,
    int64_t *states, int64_t *reads,
    int64_t *hits, int64_t cap);
"""

_SOURCE = """
#include <stdint.h>

/* One 32-step Galois LFSR jump via the 4x256 byte tables (exactly
 * HardwareLfsr.next_u32: tables are the GF(2) images of each state
 * byte after 32 single shifts, XORed together). */
static inline uint32_t lfsr_jump(uint32_t s, const int64_t *jump)
{
    return (uint32_t)(jump[s & 0xFF]
                    ^ jump[256 + ((s >> 8) & 0xFF)]
                    ^ jump[512 + ((s >> 16) & 0xFF)]
                    ^ jump[768 + (s >> 24)]);
}

/* Scan every lane's BE traffic stream over cycles [start, stop).
 *
 * Per cycle, per lane, per source: one jump + compare against the
 * lane's threshold (the Bernoulli draw).  A lane whose threshold is
 * negative has no live BE stream and draws no words.  `states` and
 * `reads[l]` (words consumed by lane l) are updated in place.
 *
 * probe == 0 (generate): on a hit, the destination is drawn in place
 * with rejection sampling below `span` then reduced modulo `bound` —
 * the same word sequence HardwareLfsr.next_below consumes — and
 * (lane, cycle, src, dest) is appended to `hits` (`cap` rows; the
 * caller sizes it for the worst case).  Returns the hit count.
 *
 * probe != 0 (idle window): stop before the first cycle in which any
 * lane hits.  A cycle's new states are parked in `hits[0..lanes)` and
 * committed only once every lane has passed it, so on return every
 * live lane has consumed exactly n_src words per returned cycle.
 * Returns the number of hit-free cycles; `reads[lanes]` accumulates
 * every word examined, the discarded cycle's included.
 */
int64_t repro_gen_be(
    int64_t lanes, int64_t n_src, int64_t start, int64_t stop, int64_t probe,
    const int64_t *thresholds, int64_t bound, int64_t span,
    const int64_t *jump,
    int64_t *states, int64_t *reads,
    int64_t *hits, int64_t cap)
{
    int64_t n = 0;
    for (int64_t c = start; c < stop; c++) {
        int64_t examined = 0;
        for (int64_t l = 0; l < lanes; l++) {
            const int64_t threshold = thresholds[l];
            if (threshold < 0)
                continue;
            uint32_t s = (uint32_t)states[l];
            int64_t rd = 0;
            for (int64_t src = 0; src < n_src; src++) {
                s = lfsr_jump(s, jump);
                rd++;
                if ((int64_t)s >= threshold)
                    continue;
                if (probe) {
                    reads[lanes] += examined + rd;
                    return c - start;
                }
                uint32_t d;
                do {
                    d = lfsr_jump(s, jump);
                    rd++;
                    s = d;
                } while ((int64_t)d >= span);
                int64_t dest = (int64_t)(d % (uint32_t)bound);
                if (dest >= src)
                    dest += 1;
                if (n < cap) {
                    hits[n * 4] = l;
                    hits[n * 4 + 1] = c;
                    hits[n * 4 + 2] = src;
                    hits[n * 4 + 3] = dest;
                }
                n++;
            }
            examined += rd;
            if (probe) {
                hits[l] = (int64_t)s;
            } else {
                states[l] = (int64_t)s;
                reads[l] += rd;
            }
        }
        if (probe) {
            for (int64_t l = 0; l < lanes; l++) {
                if (thresholds[l] < 0)
                    continue;
                states[l] = hits[l];
                reads[l] += n_src;
            }
            reads[lanes] += examined;
        }
    }
    return probe ? stop - start : n;
}
"""

_jump_cache = None


def jump_table():
    """The 4x256 jump tables flattened for the kernel (1024 words)."""
    global _jump_cache
    if _jump_cache is None:
        import numpy as np

        from repro.traffic.rng import _JUMP

        _jump_cache = np.array(
            [word for table in _JUMP for word in table], dtype=np.int64
        )
    return _jump_cache


def traffic_ffi():
    """The cffi instance whose cdef matches :func:`load_traffic_kernel`."""
    from repro.kernels import cbackend

    return cbackend._ffi_for(_CDEF)


def load_traffic_kernel():
    """The dlopened traffic kernel, or ``None`` when no C tier exists.

    Unlike the simulation body's loader this one never raises: batched
    traffic is an internal optimisation with a bit-identical Python
    fallback, so unavailability is not an error the caller must see.
    """
    from repro.kernels import (
        KernelUnavailableError,
        cbackend,
        resolve_kernels_mode,
    )

    try:
        if resolve_kernels_mode(None) == "numpy":
            return None
        return cbackend.load_source(_SOURCE, _CDEF)
    except (KernelUnavailableError, ValueError):
        return None


class BatchedBeGenerator:
    """Drive every lane's BE (and GT) streams through one C scan per
    window."""

    def __init__(self, drivers: Sequence, kernel) -> None:
        import numpy as np

        self.drivers: List = list(drivers)
        self._kernel = kernel
        self._ffi = traffic_ffi()
        net = self.drivers[0].net
        self._net = net
        self.n_src = net.n_routers
        self.bound = net.n_routers - 1
        self.span = (2**32 // self.bound) * self.bound
        self._be_vcs = net.router.be_vcs
        #: the lanes share one fabric, so one (pure) word cache serves all.
        self._encoder = self.drivers[0]._encoder
        #: LFSR words the idle-window probes examined (committed or not).
        self.probe_words = 0
        lanes = len(self.drivers)
        self._bes = [driver.be for driver in self.drivers]
        #: ``(lane, be)`` of every lane whose BE stream draws LFSR words;
        #: the others (``be=None``, zero load) keep threshold -1 in C.
        self._live = [
            (lane, be)
            for lane, be in enumerate(self._bes)
            if be is not None and be.packet_probability > 0
        ]
        #: per lane: its GT generator, ``None`` without streams.
        self._gts = [
            driver.gt if driver.gt is not None and driver.gt.streams else None
            for driver in self.drivers
        ]
        self._thresholds = np.full(lanes, -1, dtype=np.int64)
        for lane, be in self._live:
            self._thresholds[lane] = int(be.packet_probability * 2**32)
        self._states = np.zeros(lanes, dtype=np.int64)
        self._reads = np.zeros(lanes + 1, dtype=np.int64)
        self._jump = jump_table()
        self._p_thresholds = self._ptr(self._thresholds)
        self._p_jump = self._ptr(self._jump)
        self._p_states = self._ptr(self._states)
        self._p_reads = self._ptr(self._reads)
        self._grow_hits(lanes * self.n_src)

    def _ptr(self, arr):
        return self._ffi.cast("int64_t *", arr.ctypes.data)

    def _grow_hits(self, cap: int) -> None:
        import numpy as np

        self._cap = cap
        self._hits = np.zeros(cap * 4, dtype=np.int64)
        self._p_hits = self._ptr(self._hits)

    def _scan(self, start: int, stop: int, probe: int) -> int:
        """One C scan of ``[start, stop)`` over every live lane's LFSR;
        the generators' ``state``/``words_read`` are carried in and out."""
        live = self._live
        if not probe:  # worst case: every source of every lane hits every cycle
            cap = len(live) * self.n_src * (stop - start)
            if cap > self._cap:
                self._grow_hits(cap)
        states = self._states
        for lane, be in live:
            states[lane] = be.rng.state
        self._reads[:] = 0
        n = self._kernel.repro_gen_be(
            len(self.drivers),
            self.n_src,
            start,
            stop,
            probe,
            self._p_thresholds,
            self.bound,
            self.span,
            self._p_jump,
            self._p_states,
            self._p_reads,
            self._p_hits,
            self._cap,
        )
        reads = self._reads.tolist()
        new_states = states.tolist()
        for lane, be in live:
            be.rng.state = new_states[lane]
            be.rng.words_read += reads[lane]
        self.probe_words += reads[-1]
        return n

    def _gt_firings(self, start: int, stop: int) -> List[Tuple[int, int, int]]:
        """``(cycle, lane, stream)`` of every GT emission in ``[start,
        stop)``, sorted: a stream fires at the cycles congruent to its
        phase, so the first one at or after ``start`` is closed-form."""
        firings = []
        for lane, gt in enumerate(self._gts):
            if gt is None:
                continue
            period = gt.period
            for stream, phase in enumerate(gt._phase):
                for cycle in range(
                    start + (phase - start) % period, stop, period
                ):
                    firings.append((cycle, lane, stream))
        firings.sort()
        return firings

    def _packets(self, start: int, stop: int):
        """``(lane, cycle, packet, vc)`` for every packet of cycles
        ``[start, stop)`` — each lane's in ``TrafficDriver.generate``
        order (cycle-major, GT streams before BE sources), with the
        sequence numbers and BE-VC toggles advanced exactly as
        ``generate`` advances them."""
        from repro.noc.packet import Packet, PacketClass
        from repro.traffic.generators import _ramp_payload

        n = self._scan(start, stop, 0) if self._live else 0
        firings = self._gt_firings(start, stop)
        fired, n_firings = 0, len(firings)
        bes, gts, drivers = self._bes, self._gts, self.drivers
        be_vcs = self._be_vcs
        n_vcs = len(be_vcs)
        be_class = PacketClass.BE
        for lane, cycle, src, dest in self._hits[: 4 * n].reshape(n, 4).tolist():
            # every firing up to and including this (cycle, lane) goes
            # first: (c, l, i) < (cycle, lane + 1) iff (c, l) <= (cycle, lane)
            while fired < n_firings and firings[fired] < (cycle, lane + 1):
                at, gt_lane, stream = firings[fired]
                yield (gt_lane, at, *gts[gt_lane].emit(stream))
                fired += 1
            be = bes[lane]
            seqs = be._seq
            seq = seqs[src]
            seqs[src] = (seq + 1) & 0xFF
            packet = Packet(
                src,
                dest,
                be_class,
                _ramp_payload(src + seq, be.payload_bytes),
                seq % 128,
                seq,
            )
            toggles = drivers[lane]._be_vc_toggle
            toggle = toggles[src]
            toggles[src] = (toggle + 1) % n_vcs
            yield lane, cycle, packet, be_vcs[toggle]
        for at, gt_lane, stream in firings[fired:]:
            yield (gt_lane, at, *gts[gt_lane].emit(stream))

    def generate(self, cycle: int) -> None:
        """What ``driver.generate(cycle)`` would do, for every lane."""
        drivers = self.drivers
        for lane, _, packet, vc in self._packets(cycle, cycle + 1):
            drivers[lane]._submit(packet, vc, cycle)

    def scan_window(self, start: int, stop: int) -> List[List[Tuple]]:
        """The pure half of :meth:`generate_window`: one C scan of
        ``[start, stop)``, returned as one flat ``(cycle, packet, vc)``
        list per lane in submit order.  Touches only what the generating
        thread owns — LFSR state, sequence numbers, GT emit counters and
        BE-VC toggles — never a driver's queues, counters or tracker."""
        lanes: List[List[Tuple]] = [[] for _ in self.drivers]
        for lane, cycle, packet, vc in self._packets(start, stop):
            lanes[lane].append((cycle, packet, vc))
        return lanes

    def generate_window(self, start: int, stop: int):
        """Generate cycles ``[start, stop)`` for every lane in one C
        scan, handing the encoded flit words over directly instead of
        queueing them.

        Returns one ``{(src, vc): (words, cycles, seqs)}`` dict per lane
        — three parallel lists per stimuli queue, ready to be staged by
        the fused chunk kernel.  This is :meth:`scan_window` followed by
        the admit half (:func:`~repro.traffic.stimuli.encode_window`,
        ``driver.admit``, ``driver.note_submit``), which performs all the
        driver bookkeeping of the per-cycle path (submit records, tracker
        notes, ``flits_generated``, queue-key registration), so a
        consumer that re-queues unconsumed words leaves the drivers
        bit-identical to ``stop - start`` ``generate`` calls.
        """
        from repro.traffic.stimuli import encode_window

        window = []
        for driver, packets in zip(self.drivers, self.scan_window(start, stop)):
            fresh = encode_window(self._net, self._encoder, packets)
            driver.admit(fresh)
            note = driver.note_submit
            for cycle, packet, vc in packets:
                note(packet, vc, cycle)
            window.append(fresh)
        return window

    def skip_idle(self, cycle: int, limit: int) -> int:
        """Advance every lane over the longest window of at most
        ``limit`` cycles from ``cycle`` in which no lane generates a
        packet; returns its length.  The window ends before the next GT
        firing (closed-form); within it the same C scan in probe mode
        stops before the first BE hit in any lane, having drawn exactly
        the ``n_src`` words per live lane per cycle that stepping the
        window would have drawn."""
        for gt in self._gts:
            if gt is not None:
                limit = min(limit, gt.cycles_to_next_packet(cycle))
        if limit <= 0:
            return 0
        return self._scan(0, limit, 1)


def batched_be_generator(drivers: Sequence) -> Optional[BatchedBeGenerator]:
    """A batched generator for ``drivers``, or ``None`` when ineligible.

    Eligibility is strict so the C scan is exactly the Python scan:
    every driver a plain :class:`~repro.traffic.stimuli.TrafficDriver`
    whose GT source (if any) is exactly a :class:`GtStreamTraffic` and
    whose BE source (if any) is a :class:`BernoulliBeTraffic` over the
    declared-bound uniform-random pattern, at least one lane with a
    positive packet probability — loads may differ per lane — and a
    loadable C tier.
    """
    from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic
    from repro.traffic.stimuli import TrafficDriver

    drivers = list(drivers)
    live = False
    for driver in drivers:
        if type(driver) is not TrafficDriver:
            return None
        if driver.gt is not None and type(driver.gt) is not GtStreamTraffic:
            return None
        be = driver.be
        if be is None:
            continue
        if not isinstance(be, BernoulliBeTraffic):
            return None
        if getattr(be.pattern, "uniform_bound", None) != driver.net.n_routers - 1:
            return None
        live = live or be.packet_probability > 0
    if not live:
        return None
    kernel = load_traffic_kernel()
    if kernel is None:
        return None
    return BatchedBeGenerator(drivers, kernel)
