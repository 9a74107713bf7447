"""Generated-C stimuli kernel: lane-batched traffic windows as columns.

Sweeps and benches drive every lane of a batch engine with its own
:class:`~repro.traffic.generators.BernoulliBeTraffic` stream, usually
beside a fixed set of :class:`~repro.traffic.generators.GtStreamTraffic`
streams (the Fig. 1 workload).  Everything between the LFSR and the
chunk kernel's stimuli buffers is integer arithmetic on the scan's
``(lane, cycle, src, dest)`` hits, so it runs here, in C functions over
the columns of :mod:`repro.traffic.stimuli` — and so is the other end of
the run, matching the packets that came out (``repro_match``):

* ``repro_gen_be`` — **generate**.  Every lane's 32-bit Galois LFSR
  yields the words of :class:`~repro.traffic.rng.HardwareLfsr.next_u32`
  against that lane's own threshold (a zero-load or ``be=None`` lane
  draws no words at all, like ``packets_for_cycle``'s early return).
  One dependency step rejects sixteen words: four lookups give their
  top bytes (:func:`lfsr_tables`), a byte compare proves none is a hit,
  one ``J^16`` lookup takes them.  A lane's scan runs on across cycles
  to its next hit, so the cycle-major loop visits only cycles in which
  some lane hits or a GT stream fires.  A window ends at the first
  cycle boundary at which it holds its flit budget
  (:data:`~repro.traffic.stimuli.FLIT_BUDGET`), and a lane that read
  past it is advanced again to it.  A Bernoulli hit draws the
  uniform-random destination with the same rejection sampling as
  :meth:`~repro.traffic.rng.HardwareLfsr.next_below` — the identical
  number of RNG words in the identical order — and becomes one packet
  column then and there: sequence number, tag and BE-VC toggle are
  per-lane counters the scan carries.  GT streams are periodic, so their
  firings are closed-form; they are emitted cycle-major, GT before BE —
  the order ``TrafficDriver.generate`` submits in, which the tracker's
  ``(src, seq)`` FIFO matching needs.  In probe mode the same scan,
  cycle by cycle, stops before the first hit in any lane — the
  quiescence fast-forward's proof that a window is idle and its LFSR
  advance over that window, in one pass (bounded by the next GT
  firing).
* ``repro_load_flits`` — **load**.  Packets grouped by lane; head,
  source-info and ramp-payload flit words (pure functions of a packet
  column and the flit layout) grouped by stimuli queue.
* ``repro_stage`` / ``repro_carry`` — the chunk kernel's two ends: merge
  every driver's backlog with a window's flits into the staged ``q`` /
  ``e`` rows, and afterwards write each queue's unconsumed tail and
  stall counter back, in place in the drivers'
  :class:`~repro.traffic.stimuli.StimuliQueues`.
* ``repro_match`` — **analyze**.  The C body of
  ``PacketLatencyTracker._match`` (DESIGN section 15): one pass over a
  window's events, read in place in the engine's logs.  It lives in this
  translation unit because every compiled engine has it loaded already;
  :class:`PacketMatch` is its binding, one per tracker.

The kernel is built, cached and loaded through the same pipeline as the
simulation body (:func:`repro.kernels.cbackend.load_source`), so it
shares the compiler probe, the content-hashed disk cache and the
availability gating.  Where the scan does not apply, windows come from
the drivers' own Python generators
(:class:`~repro.traffic.stimuli.DriverWindows`), bit-identical by
construction.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.traffic.rng import GALOIS_MASK
from repro.traffic.stimuli import Stimuli, WindowSource

__all__ = [
    "BatchedBeGenerator",
    "PacketMatch",
    "batched_be_generator",
    "bind_stimuli_kernel",
    "lfsr_tables",
    "stimuli_kernel",
]

_CDEF = """
int64_t repro_gen_be(
    int64_t lanes, int64_t upto, int64_t n_src, int64_t start, int64_t stop,
    int64_t probe,
    const int64_t *thresholds, int64_t bound, int64_t span,
    const uint32_t *jumps, const uint64_t *tops,
    int64_t *states, int64_t *tally,
    int64_t bpf, const int64_t *be_nbytes, int64_t *be_seq, int64_t *toggles,
    const int64_t *be_vcs, int64_t n_be_vcs,
    int64_t n_gt, const int64_t *gt_lane, const int64_t *gt_stream,
    int64_t *gt_seq, int64_t *work,
    int64_t *pk, int64_t cap, int64_t budget, int64_t *ends);
void repro_lfsr_tables(int64_t mask, uint32_t *jumps, uint64_t *tops);
int64_t repro_load_flits(
    int64_t m, const int64_t *pk,
    int64_t n_keys, int64_t n_vcs, int64_t width, int64_t dw,
    int64_t *queues, int64_t q_cap, int64_t *flits, int64_t n,
    int64_t *key_queue, int64_t *work);
int64_t repro_stage(
    int64_t lanes, int64_t n_keys, int64_t n_vcs, const int64_t *stores,
    int64_t nq_w, const int64_t *wq, const int64_t *wf, int64_t wf_cap,
    int64_t *q, int64_t q_cap, int64_t *e, int64_t e_cap,
    int64_t *fresh, int64_t *marks);
void repro_carry(
    int64_t lanes, int64_t n_keys, const int64_t *stores,
    int64_t nqs, const int64_t *q, int64_t q_cap,
    const int64_t *e, int64_t e_cap);
int64_t repro_match(
    int64_t lanes, int64_t width, int64_t height, int64_t n_vcs, int64_t dw,
    const int64_t *hops, const int64_t *lane, const int64_t *blocks,
    int64_t n_table, int64_t *scratch, int64_t *work,
    int64_t *samples, int64_t s_stride, int64_t *submits_left, int64_t m_stride,
    int64_t *heads_left, int64_t k_stride, int64_t *still_open, int64_t o_stride,
    int64_t *counts);
"""

_SOURCE = """
#include <stdint.h>
#include <string.h>

/* Rows of the packet columns (repro.traffic.stimuli.P_*). */
enum { P_LANE, P_CYCLE, P_SRC, P_DEST, P_VC, P_SEQ, P_TAG, P_GT, P_NBYTES,
       P_ROWS };

/* Flits of a packet: head, source info, `bpf` payload bytes per flit. */
static inline int64_t packet_flits(int64_t nbytes, int64_t bpf)
{
    return 2 + (nbytes + bpf - 1) / bpf;
}

/* The look-ahead tables of the 32-bit Galois LFSR, J one register read
 * (32 shifts; HardwareLfsr.next_u32).  Every J^k is linear over GF(2),
 * so the image of a state is the XOR of the images of its four bytes:
 *
 *   jumps  [3][4][256] uint32  byte images of J^1, J^8 and J^16 (rows
 *                              J1, J8, J16);
 *   tops   [4][256][2] uint64  the top bytes of the images under J^1 ..
 *                              J^16, packed little-endian: word k of a
 *                              state in byte (k - 1) % 8 of uint64
 *                              (k - 1) / 8.
 */
enum { J1 = 0, J8 = 1024, J16 = 2048 };

static inline uint32_t lfsr_image(uint32_t s, const uint32_t *t)
{
    return t[s & 0xFF] ^ t[256 + ((s >> 8) & 0xFF)]
         ^ t[512 + ((s >> 16) & 0xFF)] ^ t[768 + (s >> 24)];
}

/* Fill both tables for the feedback mask `mask`, by stepping single
 * bits and bytes: no map composition. */
void repro_lfsr_tables(int64_t mask, uint32_t *jumps, uint64_t *tops)
{
    uint32_t bit_image[32];
    for (int b = 0; b < 32; b++) {
        uint32_t s = (uint32_t)1 << b;
        for (int shift = 0; shift < 32; shift++)
            s = (s >> 1) ^ ((s & 1) ? (uint32_t)mask : 0);
        bit_image[b] = s;
    }
    for (int p = 0; p < 4; p++)
        for (int v = 0; v < 256; v++) {
            uint32_t image = 0;
            for (int b = 0; b < 8; b++)
                if ((v >> b) & 1)
                    image ^= bit_image[8 * p + b];
            jumps[J1 + 256 * p + v] = image;
        }
    for (int p = 0; p < 4; p++)
        for (int v = 0; v < 256; v++) {
            uint32_t s = (uint32_t)v << (8 * p);
            uint64_t *const top = tops + 2 * (256 * p + v);
            top[0] = top[1] = 0;
            for (int k = 0; k < 16; k++) {
                s = lfsr_image(s, jumps + J1);
                top[k / 8] |= (uint64_t)(s >> 24) << (8 * (k % 8));
                if (k == 7)
                    jumps[J8 + 256 * p + v] = s;
            }
            jumps[J16 + 256 * p + v] = s;
        }
}

/* `s` advanced `n` register reads: one lookup per sixteen. */
static inline uint32_t lfsr_advance(uint32_t s, int64_t n, const uint32_t *jumps)
{
    for (; n >= 16; n -= 16)
        s = lfsr_image(s, jumps + J16);
    if (n >= 8) {
        s = lfsr_image(s, jumps + J8);
        n -= 8;
    }
    for (; n > 0; n--)
        s = lfsr_image(s, jumps + J1);
    return s;
}

/* The high bit of each byte of `x` below the byte value `under`
 * (<= 128; broadcast to every byte): zero exactly when no byte is, and
 * the lowest one set is the first such byte (a borrow runs only upward,
 * from a byte that is below). */
static inline uint64_t bytes_below(uint64_t x, uint64_t under)
{
    return (x - under) & ~x & 0x8080808080808080ULL;
}

/* The Bernoulli draws of the next `n` words of the LFSR at `*state`:
 * returns the index of the first word below `threshold`, leaving that
 * word in `*state`, or `n`, with `*state` advanced `n` words.
 *
 * A word is below the threshold only if its top byte is at most
 * (threshold - 1) >> 24.  Up to 2^31 that limit fits a SWAR byte
 * compare, so one dependency step reads the top bytes of the next 16
 * words (four lookups, two uint64) and, when none can be a hit, takes
 * all 16 through J^16.  A block whose first 8 words hold no candidate
 * takes those 8 through J^8; the words before the first candidate are
 * stepped without a test, and the candidate is tested whole — so hits
 * and word counts are the serial walk's.  Above 2^31 nearly every block
 * holds a candidate, and the scan is the serial walk. */
static int64_t lfsr_scan(uint32_t *state, int64_t n, int64_t threshold,
                         const uint32_t *jumps, const uint64_t *tops)
{
    const int blocks = threshold <= ((int64_t)1 << 31);
    const uint64_t under = 0x0101010101010101ULL
                         * (uint64_t)(threshold > 0 ? ((threshold - 1) >> 24) + 1 : 0);
    uint32_t s = *state;
    int64_t k = 0;
    while (k < n) {
        int64_t skip = 0; /* words before the next candidate */
        if (blocks && n - k >= 8) {
            const uint64_t *const t0 = tops + 2 * (s & 0xFF);
            const uint64_t *const t1 = tops + 2 * (256 + ((s >> 8) & 0xFF));
            const uint64_t *const t2 = tops + 2 * (512 + ((s >> 16) & 0xFF));
            const uint64_t *const t3 = tops + 2 * (768 + (s >> 24));
            uint64_t below = bytes_below(t0[0] ^ t1[0] ^ t2[0] ^ t3[0], under);
            if (!below) {
                if (n - k >= 16) {
                    below = bytes_below(t0[1] ^ t1[1] ^ t2[1] ^ t3[1], under);
                    if (!below) {
                        s = lfsr_image(s, jumps + J16);
                        k += 16;
                        continue;
                    }
                }
                s = lfsr_image(s, jumps + J8);
                k += 8;
                if (!below)
                    continue;
            }
            skip = __builtin_ctzll(below) >> 3;
        }
        k += skip;
        for (; skip > 0; skip--)
            s = lfsr_image(s, jumps + J1);
        s = lfsr_image(s, jumps + J1);
        if ((int64_t)s < threshold) {
            *state = s;
            return k;
        }
        k++;
    }
    *state = s;
    return n;
}

/* Scan the traffic of lanes [0, upto) from cycle `start`, to `stop` at
 * most; every table holds `lanes` lanes.  Returns the cycle the scan
 * stopped at.
 *
 * Per cycle, per lane, per source: one LFSR word compared against the
 * lane's threshold (the Bernoulli draw; lfsr_scan rejects 16 words per
 * dependency step).  A lane whose threshold is negative has no live BE
 * stream and draws no words.  `states` and `tally[l]` (words consumed
 * by lane l) are updated in place.  `work` is scratch: n_gt + 5 words a
 * lane.
 *
 * probe == 0 (generate): stop at the first cycle boundary at which the
 * window holds `budget` flits (`bpf` payload bytes per flit).  Between
 * hits a lane's Bernoulli words run on across cycles (word i of the
 * window is source i % n_src of cycle start + i / n_src), so each lane
 * scans ahead from its last exact state to its next hit — the window's
 * last word at most — and the cycle-major loop visits only cycles in
 * which some lane hits or a GT stream fires.  At the window's end a
 * lane whose scan read past it is advanced again, through the jump
 * tables, from its last exact state.  Every
 * packet of the window becomes one column of `pk` (rows of 2 * cap
 * columns; the caller sizes `cap` for the packets of one flit short of
 * the budget plus one cycle's worst case), in cycle-major, lane,
 * GT-before-BE order, and columns [cap, cap + n) then hold the same
 * packets grouped by lane (stable, so each lane keeps its submit
 * order), `ends` their cumulative ends and flit counts per lane.  A
 * lane's GT streams
 * (gt_lane rows: count, period, payload bytes; gt_stream rows: phase,
 * src, dest, vc; `n_gt` columns per lane) fire at the cycles congruent
 * to their phase, in stream order.  On a BE hit the destination is
 * drawn in place with rejection sampling below `span` then reduced
 * modulo `bound` — the same word sequence HardwareLfsr.next_below
 * consumes.  Sequence numbers (be_seq, gt_seq) and the per-source BE-VC
 * toggles advance as TrafficDriver.generate advances them.
 *
 * probe != 0 (idle window; the caller cut it at the next GT firing):
 * stop before the first cycle in which any lane hits.  The scan goes
 * cycle by cycle, lane by lane, so no word past the discarded cycle is
 * read.  A cycle's new states are parked in `pk[0..lanes)` and
 * committed only once every lane has passed it, so on return every
 * live lane has consumed exactly n_src words per completed cycle.
 * `tally[lanes]` accumulates every word examined, the discarded cycle's
 * included.
 */
int64_t repro_gen_be(
    int64_t lanes, int64_t upto, int64_t n_src, int64_t start, int64_t stop,
    int64_t probe,
    const int64_t *thresholds, int64_t bound, int64_t span,
    const uint32_t *jumps, const uint64_t *tops,
    int64_t *states, int64_t *tally,
    int64_t bpf, const int64_t *be_nbytes, int64_t *be_seq, int64_t *toggles,
    const int64_t *be_vcs, int64_t n_be_vcs,
    int64_t n_gt, const int64_t *gt_lane, const int64_t *gt_stream,
    int64_t *gt_seq, int64_t *work,
    int64_t *pk, int64_t cap, int64_t budget, int64_t *ends)
{
    const int64_t *gt_count = gt_lane, *gt_period = gt_lane + lanes;
    const int64_t *gt_nbytes = gt_lane + 2 * lanes;
    const int64_t n_streams = lanes * n_gt;
    const int64_t *gt_phase = gt_stream, *gt_src = gt_stream + n_streams;
    const int64_t *gt_dest = gt_stream + 2 * n_streams;
    const int64_t *gt_vc = gt_stream + 3 * n_streams;
    /* per stream: its next firing; per lane: its next firing, the
     * window word of states[l] (its last exact state), its next hit
     * (`total`: none in the window), that hit's cycle and the hit word
     * (with no hit: the state at `total`) */
    int64_t *gt_fire = work, *gt_next = work + n_streams;
    int64_t *exact = gt_next + lanes, *hit = exact + lanes;
    int64_t *hit_cycle = hit + lanes, *hit_word = hit_cycle + lanes;
    const int64_t total = n_src * (stop - start);
    const int64_t stride = 2 * cap;
    int64_t *lane_ends = ends, *lane_flits = ends + lanes;
    int64_t n = 0, flits = 0, c;
#define EMIT(lane, cycle, src, dest, vc, seq, tag, gt, nbytes)              \\
    do {                                                                    \\
        pk[P_LANE * stride + n] = (lane);                                   \\
        pk[P_CYCLE * stride + n] = (cycle);                                 \\
        pk[P_SRC * stride + n] = (src);                                     \\
        pk[P_DEST * stride + n] = (dest);                                   \\
        pk[P_VC * stride + n] = (vc);                                       \\
        pk[P_SEQ * stride + n] = (seq);                                     \\
        pk[P_TAG * stride + n] = (tag);                                     \\
        pk[P_GT * stride + n] = (gt);                                       \\
        pk[P_NBYTES * stride + n] = (nbytes);                               \\
        flits += packet_flits((nbytes), bpf);                               \\
        n++;                                                                \\
    } while (0)

    if (probe) {
        for (c = start; c < stop; c++) {
            int64_t examined = 0;
            for (int64_t l = 0; l < upto; l++) {
                if (thresholds[l] < 0)
                    continue;
                uint32_t s = (uint32_t)states[l];
                const int64_t k = lfsr_scan(&s, n_src, thresholds[l], jumps, tops);
                if (k < n_src) {
                    tally[lanes] += examined + k + 1;
                    return c;
                }
                examined += n_src;
                pk[l] = (int64_t)s;
            }
            for (int64_t l = 0; l < upto; l++) {
                if (thresholds[l] < 0)
                    continue;
                states[l] = pk[l];
                tally[l] += n_src;
            }
            tally[lanes] += examined;
        }
        return c;
    }

    /* lane l's next hit from its last exact state */
#define FIND_HIT(l)                                                         \\
    do {                                                                    \\
        uint32_t s_ = (uint32_t)states[l];                                  \\
        hit[l] = exact[l] + lfsr_scan(&s_, total - exact[l], thresholds[l], \\
                                      jumps, tops);                         \\
        hit_cycle[l] = hit[l] < total ? start + hit[l] / n_src : INT64_MAX; \\
        hit_word[l] = (int64_t)s_;                                          \\
    } while (0)

    for (int64_t l = 0; l < upto; l++) {
        /* first firing of every GT stream at or after `start` */
        int64_t next = INT64_MAX;
        for (int64_t i = 0; i < gt_count[l]; i++) {
            const int64_t period = gt_period[l];
            int64_t off = (gt_phase[l * n_gt + i] - start) % period;
            if (off < 0)
                off += period;
            gt_fire[l * n_gt + i] = start + off;
            if (start + off < next)
                next = start + off;
        }
        gt_next[l] = next;
        exact[l] = 0;
        hit[l] = total;
        hit_cycle[l] = INT64_MAX;
        if (thresholds[l] >= 0)
            FIND_HIT(l);
    }
    for (c = start; c < stop && flits < budget; c++) {
        int64_t due = INT64_MAX; /* the next cycle holding a packet */
        for (int64_t l = 0; l < upto; l++) {
            if (gt_next[l] < due)
                due = gt_next[l];
            if (hit_cycle[l] < due)
                due = hit_cycle[l];
        }
        if (due >= stop) {
            c = stop;
            break;
        }
        c = due;
        for (int64_t l = 0; l < upto; l++) {
            if (gt_next[l] == c) {
                int64_t next = INT64_MAX;
                for (int64_t i = 0; i < gt_count[l]; i++) {
                    const int64_t k = l * n_gt + i;
                    if (gt_fire[k] == c) {
                        const int64_t seq = gt_seq[k];
                        gt_seq[k] = (seq + 1) & 0xFF;
                        EMIT(l, c, gt_src[k], gt_dest[k], gt_vc[k], seq,
                             i % 128, 1, gt_nbytes[l]);
                        gt_fire[k] += gt_period[l];
                    }
                    if (gt_fire[k] < next)
                        next = gt_fire[k];
                }
                gt_next[l] = next;
            }
            while (hit_cycle[l] == c) {
                /* the destination, drawn as HardwareLfsr.next_below draws */
                uint32_t s = (uint32_t)hit_word[l], d;
                do {
                    d = lfsr_image(s, jumps + J1);
                    tally[l]++;
                    s = d;
                } while ((int64_t)d >= span);
                const int64_t src = hit[l] - (c - start) * n_src;
                int64_t dest = (int64_t)(d % (uint32_t)bound);
                if (dest >= src)
                    dest += 1;
                const int64_t k = l * n_src + src;
                const int64_t seq = be_seq[k], toggle = toggles[k];
                be_seq[k] = (seq + 1) & 0xFF;
                toggles[k] = (toggle + 1) % n_be_vcs;
                EMIT(l, c, src, dest, be_vcs[toggle], seq, seq % 128, 0,
                     be_nbytes[l]);
                states[l] = (int64_t)s;
                exact[l] = hit[l] + 1;
                FIND_HIT(l);
            }
        }
    }
#undef FIND_HIT
#undef EMIT
    /* every live lane at the window's end: its Bernoulli words there */
    const int64_t end = n_src * (c - start);
    for (int64_t l = 0; l < upto; l++) {
        if (thresholds[l] < 0)
            continue;
        if (hit[l] == total && end == total)
            states[l] = hit_word[l];
        else
            states[l] = (int64_t)lfsr_advance((uint32_t)states[l], end - exact[l], jumps);
        tally[l] += end;
    }
    /* group by lane: count, then place (lane_flits is the write cursor) */
    int64_t at = 0;
    for (int64_t l = 0; l < lanes; l++)
        lane_ends[l] = 0;
    for (int64_t j = 0; j < n; j++)
        lane_ends[pk[P_LANE * stride + j]]++;
    for (int64_t l = 0; l < lanes; l++) {
        const int64_t count = lane_ends[l];
        lane_flits[l] = at;
        at += count;
        lane_ends[l] = at;
    }
    for (int64_t j = 0; j < n; j++) {
        const int64_t k = cap + lane_flits[pk[P_LANE * stride + j]]++;
        for (int64_t f = 0; f < P_ROWS; f++)
            pk[f * stride + k] = pk[f * stride + j];
    }
    for (int64_t l = 0; l < lanes; l++)
        lane_flits[l] = 0;
    for (int64_t j = 0; j < n; j++)
        lane_flits[pk[P_LANE * stride + j]] +=
            packet_flits(pk[P_NBYTES * stride + j], bpf);
    return c;
}

/* The load step: the flits of `m` packets (`pk`, [P_ROWS, m], grouped
 * by lane) grouped by stimuli queue.
 *
 *   queues     [4, q_cap]   lane, router, vc and cumulative end of each
 *                           queue's run in `flits`: queues grouped by
 *                           lane, in first-submit order;
 *   flits      [3, n]       flit word, release cycle, packet sequence
 *                           number.
 *
 * A packet is HEAD(header) . BODY(source info) . payload flits, the
 * last one the TAIL (repro.noc.packet.segment); generator payloads are
 * the byte ramp from `seq` (GT) or `src + seq` (BE), packed
 * little-endian, dw / 8 bytes per flit.  `key_queue` (n_keys per lane,
 * all -1 on entry and on return) and `work` (m + q_cap) are scratch.
 * Returns the number of queues.
 */
int64_t repro_load_flits(
    int64_t m, const int64_t *pk,
    int64_t n_keys, int64_t n_vcs, int64_t width, int64_t dw,
    int64_t *queues, int64_t q_cap, int64_t *flits, int64_t n,
    int64_t *key_queue, int64_t *work)
{
    const int64_t bpf = dw / 8;
    int64_t *q_lane = queues, *q_router = queues + q_cap;
    int64_t *q_vc = queues + 2 * q_cap, *q_end = queues + 3 * q_cap;
    int64_t *packet_queue = work, *cursor = work + m;
    int64_t at = 0, nq = 0;

    for (int64_t k = 0; k < m; k++) {
        const int64_t lane = pk[P_LANE * m + k];
        const int64_t key = lane * n_keys + pk[P_SRC * m + k] * n_vcs
                          + pk[P_VC * m + k];
        int64_t qi = key_queue[key];
        if (qi < 0) {
            qi = key_queue[key] = nq++;
            q_lane[qi] = lane;
            q_router[qi] = pk[P_SRC * m + k];
            q_vc[qi] = pk[P_VC * m + k];
            q_end[qi] = 0;
        }
        q_end[qi] += packet_flits(pk[P_NBYTES * m + k], bpf);
        packet_queue[k] = qi;
    }
    at = 0;
    for (int64_t qi = 0; qi < nq; qi++) {
        cursor[qi] = at;
        at += q_end[qi];
        q_end[qi] = at;
        key_queue[q_lane[qi] * n_keys + q_router[qi] * n_vcs + q_vc[qi]] = -1;
    }

    int64_t *f_word = flits, *f_cycle = flits + n, *f_seq = flits + 2 * n;
    for (int64_t k = 0; k < m; k++) {
        const int64_t src = pk[P_SRC * m + k], dest = pk[P_DEST * m + k];
        const int64_t seq = pk[P_SEQ * m + k], gt = pk[P_GT * m + k];
        const int64_t nbytes = pk[P_NBYTES * m + k];
        const int64_t chunks = (nbytes + bpf - 1) / bpf;
        const int64_t ramp = gt ? seq : src + seq;
        int64_t w = cursor[packet_queue[k]];
        const int64_t first = w;
        f_word[w++] = ((int64_t)1 << dw) | (dest % width) | ((dest / width) << 4)
                    | (gt << 8) | (pk[P_TAG * m + k] << 9);
        f_word[w++] = ((int64_t)2 << dw) | (src % width) | ((src / width) << 4)
                    | (seq << 8);
        for (int64_t c = 0; c < chunks; c++) {
            const int64_t left = nbytes - c * bpf;
            int64_t data = 0;
            for (int64_t j = 0; j < (left < bpf ? left : bpf); j++)
                data |= ((ramp + c * bpf + j) & 0xFF) << (8 * j);
            f_word[w++] = ((int64_t)(c == chunks - 1 ? 3 : 2) << dw) | data;
        }
        for (int64_t i = first; i < w; i++) {
            f_cycle[i] = pk[P_CYCLE * m + k];
            f_seq[i] = seq;
        }
        cursor[packet_queue[k]] = w;
    }
    return nq;
}

/* A driver's StimuliQueues, by address: `stores` rows are the table's
 * address, the entry arena's address and the arena's capacity, one
 * column per lane (the layout is StimuliQueues' own). */
#define STORE(l)                                                            \\
    int64_t *const table = (int64_t *)(intptr_t)stores[(l)];                \\
    int64_t *const rows = (int64_t *)(intptr_t)stores[lanes + (l)];         \\
    const int64_t cap = stores[2 * lanes + (l)];                            \\
    int64_t *const slot_of = table, *const router = table + n_keys;         \\
    int64_t *const vc = table + 2 * n_keys, *const lo = table + 3 * n_keys; \\
    int64_t *const hi = table + 4 * n_keys;                                 \\
    int64_t *const stall = table + 5 * n_keys;                              \\
    int64_t *const mark = table + 6 * n_keys;                               \\
    (void)slot_of; (void)router; (void)vc; (void)lo; (void)hi;              \\
    (void)stall; (void)mark; (void)rows; (void)cap

/* Stage a chunk: every lane's backlog, then the window's flits behind
 * it, as the chunk kernel's `q` rows (lane, router, vc, end, head,
 * stall, touched, + the store's slot) and `e` rows (word, cycle, seq) —
 * lane-major, each lane's queues in its store's slot order, empty
 * queues left out.  The window's queues (`wq` rows: lane, router, vc,
 * cumulative end in `wf`, `nq_w` columns) register their keys in the
 * stores, in window order.  `fresh` is n_keys zeros of scratch; `marks`
 * returns, per lane, the keys registered before and the entries staged,
 * then the entry total.  Returns the number of staged queues.
 */
int64_t repro_stage(
    int64_t lanes, int64_t n_keys, int64_t n_vcs, const int64_t *stores,
    int64_t nq_w, const int64_t *wq, const int64_t *wf, int64_t wf_cap,
    int64_t *q, int64_t q_cap, int64_t *e, int64_t e_cap,
    int64_t *fresh, int64_t *marks)
{
    const int64_t *w_lane = wq, *w_router = wq + nq_w;
    const int64_t *w_vc = wq + 2 * nq_w, *w_end = wq + 3 * nq_w;
    int64_t nq = 0, ne = 0, j = 0;
    for (int64_t l = 0; l < lanes; l++) {
        STORE(l);
        const int64_t first = ne;
        int64_t n = mark[0];
        marks[l] = n;
        for (; j < nq_w && w_lane[j] == l; j++) {
            const int64_t key = w_router[j] * n_vcs + w_vc[j];
            int64_t s = slot_of[key];
            if (s < 0) {
                s = slot_of[key] = n++;
                router[s] = w_router[j];
                vc[s] = w_vc[j];
                lo[s] = hi[s] = 0;
                stall[s] = -1;
            }
            fresh[s] = j + 1;
        }
        mark[0] = n;
        for (int64_t s = 0; s < n; s++) {
            const int64_t live = hi[s] - lo[s], f = fresh[s];
            if (!live && !f)
                continue;
            fresh[s] = 0;
            q[nq] = l;
            q[q_cap + nq] = router[s];
            q[2 * q_cap + nq] = vc[s];
            q[4 * q_cap + nq] = ne;
            q[5 * q_cap + nq] = stall[s] < 0 ? 0 : stall[s];
            q[6 * q_cap + nq] = 0;
            q[7 * q_cap + nq] = s;
            for (int64_t r = 0; r < 3; r++)
                memcpy(e + r * e_cap + ne, rows + r * cap + lo[s],
                       (size_t)live * sizeof(int64_t));
            ne += live;
            if (f) {
                const int64_t a = f > 1 ? w_end[f - 2] : 0, b = w_end[f - 1];
                for (int64_t r = 0; r < 3; r++)
                    memcpy(e + r * e_cap + ne, wf + r * wf_cap + a,
                           (size_t)(b - a) * sizeof(int64_t));
                ne += b - a;
            }
            q[3 * q_cap + nq] = ne;
            nq++;
        }
        marks[lanes + l] = ne - first;
    }
    marks[2 * lanes] = ne;
    return nq;
}

/* After the chunk: each staged queue's unconsumed tail e[head, end)
 * becomes its store's backlog (packed from the arena's start: every
 * live entry was staged), and a queue the pump touched takes its stall
 * counter back — what TrafficDriver.pump would have left.  The caller
 * guarantees every arena holds its lane's staged entries. */
void repro_carry(
    int64_t lanes, int64_t n_keys, const int64_t *stores,
    int64_t nqs, const int64_t *q, int64_t q_cap,
    const int64_t *e, int64_t e_cap)
{
    for (int64_t l = 0; l < lanes; l++) {
        STORE(l);
        mark[1] = 0;
    }
    for (int64_t i = 0; i < nqs; i++) {
        STORE(q[i]);
        const int64_t s = q[7 * q_cap + i], head = q[4 * q_cap + i];
        const int64_t left = q[3 * q_cap + i] - head, top = mark[1];
        for (int64_t r = 0; r < 3; r++)
            memcpy(rows + r * cap + top, e + r * e_cap + head,
                   (size_t)left * sizeof(int64_t));
        lo[s] = top;
        hi[s] = mark[1] = top + left;
        if (q[6 * q_cap + i])
            stall[s] = q[5 * q_cap + i];
    }
}

/* Phase five: the packets one window of events completes — the per-flit
 * loop of a sink (repro.noc.packet.Reassembler) with the latency
 * tracker's queues beside it (DESIGN section 15 has the contract).
 * Events come as blocks (`blocks` rows, `b_stride` apart: address,
 * columns a row, events) of rows cycle, router, vc, flit word, each read
 * in place in the log it is a column slice of: `n_inj` blocks of
 * injections, then the ejections so far of the packets still open and
 * the window's.
 *
 *   submits [3, m]  src * 256 + seq, submit VC, submit cycle, in submit
 *                   order: a finished packet pops the oldest of its key;
 *   heads   [2, k]  router * 256 + vc, cycle of the HEAD injections no
 *                   packet claimed yet (rows `h_stride` apart); the
 *                   window's queue up behind them first.  A packet takes
 *                   the front one of (src, submit VC) unless that is
 *                   newer than its own HEAD ejection: it is a later
 *                   packet's and stays queued.
 *
 * Returns the number of samples, rows S_GT .. S_TAIL_EJECT of `samples`
 * (rows `s_stride` apart) in the order the TAILs left.  What the queues
 * keep is left, in order, in `submits_left` (m columns) and `heads_left`
 * (`k_cap`), the open packets' events, in event order, in `still_open` —
 * as many as its `o_cap` columns hold; `counts` says how many of each
 * there are.  A stream no sink accepts ends the pass at its first
 * offending event: a negative code (a finished packet's checks in the
 * sink's order) and the event's particulars in `counts`.  DECLINED: a
 * router, VC or key outside the tables below.
 *
 * `scratch` is the calling tracker's alone (no GIL is held): n_routers
 * * 256 submit-list fronts, all -1 on entry and on return, n_queues
 * head-list fronts, n_queues reassembly registers; `links` (m + k_cap)
 * the lists' next pointers.
 */
enum { HEAD_WHILE_OPEN = -1, NO_HEAD = -2, TOO_SHORT = -3, OFF_SRC = -4,
       OFF_DEST = -5, NO_SUBMIT = -6, DECLINED = -7, TAKEN = -2 };
enum { Q_HEAD_AT, Q_FLITS, Q_HEADER, Q_SOURCE, Q_HEAD_CYCLE, Q_REGS };

/* Pack the entries nobody took to the front of `queue` (`rows` rows of
 * `cap` columns, `n` in use); returns how many. */
static int64_t left_over(int64_t *queue, int64_t rows, int64_t cap,
                         int64_t n, const int64_t *next)
{
    int64_t left = 0;
    for (int64_t j = 0; j < n; j++) {
        if (next[j] == TAKEN)
            continue;
        for (int64_t r = 0; r < rows; r++)
            queue[r * cap + left] = queue[r * cap + j];
        left++;
    }
    return left;
}

static int64_t match_lane(
    int64_t width, int64_t height, int64_t n_vcs, int64_t dw,
    const int64_t *hops, const int64_t *submits, int64_t m,
    const int64_t *heads, int64_t h_stride, int64_t k, int64_t k_cap,
    const int64_t *blocks, int64_t b_stride, int64_t n_inj, int64_t n_blocks,
    int64_t *scratch, int64_t *links, int64_t *samples, int64_t s_stride,
    int64_t *submits_left, int64_t m_stride, int64_t *heads_left,
    int64_t k_stride, int64_t *still_open, int64_t o_stride, int64_t o_cap,
    int64_t *counts)
{
    const int64_t n_routers = width * height, n_queues = n_routers * n_vcs;
    const int64_t n_keys = n_routers * 256, mask = ((int64_t)1 << dw) - 1;
    int64_t *const submit_front = scratch, *const head_front = scratch + n_keys;
    int64_t *const regs = head_front + n_queues;
    int64_t *const submit_next = links, *const head_next = links + m;
    int64_t n = 0, indexed = m, n_heads = k, base = 0, left = 0, oldest;
#define EVENTS(b)                                                           \\
    const int64_t stride = blocks[b_stride + (b)];                          \\
    const int64_t count = blocks[2 * b_stride + (b)];                       \\
    const int64_t *const e_cycle = (const int64_t *)(intptr_t)blocks[b];    \\
    const int64_t *const e_router = e_cycle + stride;                       \\
    const int64_t *const e_vc = e_router + stride, *const e_word = e_vc + stride
#define FAIL(code, a, b)                                                    \\
    do { counts[0] = (a); counts[1] = (b); n = (code); goto done; } while (0)
#define OUTSIDE(router, vc)                                                 \\
    ((router) < 0 || (router) >= n_routers || (vc) < 0 || (vc) >= n_vcs)

    int64_t *const head_key = heads_left, *const head_cycle = heads_left + k_stride;
    /* the queues, as lists by key: built back to front, so that every
     * list runs oldest first */
    for (int64_t q = 0; q < n_queues; q++)
        head_front[q] = regs[q * Q_REGS + Q_HEAD_AT] = -1;
    for (int64_t r = 0; r < 3; r++)
        memcpy(submits_left + r * m_stride, submits + r * m, (size_t)m * sizeof(int64_t));
    for (int64_t j = m - 1; j >= 0; j--) {
        const int64_t key = submits[j];
        if (key < 0 || key >= n_keys || OUTSIDE(0, submits[m + j])) {
            indexed = j + 1;
            FAIL(DECLINED, 0, 0);
        }
        submit_next[j] = submit_front[key];
        submit_front[key] = j;
    }
    indexed = 0;
    memcpy(head_key, heads, (size_t)k * sizeof(int64_t));
    memcpy(head_cycle, heads + h_stride, (size_t)k * sizeof(int64_t));
    for (int64_t b = 0; b < n_inj; b++) {
        EVENTS(b);
        for (int64_t i = 0; i < count; i++) {
            if (((e_word[i] >> dw) & 3) != 1)
                continue;
            if (n_heads == k_cap) /* more HEADs than packets to inject */
                FAIL(DECLINED, 0, 0);
            head_key[n_heads] = e_router[i] * 256 + e_vc[i];
            head_cycle[n_heads++] = e_cycle[i];
        }
    }
    for (int64_t j = n_heads - 1; j >= 0; j--) {
        const int64_t key = head_key[j];
        if (OUTSIDE(key >> 8, key & 0xFF))
            FAIL(DECLINED, 0, 0);
        int64_t *const front = head_front + (key >> 8) * n_vcs + (key & 0xFF);
        head_next[j] = *front;
        *front = j;
    }

    for (int64_t b = n_inj; b < n_blocks; b++) {
        EVENTS(b);
        for (int64_t i = 0; i < count; i++) {
            const int64_t word = e_word[i], ftype = (word >> dw) & 3;
            if (!ftype) /* IDLE words carry nothing */
                continue;
            const int64_t router = e_router[i], vc = e_vc[i];
            if (OUTSIDE(router, vc))
                FAIL(DECLINED, 0, 0);
            int64_t *const reg = regs + (router * n_vcs + vc) * Q_REGS;
            if (ftype == 1) {
                if (reg[Q_HEAD_AT] >= 0)
                    FAIL(HEAD_WHILE_OPEN, vc, 0);
                reg[Q_HEAD_AT] = base + i;
                reg[Q_FLITS] = 1;
                reg[Q_HEADER] = word & mask;
                reg[Q_HEAD_CYCLE] = e_cycle[i];
                continue;
            }
            if (reg[Q_HEAD_AT] < 0)
                FAIL(NO_HEAD, vc, ftype);
            if (++reg[Q_FLITS] == 2)
                reg[Q_SOURCE] = word & mask;
            if (ftype != 3)
                continue;
            /* TAIL: the packet is whole.  Both addressing words hold x
             * and y in their low nibbles (noc.flit), the GT bit and the
             * sequence number above. */
            reg[Q_HEAD_AT] = -1;
            if (reg[Q_FLITS] < 3)
                FAIL(TOO_SHORT, 0, 0);
            const int64_t source = reg[Q_SOURCE], header = reg[Q_HEADER];
            const int64_t src_x = source & 0xF, src_y = (source >> 4) & 0xF;
            const int64_t dest_x = header & 0xF, dest_y = (header >> 4) & 0xF;
            if (src_x >= width || src_y >= height)
                FAIL(OFF_SRC, src_x, src_y);
            if (dest_x >= width || dest_y >= height)
                FAIL(OFF_DEST, dest_x, dest_y);
            const int64_t src = src_y * width + src_x, seq = (source >> 8) & 0xFF;
            const int64_t submit = submit_front[src * 256 + seq];
            if (submit < 0)
                FAIL(NO_SUBMIT, src, seq);
            submit_front[src * 256 + seq] = submit_next[submit];
            submit_next[submit] = TAKEN;
            int64_t *const front = head_front + src * n_vcs + submits[m + submit];
            const int64_t head = *front;
            int64_t head_inject = -1;
            if (head >= 0 && head_cycle[head] <= reg[Q_HEAD_CYCLE]) {
                head_inject = head_cycle[head];
                *front = head_next[head];
                head_next[head] = TAKEN;
            }
            const int64_t sample[8] = {
                (header >> 8) & 1, src, router, hops[src * n_routers + router],
                submits[2 * m + submit], head_inject, reg[Q_HEAD_CYCLE], e_cycle[i] };
            for (int64_t r = 0; r < 8; r++)
                samples[r * s_stride + n] = sample[r];
            n++;
        }
        base += count;
    }

    counts[0] = left_over(submits_left, 3, m_stride, m, submit_next);
    counts[1] = left_over(heads_left, 2, k_stride, n_heads, head_next);
    /* the open packets' events: a queue's, from its open HEAD on */
    oldest = base;
    for (int64_t q = 0; q < n_queues; q++) {
        const int64_t at = regs[q * Q_REGS + Q_HEAD_AT];
        if (at >= 0 && at < oldest)
            oldest = at;
    }
    base = 0;
    for (int64_t b = n_inj; b < n_blocks; b++) {
        EVENTS(b);
        for (int64_t i = oldest > base ? oldest - base : 0; i < count; i++) {
            if (!((e_word[i] >> dw) & 3))
                continue;
            const int64_t at = regs[(e_router[i] * n_vcs + e_vc[i]) * Q_REGS + Q_HEAD_AT];
            if (at < 0 || at > base + i)
                continue;
            for (int64_t r = 0; r < 4 && left < o_cap; r++)
                still_open[r * o_stride + left] = e_cycle[r * stride + i];
            left++;
        }
        base += count;
    }
    counts[2] = left;
done:
#undef EVENTS
#undef FAIL
#undef OUTSIDE
    for (int64_t j = indexed; j < m; j++)
        submit_front[submits[j]] = -1;
    return n;
}

/* Rows of repro_match's per-lane words: where the lane's blocks start in
 * the table and how many it has of each — submits, injections,
 * ejections (the open packets' events first) — its unclaimed HEAD
 * injections (address, row stride, count) and their room, then where its
 * outputs start in the shared ones and the room for open events. */
enum { L_FIRST, L_SUBMITS, L_INJ, L_EJ, L_HEADS, L_H_STRIDE, L_K, L_K_CAP,
       L_S_AT, L_M_AT, L_K_AT, L_O_AT, L_O_CAP, L_WORDS };

/* match_lane for each of `lanes` trackers, in one call: lane l's words
 * are `lane` + l * L_WORDS, its blocks columns of the [3, n_table]
 * `blocks` table, its outputs columns of the shared output rows.  Its
 * submit blocks are joined first, in `work` (4 m + k_cap words at
 * least).  counts[4 l .. 4 l + 2] are the lane's counts, counts[4 l + 3]
 * what match_lane returned. */
int64_t repro_match(
    int64_t lanes, int64_t width, int64_t height, int64_t n_vcs, int64_t dw,
    const int64_t *hops, const int64_t *lane, const int64_t *blocks,
    int64_t n_table, int64_t *scratch, int64_t *work,
    int64_t *samples, int64_t s_stride, int64_t *submits_left, int64_t m_stride,
    int64_t *heads_left, int64_t k_stride, int64_t *still_open, int64_t o_stride,
    int64_t *counts)
{
    for (int64_t l = 0; l < lanes; l++) {
        const int64_t *w = lane + l * L_WORDS;
        const int64_t first = w[L_FIRST], inj = first + w[L_SUBMITS];
        int64_t m = 0;
        for (int64_t b = first; b < inj; b++)
            m += blocks[2 * n_table + b];
        for (int64_t b = first, at = 0; b < inj; b++) {
            const int64_t *from = (const int64_t *)(intptr_t)blocks[b];
            const int64_t stride = blocks[n_table + b], count = blocks[2 * n_table + b];
            for (int64_t r = 0; r < 3; r++)
                memcpy(work + r * m + at, from + r * stride, (size_t)count * sizeof(int64_t));
            at += count;
        }
        int64_t *const c = counts + 4 * l;
        c[3] = match_lane(
            width, height, n_vcs, dw, hops, work, m,
            (const int64_t *)(intptr_t)w[L_HEADS], w[L_H_STRIDE], w[L_K], w[L_K_CAP],
            blocks + inj, n_table, w[L_INJ], w[L_INJ] + w[L_EJ],
            scratch, work + 3 * m, samples + w[L_S_AT], s_stride,
            submits_left + w[L_M_AT], m_stride, heads_left + w[L_K_AT], k_stride,
            still_open + w[L_O_AT], o_stride, w[L_O_CAP], c);
    }
    return lanes;
}
"""


def stimuli_kernel():
    """``(lib, ffi)`` of the dlopened stimuli kernel; raises
    :class:`~repro.kernels.KernelUnavailableError` without a C tier."""
    from repro.kernels import cbackend

    return cbackend.load_source(_SOURCE, _CDEF)


@functools.lru_cache(maxsize=None)
def lfsr_tables() -> Tuple[np.ndarray, np.ndarray]:
    """The scan's look-ahead tables ``(jumps, tops)`` for
    :data:`~repro.traffic.rng.GALOIS_MASK`, ``J`` one register read.

    ``jumps`` (``[3, 4, 256]`` ``uint32``) holds the byte images of
    ``J^1``, ``J^8`` and ``J^16``; ``tops`` (``[4, 256, 2]`` ``uint64``)
    the top bytes of the images under ``J^1 .. J^16``, word ``k`` in
    byte ``(k - 1) % 8`` of ``tops[..., (k - 1) // 8]``.  The kernel
    fills them (``repro_lfsr_tables``, tens of microseconds) once per
    process; the arrays are shared and read-only.
    """
    lib, ffi = stimuli_kernel()
    jumps = np.empty((3, 4, 256), dtype=np.uint32)
    tops = np.empty((4, 256, 2), dtype=np.uint64)
    lib.repro_lfsr_tables(
        GALOIS_MASK,
        ffi.cast("uint32_t *", jumps.ctypes.data),
        ffi.cast("uint64_t *", tops.ctypes.data),
    )
    for table in (jumps, tops):
        table.setflags(write=False)
    return jumps, tops


def bind_stimuli_kernel():
    """``(kernel, None)`` where the host can build the generated-C tier
    (:func:`~repro.kernels.cbackend.availability`), else ``(None,
    reason)``."""
    from repro.kernels import KernelUnavailableError

    try:
        return stimuli_kernel(), None
    except KernelUnavailableError as exc:
        return None, f"no generated-C tier ({exc})"


def pointer(ffi, array):
    return ffi.cast("int64_t *", array.ctypes.data)


#: ``repro_match``'s return for a stream outside the fabric's tables.
MATCH_DECLINED = -7


def _columns(block):
    """``block`` as ``repro_match`` reads it in place: int64 columns one
    word apart (rows any distance apart); a copy only where it is not."""
    if block.dtype == np.int64 and block.strides[1] == 8:
        return block
    return np.ascontiguousarray(block, dtype=np.int64)


class PacketMatch:
    """``repro_match`` for latency trackers: the fabric's constants and
    the call's scratch.  The call runs without the GIL, so the scratch is
    this object's alone — one per tracker, never shared between threads."""

    def __init__(self, kernel, net, hops) -> None:
        self._lib, self._ffi = kernel
        n_routers, n_vcs = net.n_routers, net.router.n_vcs
        #: submit-list fronts (all -1 between calls), head-list fronts,
        #: reassembly registers (five words a sink queue)
        self._scratch = np.full(n_routers * (256 + 6 * n_vcs), -1, dtype=np.int64)
        self._hops = hops  # a pointer keeps nothing alive
        self._fabric = (
            net.width, net.height, n_vcs, net.router.data_width, pointer(self._ffi, hops)
        )

    def __call__(self, submits, head_injects, still_open, injections, ejections, refuse):
        """One window, its two logs as lists of event blocks: ``(samples,
        submits, head_injects, open events)``.  Has ``refuse(code,
        *particulars)`` raise for a stream no sink accepts; ``None`` for
        one outside the fabric's tables."""
        (found,) = self.lanes([([submits], head_injects, still_open, injections, ejections)])
        if type(found) is tuple:
            refuse(*found)
        return found

    def lanes(self, windows) -> list:
        """One pass over several trackers' windows, each ``(submit blocks,
        head injections, open events, injection blocks, ejection
        blocks)``.  Per window: its ``[samples, submits, head
        injections, open events]`` (the samples a column slice of an
        array the windows share), ``None`` for a stream outside the
        fabric's tables, or
        ``(code, *particulars)`` for one a sink refuses.  Every block is
        read in place."""
        lanes = []
        for submits, heads, still_open, injections, ejections in windows:
            submits = list(map(_columns, submits))
            events = list(map(_columns, (*injections, still_open, *ejections)))
            sizes = [block.shape[1] for block in events]
            first, m = len(injections), sum(block.shape[1] for block in submits)
            ejected = sum(sizes[first:])
            # a HEAD is injected for a submit, a sample pops one and ends
            # three flits; the open packets' events seldom outnumber a
            # part of the log
            caps = [
                min(ejected // 3, m) + 1,
                m,
                heads.shape[1] + min(sum(sizes[:first]), m),
                min(ejected, max(sizes[first:]) + sizes[first]),
            ]
            lanes.append((submits, events, _columns(heads), first, caps))
        blocks = [block for submits, events, *_ in lanes for block in (*submits, *events)]
        table = np.array(
            [
                [block.ctypes.data for block in blocks],
                [block.strides[0] // 8 for block in blocks],
                [block.shape[1] for block in blocks],
            ],
            dtype=np.int64,
        )
        at = lambda array: pointer(self._ffi, array)  # noqa: E731
        while True:
            words, ends, base = [], [0, 0, 0, 0], 0
            for submits, events, heads, first, caps in lanes:
                words.append(
                    [base, len(submits), first, len(events) - first, heads.ctypes.data,
                     heads.strides[0] // 8, heads.shape[1], caps[2], *ends, caps[3]]
                )
                base += len(submits) + len(events)
                ends = [end + cap for end, cap in zip(ends, caps)]
            out = [np.empty((rows, end), dtype=np.int64) for rows, end in zip((8, 3, 2, 4), ends)]
            word_table = np.array(words, dtype=np.int64)
            counts = np.empty((len(lanes), 4), dtype=np.int64)
            work = np.empty(max(4 * caps[1] + caps[2] for *_, caps in lanes), dtype=np.int64)
            self._lib.repro_match(
                len(lanes), *self._fabric, at(word_table), at(table), table.shape[1],
                at(self._scratch), at(work),
                *[arg for block in out for arg in (at(block), block.shape[1])],
                at(counts),
            )
            found, short = [], False
            for (*_, caps), word, (left_m, left_k, left_o, n) in zip(lanes, words, counts.tolist()):
                if n == MATCH_DECLINED:
                    found.append(None)
                elif n < 0:
                    found.append((n, left_m, left_k))
                elif left_o > caps[3]:
                    caps[3], short = left_o, True
                else:  # the queues' leftovers are copied: they outlive the call
                    samples, *left = (
                        block[:, lo : lo + used]
                        for block, lo, used in zip(out, word[8:12], (n, left_m, left_k, left_o))
                    )
                    found.append([samples, *(block.copy() for block in left)])
            if not short:
                return found


#: the queue table and flit columns of a window without packets.
_NO_QUEUES = np.empty((4, 0), dtype=np.int64)
_NO_FLITS = np.empty((3, 0), dtype=np.int64)


class BatchedBeGenerator(WindowSource):
    """Every lane's BE (and GT) streams through one C scan per window."""

    def __init__(self, drivers: Sequence, kernel) -> None:
        super().__init__(drivers)
        self._lib, self._ffi = kernel
        net = self._net = self.drivers[0].net
        self.n_src = net.n_routers
        self.bound = net.n_routers - 1
        self.span = (2**32 // self.bound) * self.bound
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
        #: ``(lane, gt)`` of every lane with GT streams.
        self._gts = [
            (lane, driver.gt)
            for lane, driver in enumerate(self.drivers)
            if driver.gt is not None and driver.gt.streams
        ]
        self._thresholds = np.full(lanes, -1, dtype=np.int64)
        self._be_nbytes = np.zeros(lanes, dtype=np.int64)
        for lane, be in enumerate(self._bes):
            if be is not None:
                self._be_nbytes[lane] = be.payload_bytes
        for lane, be in self._live:
            self._thresholds[lane] = int(be.packet_probability * 2**32)
        # GT tables: per lane (count, period, payload bytes), per stream
        # (phase, src, dest, vc)
        n_gt = max([len(gt.streams) for _, gt in self._gts] + [1])
        self._gt_lane = np.zeros((3, lanes), dtype=np.int64)
        self._gt_stream = np.zeros((4, lanes, n_gt), dtype=np.int64)
        for lane, gt in self._gts:
            count = len(gt.streams)
            self._gt_lane[:, lane] = count, gt.period, gt.payload_bytes
            self._gt_stream[0, lane, :count] = gt._phase
            for row, field in enumerate(("src", "dest", "vc"), 1):
                self._gt_stream[row, lane, :count] = [
                    getattr(stream, field) for stream in gt.streams
                ]
        # generator state, loaded from the drivers before every scan
        self._states = np.zeros(lanes, dtype=np.int64)
        self._tally = np.zeros(lanes + 1, dtype=np.int64)
        self._be_seq = np.zeros((lanes, self.n_src), dtype=np.int64)
        self._toggles = np.zeros((lanes, self.n_src), dtype=np.int64)
        self._gt_seq = np.zeros((lanes, n_gt), dtype=np.int64)
        self._no_be = [0] * self.n_src
        #: per lane: cumulative packet ends and flit counts of a scan.
        self._ends = np.zeros((2, lanes), dtype=np.int64)
        #: the load step's key -> queue scratch (all -1 between calls).
        self._n_keys = self.drivers[0].queues._table.shape[1]
        self._key_queue = np.full(lanes * self._n_keys, -1, dtype=np.int64)
        self._be_vcs = np.array(net.router.be_vcs, dtype=np.int64)
        #: scan scratch: GT firings, per-lane scan cursors
        self._work = np.zeros(lanes * (n_gt + 5), dtype=np.int64)
        #: scan scratch: ``cap`` packet columns in scan order, then ``cap``
        #: grouped by lane.  A window is one flit short of its budget at
        #: the last cycle it enters and a packet is three flits or more.
        cap = self.budget // 3 + lanes * (self.n_src + n_gt)
        self._packets = np.zeros((9, 2 * cap), dtype=np.int64)
        ffi = self._ffi
        at = lambda array: pointer(ffi, array)  # noqa: E731
        jumps, tops = lfsr_tables()
        #: repro_gen_be's arguments after `probe`
        self._scan_args = (
            at(self._thresholds), self.bound, self.span,
            ffi.cast("uint32_t *", jumps.ctypes.data),
            ffi.cast("uint64_t *", tops.ctypes.data),
            at(self._states), at(self._tally),
            net.router.data_width // 8, at(self._be_nbytes), at(self._be_seq),
            at(self._toggles), at(self._be_vcs), len(self._be_vcs),
            n_gt, at(self._gt_lane), at(self._gt_stream), at(self._gt_seq),
            at(self._work), at(self._packets), cap, self.budget, at(self._ends),
        )
        self._p_key_queue = at(self._key_queue)

    def _call(self, upto: int, start: int, stop: int, probe: int) -> int:
        """One C scan from ``start``, to ``stop`` at most, over the live
        LFSRs of lanes ``[0, upto)``; the generators' ``state`` /
        ``words_read`` are carried in and out.  Returns the cycle the
        scan stopped at."""
        live = self._live
        if upto < len(self.drivers):
            live = [(lane, be) for lane, be in live if lane < upto]
        for lane, be in live:
            self._states[lane] = be.rng.state
        self._tally[:] = 0
        stopped = self._lib.repro_gen_be(
            len(self.drivers), upto, self.n_src, start, stop, probe,
            *self._scan_args,
        )
        tally = self._tally.tolist()
        new_states = self._states.tolist()
        for lane, be in live:
            be.rng.state = new_states[lane]
            be.rng.words_read += tally[lane]
        self.probe_words += tally[-1]
        return stopped

    def _state_in(self) -> Tuple:
        """Load the counters a scan advances from the drivers; returns
        them, and each live LFSR's state, as a rewind snapshot."""
        self._be_seq[:] = [
            self._no_be if be is None else be._seq for be in self._bes
        ]
        self._toggles[:] = [driver._be_vc_toggle for driver in self.drivers]
        for lane, gt in self._gts:
            self._gt_seq[lane, : len(gt._seq)] = gt._seq
        return (
            [(be.rng.state, be.rng.words_read) for _, be in self._live],
            self._be_seq.copy(),
            self._toggles.copy(),
            self._gt_seq.copy(),
        )

    def _state_out(self, be_seq, toggles, gt_seq) -> None:
        for be, driver, seq, toggle in zip(
            self._bes, self.drivers, be_seq.tolist(), toggles.tolist()
        ):
            if be is not None:
                be._seq[:] = seq
            driver._be_vc_toggle[:] = toggle
        for lane, gt in self._gts:
            gt._seq[:] = gt_seq[lane, : len(gt._seq)].tolist()

    def _generate(self, upto: int, start: int, limit: int) -> Tuple[Tuple, int]:
        """Scan lanes ``[0, upto)`` from ``start`` in generate mode: the
        packets land in the scratch columns.  Returns the state the scan
        started from and the cycle it stopped at."""
        snapshot = self._state_in()
        stop = self._call(upto, start, limit, 0)
        if self._ends[0, -1]:
            self._state_out(self._be_seq, self._toggles, self._gt_seq)
        return snapshot, stop

    def scan(self, start: int, limit: int) -> Stimuli:
        snapshot, stop = self._generate(len(self.drivers), start, limit)
        cap = self._packets.shape[1] // 2
        lane_ends, lane_flits = self._ends.tolist()
        stimuli = Stimuli(
            start, stop, self._packets[:, cap : cap + lane_ends[-1]].copy(),
            lane_ends, snapshot=snapshot, source=self,
        )
        stimuli.lane_flits = lane_flits  # the scan counted them already
        return stimuli

    def generate_window(self, start: int, limit: int) -> Stimuli:
        """The window from ``start`` (:meth:`scan`: to ``limit`` at most)
        as the chunk kernel stages it: one C scan, one C load."""
        return self.load_flits(self.scan(start, limit))

    def load_flits(self, stimuli: Stimuli) -> Stimuli:
        """The load step of a scanned window (``Stimuli.load``): its flit
        words, grouped by stimuli queue."""
        packets = stimuli.packets
        m, n = packets.shape[1], sum(stimuli.lane_flits)
        if not m:
            stimuli.queues, stimuli.flits = _NO_QUEUES, _NO_FLITS
            return stimuli
        net, ffi = self._net, self._ffi
        q_cap = min(m, len(self._key_queue))
        queues = np.empty((4, q_cap), dtype=np.int64)
        flits = np.empty((3, n), dtype=np.int64)
        work = np.empty(m + q_cap, dtype=np.int64)
        n_queues = self._lib.repro_load_flits(
            m, pointer(ffi, packets),
            self._n_keys, net.router.n_vcs, net.width, net.router.data_width,
            pointer(ffi, queues), q_cap, pointer(ffi, flits), n,
            self._p_key_queue, pointer(ffi, work),
        )
        stimuli.queues = np.ascontiguousarray(queues[:, :n_queues])
        stimuli.flits = flits
        return stimuli

    def rewind(self, stimuli: Stimuli, cycle: int, lane: int) -> None:
        rngs, be_seq, toggles, gt_seq = stimuli.snapshot
        for (_, be), (state, words_read) in zip(self._live, rngs):
            be.rng.state, be.rng.words_read = state, words_read
        self._state_out(be_seq, toggles, gt_seq)
        self._generate(len(self.drivers), stimuli.start, cycle)
        self._generate(lane + 1, cycle, cycle + 1)

    def skip_idle(self, cycle: int, limit: int) -> int:
        """Advance every lane over the longest window of at most
        ``limit`` cycles from ``cycle`` in which no lane generates a
        packet; returns its length.  The window ends before the next GT
        firing (closed-form); within it the same C scan in probe mode
        stops before the first BE hit in any lane, having drawn exactly
        the ``n_src`` words per live lane per cycle that stepping the
        window would have drawn."""
        for _, gt in self._gts:
            limit = min(limit, gt.cycles_to_next_packet(cycle))
        if limit <= 0:
            return 0
        return self._call(len(self.drivers), 0, limit, 1)


def batched_be_generator(
    drivers: Sequence,
) -> Tuple[Optional[BatchedBeGenerator], Optional[str]]:
    """``(generator, None)`` for ``drivers``, or ``(None, reason)`` when
    the C scan does not apply.

    Eligibility is strict so the C scan is exactly the Python scan:
    every driver a plain :class:`~repro.traffic.stimuli.TrafficDriver`
    whose GT source (if any) is exactly a :class:`GtStreamTraffic` and
    whose BE source (if any) is a :class:`BernoulliBeTraffic` over the
    declared-bound uniform-random pattern, at least one lane with a
    positive packet probability — loads may differ per lane — a data
    path that holds the 16-bit header and source-info fields, and a
    loadable C tier.
    """
    from repro.traffic.generators import BernoulliBeTraffic, GtStreamTraffic
    from repro.traffic.stimuli import TrafficDriver

    drivers = list(drivers)
    live = False
    for lane, driver in enumerate(drivers):
        if type(driver) is not TrafficDriver:
            return None, f"lane {lane}: driver is a TrafficDriver subclass"
        gt, be = driver.gt, driver.be
        if gt is not None and (type(gt) is not GtStreamTraffic or gt.payload_bytes < 1):
            return None, f"lane {lane}: GT source is not a plain GtStreamTraffic"
        if be is None:
            continue
        if not isinstance(be, BernoulliBeTraffic) or be.payload_bytes < 1:
            return None, f"lane {lane}: BE source is not a BernoulliBeTraffic"
        if getattr(be.pattern, "uniform_bound", None) != driver.net.n_routers - 1:
            return None, f"lane {lane}: non-uniform destination pattern"
        live = live or be.packet_probability > 0
    if not live:
        return None, "no lane carries a live BE stream"
    if not 16 <= drivers[0].net.router.data_width <= 56:
        return None, "flit layout outside the C encoder's 16..56-bit data path"
    kernel, reason = bind_stimuli_kernel()
    if kernel is None:
        return None, reason
    return BatchedBeGenerator(drivers, kernel), None
