"""The generated-C simulation body: three level sweeps on the lane axis.

:class:`CompiledBatchLevel` generates one fused C body per **router
configuration** (the compile-time constants of
:class:`~repro.kernels.cbackend.KernelSpec`); the fabric — router count,
neighbour tables and the three router orders of a
:class:`~repro.kernels.levelize.LevelSchedule` (room → forward → state)
— is a runtime argument, so one compiled kernel serves every fabric
built from the same router.  Each system cycle walks the levelized
combinational graph exactly once per lane — level 0 (rooms), level 1
(forwards), then the registered commit — the Manticore/CCSS structure:
fast statically ordered combinational evaluation, cheap
bulk-synchronous sequential commit.

It is the only generated simulation body, behind both compiled tiers of
:class:`~repro.engines.batch.BatchEngine`: ``kernel="levelized"`` binds
it with the orders the levelizer proved, ``kernel="jit"``/``"auto"``
(:class:`~repro.kernels.batchstep.CompiledBatchStep`) with natural
router order, which is a valid level order of the same graph and needs
no schedule.

Two execution shapes share the one generated function:

* :meth:`CompiledBatchLevel.step` / :meth:`~CompiledBatchLevel.step_range`
  — a single cycle over all lanes (or a contiguous lane range, the
  per-lane fault-fallback hook);
* :meth:`CompiledBatchLevel.run_chunk` — **many cycles per C call**: the
  per-(router, VC) stimuli queues of every lane's
  :class:`~repro.traffic.stimuli.TrafficDriver` — already flit columns,
  :class:`~repro.traffic.stimuli.StimuliQueues` — and the chunk's
  freshly generated :class:`~repro.traffic.stimuli.Stimuli` window are
  merged into flat staged arrays (flit words + generation timestamps)
  by one C pass, and the kernel runs the driver's pump loop itself,
  gated on each entry's timestamp, so the whole generate-ahead chunk
  advances without touching Python between cycles; a second C pass
  writes each queue's unconsumed tail back as the driver's backlog.
  Lanes with nothing buffered, nothing pending in the
  injection registers and no latched ejection flag are provably
  unchanged by a step and are skipped; a fully idle fabric jumps
  straight to the next staged arrival (the wrapper still credits the
  skipped cycles' delta accounting, so metrics and the cycle counter
  are identical to stepping through them).

Bit-identity contract: per lane, every snapshot, injection/ejection
record (cycle stamps included), stall counter and overload diagnosis
equals the reference NumPy path driven cycle by cycle — the batch
lockstep tests compare all of it.  Errors re-raise the exact exceptions
of the reference path; a mid-chunk error first applies the completed
cycles' state and events, leaving the engine exactly where the
per-cycle reference stops.

Compilation rides :func:`repro.kernels.cbackend.load_source`:
availability-gated, sha256 disk cache keyed on the generated source.
"""

from __future__ import annotations

import string
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels import KernelUnavailableError
from repro.noc.config import Port
from repro.noc.router import ProtocolError

__all__ = ["CompiledBatchLevel", "generate_level_source", "level_orders"]

_SIGNATURE = """
int64_t repro_level_chunk(
    int64_t B, int64_t R, int64_t n_cycles, int64_t base_cycle,
    int64_t stall_limit, int64_t NQS,
    const int64_t *depth,
    const int64_t *nb_idx, const int64_t *nb_ok, const int64_t *opp,
    const int64_t *room_level, const int64_t *fwd_level,
    const int64_t *state_level,
    const int64_t *route, const int64_t *be_cand,
    int64_t *mem, int64_t *rd, int64_t *wr, int64_t *count,
    int64_t *alloc, int64_t *queue_alloc, int64_t *arb_ptr,
    int64_t *alloc_ptr,
    int64_t *inj_word, int64_t *inj_valid, int64_t *rr_ptr, int64_t *delay,
    int64_t *eject_word, int64_t *eject_valid, int64_t *stalled,
    int64_t *q, int64_t q_cap, const int64_t *e, int64_t e_cap,
    int64_t *buffered, int64_t *injc, int64_t *ejany, int64_t *act,
    int64_t *neq, int64_t *qam, int64_t *rooms, int64_t *fwd_out,
    int64_t *choice, int64_t *ej_in,
    int64_t *gq, int64_t *gvc, int64_t *fwd_in,
    int64_t *dec_q, int64_t *dec_ovc, int64_t *dec_n, int64_t *last_alloc,
    int64_t *ev_sent, int64_t sent_cap, int64_t *ev_ej, int64_t ej_cap,
    int64_t *counts, int64_t *err)
"""

_TEMPLATE = string.Template(
    """
/* Generated by repro.kernels.batchlevel -- do not edit.
 * Specialized levelized batch-chunk kernel: ${spec}
 */
#include <stdint.h>

#define P ${P}
#define V ${V}
#define NQ ${NQ}
#define DMAX ${DMAX}
#define DW ${DW}
#define VC_SHIFT ${VC_SHIFT}
#define SINK ${SINK}
#define HEAD_T ${HEAD_T}
#define TAIL_T ${TAIL_T}
#define IDLE_T ${IDLE_T}
#define GT_MASK ${GT_MASK}
#define PAYLOAD_MASK ${PAYLOAD_MASK}
#define FLIT_MASK ${FLIT_MASK}
#define VMASK ${VMASK}

/* The fabric is a runtime argument: R routers and the level schedule as
 * three router orders.  Evaluating room_level, then fwd_level, then the
 * registered commit visits every combinational node exactly once with
 * all of its inputs settled (any order within a level is valid; natural
 * router order always is one).  state_level drives the pure
 * allocation-decision scan of level 2; the commit itself runs in
 * ascending router order — a semantically free choice for registered
 * updates, pinned so event logs match the vectorized reference stream
 * for stream. */

/* First set bit of req cyclically above `last` (the shared round-robin
 * grant): the bits above the pointer win outright, else wrap. */
static inline int64_t rr_pick(int64_t req, int64_t last, int64_t width)
{
    int64_t above = req >> (last + 1);
    if (above)
        return (int64_t)__builtin_ctzll((unsigned long long)above) + last + 1;
    (void)width;
    return (int64_t)__builtin_ctzll((unsigned long long)req);
}

${signature}
{
    /* Row buffers, one row per column.  Staged stimuli queues (q) and
     * their entries (e); injection and ejection events (sent, ej) with
     * rows in record-field order plus the lane, so Python can log them
     * as column blocks without touching a single event. */
    const int64_t *q_lane = q, *q_router = q + q_cap, *q_vc = q + 2 * q_cap;
    const int64_t *q_end = q + 3 * q_cap;
    int64_t *q_head = q + 4 * q_cap, *q_stall = q + 5 * q_cap;
    int64_t *q_touched = q + 6 * q_cap;
    const int64_t *e_word = e, *e_cycle = e + e_cap;
    int64_t *sent_cycle = ev_sent, *sent_r = ev_sent + sent_cap;
    int64_t *sent_vc = ev_sent + 2 * sent_cap;
    int64_t *sent_word = ev_sent + 3 * sent_cap;
    int64_t *sent_delay = ev_sent + 4 * sent_cap;
    int64_t *sent_lane = ev_sent + 5 * sent_cap;
    int64_t *ej_cycle = ev_ej, *ej_r = ev_ej + ej_cap;
    int64_t *ej_vc = ev_ej + 2 * ej_cap, *ej_word = ev_ej + 3 * ej_cap;
    int64_t *ej_lane = ev_ej + 4 * ej_cap;
    int64_t n_sent = 0, n_ej = 0;
    /* neq/qam: per-router occupancy bitmasks of the current lane,
     * rebuilt from the committed state each cycle:
     *   neq bit q — queue q non-empty, qam bit q — queue q allocated. */

    for (int64_t t = 0; t < n_cycles; t++) {
        const int64_t ac = base_cycle + t;
        const int64_t sent_mark = n_sent, ej_mark = n_ej;

        /* ---- stimuli pump: TrafficDriver.pump, staged lane-major ----
         * Offer each queue's head entry once its generation timestamp
         * has arrived; maintain the per-queue stall counters and the
         * sticky per-router stalled flag exactly like the driver. */
        for (int64_t i = 0; i < NQS; i++) {
            const int64_t h = q_head[i];
            if (h >= q_end[i] || e_cycle[h] > ac)
                continue;
            const int64_t b = q_lane[i];
            const int64_t r = q_router[i];
            const int64_t v = q_vc[i];
            const int64_t ix = (b * R + r) * V + v;
            q_touched[i] = 1;
            if (!inj_valid[ix]) {
                inj_word[ix] = e_word[h];
                inj_valid[ix] = 1;
                delay[ix] = 0;
                stalled[b * R + r] = 0;
                q_head[i] = h + 1;
                q_stall[i] = 0;
                injc[b] += 1;
            } else {
                stalled[b * R + r] = 1;
                q_stall[i] += 1;
                if (q_stall[i] > stall_limit) {
                    err[0] = 4;
                    err[1] = r;
                    err[2] = v;
                    err[3] = q_stall[i];
                    err[4] = b;
                    counts[0] = n_sent;
                    counts[1] = n_ej;
                    counts[2] = t;
                    return 4;
                }
            }
        }

        /* ---- lane activity: a lane with nothing buffered, nothing
         * pending in the injection registers and no latched ejection
         * flag is provably unchanged by a step — skip its sweeps. ---- */
        int64_t any_active = 0;
        for (int64_t b = 0; b < B; b++) {
            act[b] = (buffered[b] | injc[b] | ejany[b]) != 0;
            any_active |= act[b];
        }
        if (!any_active) {
            /* Fully idle fabric: jump to the next staged arrival (the
             * Python wrapper still credits the skipped cycles' delta
             * accounting, so this is pure evaluation elision). */
            int64_t next = base_cycle + n_cycles;
            for (int64_t i = 0; i < NQS; i++) {
                const int64_t h = q_head[i];
                if (h < q_end[i] && e_cycle[h] < next)
                    next = e_cycle[h];
            }
            if (next <= ac)
                next = ac + 1;
            t += next - ac - 1;
            continue;
        }

        /* ---- pass 1: pure evaluation, level by level.  Route errors
         * outrank GT errors across the whole cycle, and within each
         * class the lowest flat (lane, router, queue) candidate wins —
         * the vectorized sweep's raise order. ---- */
        int64_t route_err = 0, route_key = 0, route_data = 0;
        int64_t gt_err = 0, gt_key = 0, gt_r = 0, gt_vc = 0;
        for (int64_t b = 0; b < B; b++) {
            if (!act[b])
                continue;
            const int64_t sc = b * R;
            /* level 0: room nodes (Moore, committed occupancy only) */
            for (int64_t li = 0; li < R; li++) {
                const int64_t r = room_level[li];
                const int64_t *cnt = count + (sc + r) * NQ;
                const int64_t *qa = queue_alloc + (sc + r) * NQ;
                const int64_t dep = depth[r];
                uint64_t space = 0, ne = 0, qm = 0;
                for (int64_t q = 0; q < NQ; q++) {
                    const int64_t c = cnt[q];
                    space |= (uint64_t)(c < dep) << q;
                    ne |= (uint64_t)(c > 0) << q;
                    qm |= (uint64_t)(qa[q] >= 0) << q;
                }
                neq[r] = (int64_t)ne;
                qam[r] = (int64_t)qm;
                for (int64_t p = 0; p < P; p++)
                    rooms[r * P + p] = (int64_t)((space >> (p * V)) & VMASK);
            }
            /* level 1: forward nodes (stimuli word + crossbar) */
            for (int64_t li = 0; li < R; li++) {
                const int64_t r = fwd_level[li];
                const int64_t *iv = inj_valid + (sc + r) * V;
                const int64_t room0 = rooms[r * P];
                int64_t req = 0;
                for (int64_t v = 0; v < V; v++)
                    if (iv[v] && ((room0 >> v) & 1))
                        req |= (int64_t)1 << v;
                int64_t ch = -1, ifw = 0;
                if (req) {
                    ch = rr_pick(req, rr_ptr[sc + r], V);
                    ifw = (ch << VC_SHIFT) | inj_word[(sc + r) * V + ch];
                }
                choice[sc + r] = ch;
                fwd_in[(sc + r) * P] = ifw; /* local port: the stimuli word */

                const int64_t ne = neq[r];
                if (!ne) { /* nothing queued: no grants on any port */
                    for (int64_t p = 0; p < P; p++) {
                        fwd_out[r * P + p] = 0;
                        gq[(sc + r) * P + p] = -1;
                        gvc[(sc + r) * P + p] = 0;
                    }
                    continue;
                }
                const int64_t *al = alloc + (sc + r) * NQ;
                for (int64_t p = 0; p < P; p++) {
                    int64_t room_in;
                    if (p == 0)
                        room_in = SINK; /* the local sink always has room */
                    else if (nb_ok[r * P + p])
                        room_in = rooms[nb_idx[r * P + p] * P + opp[p]];
                    else
                        room_in = 0;
                    int64_t preq = 0;
                    for (int64_t v = 0; v < V; v++) {
                        const int64_t q = al[p * V + v];
                        if (q >= 0 && ((room_in >> v) & 1) && ((ne >> q) & 1))
                            preq |= (int64_t)1 << q;
                    }
                    int64_t out = 0, gqv = -1, gv = 0;
                    if (preq) {
                        gqv = rr_pick(preq, arb_ptr[(sc + r) * P + p], NQ);
                        while (gv < V && al[p * V + gv] != gqv)
                            gv++;
                        out = (gv << VC_SHIFT)
                            | mem[((sc + r) * NQ + gqv) * DMAX
                                  + rd[(sc + r) * NQ + gqv]];
                    }
                    fwd_out[r * P + p] = out;
                    gq[(sc + r) * P + p] = gqv;
                    gvc[(sc + r) * P + p] = gv;
                }
            }
            /* forward-wire gather (needs every fwd_out of the lane) */
            for (int64_t r = 0; r < R; r++) {
                for (int64_t p = 1; p < P; p++)
                    fwd_in[(sc + r) * P + p] =
                        nb_ok[r * P + p]
                            ? fwd_out[nb_idx[r * P + p] * P + opp[p]]
                            : 0;
                ej_in[sc + r] = fwd_out[r * P]; /* local output = ejection */
            }
            /* level 2, pure half: rotating-priority output-VC
             * allocation decisions, observing only pre-update state */
            for (int64_t li = 0; li < R; li++) {
                const int64_t r = state_level[li];
                uint64_t scan = (uint64_t)(neq[r] & ~qam[r]);
                if (!scan) {
                    dec_n[sc + r] = 0;
                    continue;
                }
                const int64_t *al = alloc + (sc + r) * NQ;
                const int64_t *rdv = rd + (sc + r) * NQ;
                int64_t cand_op[NQ], cand_gt[NQ], cand_iv[NQ];
                uint64_t candmask = 0;
                /* candidate decode + validation in ascending queue order */
                while (scan) {
                    const int64_t q = (int64_t)__builtin_ctzll(scan);
                    scan &= scan - 1;
                    const int64_t headw =
                        mem[((sc + r) * NQ + q) * DMAX + rdv[q]];
                    if (((headw >> DW) & 3) != HEAD_T)
                        continue;
                    const int64_t data = headw & PAYLOAD_MASK;
                    const int64_t in_vc = q % V;
                    const int64_t op = route[r * 256 + (data & 0xFF)];
                    const int64_t key = (sc + r) * NQ + q;
                    if (op < 0) {
                        if (!route_err || key < route_key) {
                            route_err = 1;
                            route_key = key;
                            route_data = data;
                        }
                        continue;
                    }
                    if (((data >> 8) & 1) && !((GT_MASK >> in_vc) & 1)) {
                        if (!gt_err || key < gt_key) {
                            gt_err = 1;
                            gt_key = key;
                            gt_r = r;
                            gt_vc = in_vc;
                        }
                        continue;
                    }
                    candmask |= (uint64_t)1 << q;
                    cand_op[q] = op;
                    cand_gt[q] = (data >> 8) & 1;
                    cand_iv[q] = in_vc;
                }
                int64_t claimed = 0, last = -1, nd = 0;
                if (candmask) {
                    /* rotate the candidate mask so the scan starts one
                     * past the rotating-priority pointer, then walk set
                     * bits — identical visit order to the off = 1..NQ
                     * modular scan. */
                    int64_t s = alloc_ptr[sc + r] + 1;
                    if (s >= NQ)
                        s -= NQ;
                    if (s < 0)
                        s += NQ;
                    uint64_t rot = s ? ((candmask >> s) | (candmask << (NQ - s)))
                                         & (((uint64_t)1 << NQ) - 1)
                                   : candmask;
                    while (rot) {
                        const int64_t bit = (int64_t)__builtin_ctzll(rot);
                        rot &= rot - 1;
                        int64_t q = bit + s;
                        if (q >= NQ)
                            q -= NQ;
                        const int64_t op = cand_op[q];
                        int64_t won = -1;
                        if (cand_gt[q]) { /* GT traffic keeps its VC */
                            const int64_t o = op * V + cand_iv[q];
                            if (al[o] < 0 && !((claimed >> o) & 1))
                                won = o;
                        } else {
                            const int64_t *cg =
                                be_cand
                                + (((r * P + q / V) * V + cand_iv[q]) * P + op)
                                      * V;
                            for (int64_t i = 0; i < V; i++) {
                                const int64_t v = cg[i];
                                if (v < 0)
                                    continue;
                                const int64_t o = op * V + v;
                                if (al[o] < 0 && !((claimed >> o) & 1)) {
                                    won = o;
                                    break;
                                }
                            }
                        }
                        if (won >= 0) {
                            dec_q[(sc + r) * NQ + nd] = q;
                            dec_ovc[(sc + r) * NQ + nd] = won;
                            nd++;
                            claimed |= (int64_t)1 << won;
                            last = q;
                        }
                    }
                }
                dec_n[sc + r] = nd;
                last_alloc[sc + r] = last;
            }
        }
        if (route_err) {
            err[0] = 1;
            err[1] = route_data;
            counts[0] = sent_mark;
            counts[1] = ej_mark;
            counts[2] = t;
            return 1;
        }
        if (gt_err) {
            err[0] = 2;
            err[1] = gt_r;
            err[2] = gt_vc;
            counts[0] = sent_mark;
            counts[1] = ej_mark;
            counts[2] = t;
            return 2;
        }

        /* ---- pass 2: registered commit (pops, pushes, allocation,
         * stimuli), ascending router order ---- */
        for (int64_t b = 0; b < B; b++) {
            if (!act[b])
                continue;
            const int64_t sc = b * R;
            ejany[b] = 0;
            for (int64_t r = 0; r < R; r++) {
                const int64_t dep = depth[r];
                int64_t *al = alloc + (sc + r) * NQ;
                int64_t *qa = queue_alloc + (sc + r) * NQ;
                int64_t *cnt = count + (sc + r) * NQ;
                int64_t *rdv = rd + (sc + r) * NQ;
                int64_t *wrv = wr + (sc + r) * NQ;
                /* pops: granted queues emit their head */
                for (int64_t p = 0; p < P; p++) {
                    const int64_t q = gq[(sc + r) * P + p];
                    if (q < 0)
                        continue;
                    const int64_t word =
                        mem[((sc + r) * NQ + q) * DMAX + rdv[q]];
                    rdv[q] = rdv[q] + 1 == dep ? 0 : rdv[q] + 1;
                    cnt[q] -= 1;
                    buffered[b] -= 1;
                    arb_ptr[(sc + r) * P + p] = q;
                    if (((word >> DW) & 3) == TAIL_T) {
                        al[p * V + gvc[(sc + r) * P + p]] = -1;
                        qa[q] = -1;
                    }
                }
                /* pushes: overflow-check every arrival, then commit */
                for (int64_t p = 0; p < P; p++) {
                    const int64_t word = fwd_in[(sc + r) * P + p];
                    if (((word >> DW) & 3) == IDLE_T)
                        continue;
                    if (cnt[p * V + (word >> VC_SHIFT)] >= dep) {
                        err[0] = 3;
                        counts[0] = sent_mark;
                        counts[1] = ej_mark;
                        counts[2] = t;
                        return 3;
                    }
                }
                for (int64_t p = 0; p < P; p++) {
                    const int64_t word = fwd_in[(sc + r) * P + p];
                    if (((word >> DW) & 3) == IDLE_T)
                        continue;
                    const int64_t q = p * V + (word >> VC_SHIFT);
                    mem[((sc + r) * NQ + q) * DMAX + wrv[q]] = word & FLIT_MASK;
                    wrv[q] = wrv[q] + 1 == dep ? 0 : wrv[q] + 1;
                    cnt[q] += 1;
                    buffered[b] += 1;
                }
                /* apply the allocation decisions (old-state scan results) */
                const int64_t nd = dec_n[sc + r];
                for (int64_t i = 0; i < nd; i++) {
                    const int64_t q = dec_q[(sc + r) * NQ + i];
                    const int64_t o = dec_ovc[(sc + r) * NQ + i];
                    al[o] = q;
                    qa[q] = o;
                }
                if (nd > 0)
                    alloc_ptr[sc + r] = last_alloc[sc + r];
                /* stimuli interface update + event extraction */
                const int64_t ch = choice[sc + r];
                for (int64_t v = 0; v < V; v++) {
                    const int64_t i = (sc + r) * V + v;
                    if (!inj_valid[i])
                        continue;
                    if (v == ch) {
                        sent_lane[n_sent] = b;
                        sent_r[n_sent] = r;
                        sent_vc[n_sent] = v;
                        sent_word[n_sent] = inj_word[i];
                        sent_delay[n_sent] = delay[i];
                        sent_cycle[n_sent] = ac;
                        n_sent++;
                        inj_valid[i] = 0;
                        delay[i] = 0;
                        injc[b] -= 1;
                    } else {
                        delay[i] = (delay[i] + 1) & 0xFFFFF;
                    }
                }
                if (ch >= 0)
                    rr_ptr[sc + r] = ch;
                const int64_t ej = ej_in[sc + r];
                if (((ej >> DW) & 3) != 0) {
                    ej_lane[n_ej] = b;
                    ej_r[n_ej] = r;
                    ej_vc[n_ej] = ej >> VC_SHIFT;
                    ej_word[n_ej] = ej & FLIT_MASK;
                    ej_cycle[n_ej] = ac;
                    n_ej++;
                    eject_word[sc + r] = ej;
                    eject_valid[sc + r] = 1;
                    ejany[b] = 1;
                } else {
                    eject_valid[sc + r] = 0;
                }
            }
        }
    }
    counts[0] = n_sent;
    counts[1] = n_ej;
    counts[2] = n_cycles;
    return 0;
}
"""
)

#: live ``ArrayState`` arrays the kernel reads/writes (``stalled`` is
#: maintained by the in-C pump); rebinding any of them (NumPy interop,
#: checkpoint restores) re-derives the pointers.
_STATE_FIELDS = (
    "mem",
    "rd",
    "wr",
    "count",
    "alloc",
    "queue_alloc",
    "arb_ptr",
    "alloc_ptr",
    "inj_word",
    "inj_valid",
    "rr_ptr",
    "delay",
    "eject_word",
    "eject_valid",
    "stalled",
)


def level_orders(schedule) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """The ``(room, fwd, state)`` router orders of ``schedule``.

    ``None`` when the schedule is not the canonical three-level,
    kind-homogeneous NoC shape — the combinational-cycle (or foreign
    graph) signal the engine treats as "no schedule to carry: bind
    natural router order".
    """
    if schedule.depth != 3:
        return None
    orders = []
    for kind, level in zip(("room", "fwd", "state"), schedule.levels):
        if any(node[0] != kind for node in level):
            return None
        orders.append(tuple(node[1] for node in level))
    return tuple(orders)


def level_tables(schedule, n_routers: int) -> np.ndarray:
    """The kernel's ``[3, R]`` room/fwd/state order table.

    ``schedule=None`` is natural router order — always a valid level
    order of the three-sweep graph (every room before every forward
    before every state update), which is how the ``jit`` tier binds
    this body without running the levelizer.
    """
    if schedule is None:
        return np.tile(np.arange(n_routers, dtype=np.int64), (3, 1))
    orders = level_orders(schedule)
    if orders is None:
        raise KernelUnavailableError(
            "levelized batch kernel needs the canonical 3-level "
            f"room/fwd/state schedule (got depth {schedule.depth})"
        )
    for name, order in zip(("room", "fwd", "state"), orders):
        if sorted(order) != list(range(n_routers)):
            raise KernelUnavailableError(
                f"levelized batch kernel: {name} level is not a permutation "
                f"of the {n_routers} routers"
            )
    return np.array(orders, dtype=np.int64)


def generate_level_source(spec) -> str:
    """The specialized C translation unit for ``spec``."""
    return _TEMPLATE.substitute(
        spec=" ".join(f"{k}={v}" for k, v in sorted(vars(spec).items())),
        P=spec.n_ports,
        V=spec.n_vcs,
        NQ=spec.n_queues,
        DMAX=spec.depth_max,
        DW=spec.data_width,
        VC_SHIFT=spec.vc_shift,
        SINK=spec.sink,
        HEAD_T=1,
        TAIL_T=3,
        IDLE_T=0,
        GT_MASK=spec.gt_mask,
        PAYLOAD_MASK=(1 << spec.data_width) - 1,
        FLIT_MASK=(1 << spec.vc_shift) - 1,
        VMASK=(1 << spec.n_vcs) - 1,
        signature=_SIGNATURE.strip(),
    )


#: rows of the grow-only call buffers (see the kernel's unpacking; the
#: staging kernel keeps each queue's store slot in an eighth ``q`` row
#: and each entry's packet sequence number in a third ``e`` row).
_BUFFER_ROWS = {"q": 8, "e": 3, "sent": 6, "ej": 5}


class CompiledBatchLevel:
    """The generated execution body bound to one batch engine
    (``schedule=None``: natural router order)."""

    def __init__(self, engine, schedule=None) -> None:
        from repro.kernels import cbackend

        self.engine = engine
        self.schedule = schedule
        if engine._NQ > 63:
            raise KernelUnavailableError(
                "compiled allocation scan supports at most 63 queues "
                f"per router (got {engine._NQ})"
            )
        spec = cbackend.KernelSpec.from_engine(engine)
        levels = level_tables(schedule, engine.cfg.n_routers)
        source = generate_level_source(spec)
        self._lib = cbackend.load_source(source, _SIGNATURE.strip() + ";")
        self._ffi = cbackend._ffi_for(_SIGNATURE.strip() + ";")

        def table(arr):
            return np.ascontiguousarray(arr, dtype=np.int64)

        nb_idx, nb_ok = engine.topology.packed_neighbors()
        P = engine._P
        self._tables = {
            "nb_idx": table(nb_idx),
            "nb_ok": table(nb_ok),
            "opp": table(
                [int(Port(p).opposite) if p else 0 for p in range(P)]
            ),
            "be_cand": table(engine._be_cand),
            "room_level": levels[0],
            "fwd_level": levels[1],
            "state_level": levels[2],
        }
        B, R, V, NQ = engine.lanes, engine.cfg.n_routers, engine._V, engine._NQ
        dmax = int(engine.state.mem.shape[-1])
        #: per-lane element strides of the state arrays, for lane-range
        #: pointer offsets (``step_range``).
        self._lane_stride = {
            "mem": R * NQ * dmax,
            "rd": R * NQ,
            "wr": R * NQ,
            "count": R * NQ,
            "alloc": R * NQ,
            "queue_alloc": R * NQ,
            "arb_ptr": R * P,
            "alloc_ptr": R,
            "inj_word": R * V,
            "inj_valid": R * V,
            "rr_ptr": R,
            "delay": R * V,
            "eject_word": R,
            "eject_valid": R,
            "stalled": R,
        }
        scratch = {
            "buffered": B,
            "injc": B,
            "ejany": B,
            "act": B,
            "neq": R,
            "qam": R,
            "rooms": R * P,
            "fwd_out": R * P,
            "choice": B * R,
            "ej_in": B * R,
            "gq": B * R * P,
            "gvc": B * R * P,
            "fwd_in": B * R * P,
            "dec_q": B * R * NQ,
            "dec_ovc": B * R * NQ,
            "dec_n": B * R,
            "last_alloc": B * R,
            "counts": 3,
            "err": 6,
            # staging: per store slot, the window queue behind it; per
            # lane, keys registered before and entries staged, + total
            "fresh": max(2, R * V),
            "marks": 2 * B + 1,
        }
        self._scratch = {
            name: np.zeros(size, dtype=np.int64)
            for name, size in scratch.items()
        }
        self._bound: dict = {}
        self._ptrs: dict = {}
        #: ``(lib, ffi)`` of the stimuli kernel: staging and carry-over.
        from repro.kernels.trafficgen import stimuli_kernel

        self._stimuli = stimuli_kernel()
        for name, arr in self._tables.items():
            self._ptrs[name] = self._ptr(arr)
        for name, arr in self._scratch.items():
            self._ptrs[name] = self._ptr(arr)
        #: grow-only ``[rows, capacity]`` call buffers: staged queues and
        #: entries in, event columns out.  A single cycle emits at most
        #: one injection per (lane, router, VC) and one ejection per
        #: (lane, router), so this floor serves ``step_range`` as is.
        self._buffers: dict = {}
        for name in _BUFFER_ROWS:
            self._rows(name, B * R * V)
        self._rebind()

    def _ptr(self, arr):
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            raise KernelUnavailableError(
                "kernel binding needs C-contiguous int64 arrays "
                f"(got {arr.dtype}, contiguous={arr.flags['C_CONTIGUOUS']})"
            )
        return self._ffi.cast("int64_t *", arr.ctypes.data)

    def _rows(self, name: str, need: int) -> np.ndarray:
        """Call buffer ``name`` with room for ``need`` columns (contents
        do not survive growth; every call refills what it reads)."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1] < need:
            cap = need if buf is None else max(need, 2 * buf.shape[1])
            buf = np.zeros((_BUFFER_ROWS[name], cap), dtype=np.int64)
            self._buffers[name] = buf
            self._ptrs[name] = self._ptr(buf)
        return buf

    def _rebind(self) -> None:
        engine = self.engine
        state = engine.state
        bound = {name: getattr(state, name) for name in _STATE_FIELDS}
        bound["depth"] = state.depth
        bound["route_src"] = engine._route
        # The routing table is re-packed (new object) on quarantine, and
        # never mutated in place, so a private contiguous copy is safe.
        bound["route"] = np.ascontiguousarray(engine._route, dtype=np.int64)
        self._bound = bound
        for name in (*_STATE_FIELDS, "depth", "route"):
            self._ptrs[name] = self._ptr(bound[name])

    def _stale(self) -> bool:
        engine = self.engine
        state = engine.state
        bound = self._bound
        if engine._route is not bound["route_src"]:
            return True
        if state.depth is not bound["depth"]:
            return True
        return any(
            getattr(state, name) is not bound[name] for name in _STATE_FIELDS
        )

    # -- activity counters --------------------------------------------------
    def _refresh_activity(self, lo: int, hi: int) -> None:
        """Recompute the per-lane activity counters for lanes [lo, hi)
        into slots [0, hi-lo) (``offer`` and state mutations between
        calls invalidate any maintained values)."""
        S = self.engine.state
        n = hi - lo
        scratch = self._scratch
        scratch["buffered"][:n] = S.count[lo:hi].reshape(n, -1).sum(axis=1)
        scratch["injc"][:n] = S.inj_valid[lo:hi].reshape(n, -1).sum(axis=1)
        scratch["ejany"][:n] = S.eject_valid[lo:hi].reshape(n, -1).sum(axis=1)

    # -- execution ----------------------------------------------------------
    def _call(self, lo, hi, n_cycles, stall_limit, n_queues) -> int:
        """Run lanes ``[lo, hi)`` for ``n_cycles`` from the engine's
        current cycle, then log the emitted events; returns the kernel's
        error code (0 = the whole window completed)."""
        engine = self.engine
        p = self._ptrs
        buffers = self._buffers
        off = lambda name: (  # noqa: E731 - local pointer-offset helper
            p[name] + lo * self._lane_stride[name] if lo else p[name]
        )
        ret = self._lib.repro_level_chunk(
            hi - lo,
            engine.cfg.n_routers,
            n_cycles,
            engine.cycle,
            stall_limit,
            n_queues,
            p["depth"],
            p["nb_idx"],
            p["nb_ok"],
            p["opp"],
            p["room_level"],
            p["fwd_level"],
            p["state_level"],
            p["route"],
            p["be_cand"],
            *[off(name) for name in _STATE_FIELDS],
            p["q"],
            buffers["q"].shape[1],
            p["e"],
            buffers["e"].shape[1],
            p["buffered"],
            p["injc"],
            p["ejany"],
            p["act"],
            p["neq"],
            p["qam"],
            p["rooms"],
            p["fwd_out"],
            p["choice"],
            p["ej_in"],
            p["gq"],
            p["gvc"],
            p["fwd_in"],
            p["dec_q"],
            p["dec_ovc"],
            p["dec_n"],
            p["last_alloc"],
            p["sent"],
            buffers["sent"].shape[1],
            p["ej"],
            buffers["ej"].shape[1],
            p["counts"],
            p["err"],
        )
        counts = self._scratch["counts"]
        self._log_events(engine._injections, "sent", int(counts[0]), lo, hi)
        self._log_events(engine._ejections, "ej", int(counts[1]), lo, hi)
        return ret

    def _log_events(self, logs, name, n, lo, hi) -> None:
        """Hand ``n`` event columns of buffer ``name`` to the logs of
        lanes ``[lo, hi)``: one stable sort by lane, then one column
        slice per lane — no record object is built."""
        if not n:
            return
        rows = self._buffers[name]
        fields = rows.shape[0] - 1  # the last row is the (relative) lane
        if hi - lo == 1:
            logs[lo].extend_block(rows[:fields, :n].copy(), 0, n)
            return
        lanes = rows[fields, :n]
        block = np.take(rows[:fields, :n], np.argsort(lanes, kind="stable"), axis=1)
        start = 0
        ends = np.cumsum(np.bincount(lanes, minlength=hi - lo)).tolist()
        for lane, stop in enumerate(ends, lo):
            logs[lane].extend_block(block, start, stop)
            start = stop

    def step(self) -> None:
        """Advance every lane one cycle (events logged, errors raised)."""
        self.step_range(0, self.engine.lanes)

    def step_range(self, lo: int, hi: int) -> None:
        """Advance lanes ``[lo, hi)`` one cycle — the per-lane fault
        fallback's clean-lane path (faulted lanes run the dynamic NumPy
        sweep; the two ranges never interact within a cycle)."""
        if self._stale():
            self._rebind()
        self._refresh_activity(lo, hi)
        ret = self._call(lo, hi, 1, 0, 0)
        if ret:
            self._raise(ret, self._scratch["err"])

    # -- chunked execution --------------------------------------------------
    def stage(self, drivers: Sequence, window=None):
        """Lay every driver's backlog, and behind it the flits of
        ``window`` (a loaded :class:`~repro.traffic.stimuli.Stimuli`),
        out in the kernel's staged ``q``/``e`` rows — one C pass over
        the drivers' :class:`~repro.traffic.stimuli.StimuliQueues`, lane
        major, each lane's queues in the order ``pump`` offers them.
        The window's queue keys are registered in the stores on the way.
        Returns ``(stores, queues staged, entries staged)``; ``stores``
        names the drivers' tables and arenas by address.
        """
        lib, _ = self._stimuli
        queues = [driver.queues for driver in drivers]
        lanes = len(queues)
        stores = np.ascontiguousarray(
            np.array([store.address() for store in queues], dtype=np.int64).T
        )
        backlog = sum(store._mark[1] for store in queues)  # arena fill marks
        n_fresh = 0 if window is None else window.queues.shape[1]
        if n_fresh:
            fresh = window.flits.shape[1]
            table, flits = self._ptr(window.queues), self._ptr(window.flits)
        else:
            fresh, table, flits = 0, self._ptrs["fresh"], self._ptrs["fresh"]
        e = self._rows("e", backlog + fresh)
        q = self._buffers["q"]
        n_queues = lib.repro_stage(
            lanes,
            queues[0]._table.shape[1],
            self.engine._V,
            self._ptr(stores),
            n_fresh,
            table,
            flits,
            fresh,
            self._ptrs["q"],
            q.shape[1],
            self._ptrs["e"],
            e.shape[1],
            self._ptrs["fresh"],
            self._ptrs["marks"],
        )
        return stores, n_queues, int(self._scratch["marks"][2 * lanes])

    def run_chunk(self, drivers: Sequence, n_cycles: int, window=None) -> None:
        """Advance all lanes ``n_cycles`` cycles in one C call.

        The chunk's traffic is ``window`` (staged behind the drivers'
        backlog; its timestamps gate injection) or already in the
        drivers' queues.  Afterwards each queue's unconsumed tail is the
        driver's backlog again, and the window is booked on the drivers
        (:func:`~repro.traffic.stimuli.settle`).  On an architectural
        error the completed cycles' state, events, metrics and queue
        consumption are applied first, then the reference path's exact
        exception is raised; an overload first rewinds the traffic to
        where the per-cycle reference loop stops.
        """
        if self._stale():
            self._rebind()
        engine = self.engine
        lanes = engine.lanes
        stores, n_queues, n_entries = self.stage(drivers, window)
        self._refresh_activity(0, lanes)
        scratch = self._scratch
        # Every staged entry and pending register injects at most once;
        # everything injected or already buffered ejects at most once.
        sent_cap = int(scratch["injc"][:lanes].sum()) + n_entries
        self._rows("sent", sent_cap)
        self._rows("ej", sent_cap + int(scratch["buffered"][:lanes].sum()))
        stall_limit = drivers[0].stall_limit if drivers else 10_000
        ret = self._call(0, lanes, n_cycles, stall_limit, n_queues)
        completed = int(scratch["counts"][2])
        if completed:
            engine.metrics.record_cycles(
                completed, engine.SWEEPS_PER_CYCLE * engine.cfg.n_routers
            )
            engine.cycle += completed
        # What the drivers' own pump would have left: consumed entries
        # gone, touched stall counters updated.  An arena too small for
        # its lane's staged entries is replaced (all of them are in `e`).
        marks = scratch["marks"]
        if n_queues:
            for lane in np.flatnonzero(marks[lanes : 2 * lanes] > stores[2]).tolist():
                store = drivers[lane].queues
                store._use(np.empty((3, 2 * int(marks[lanes + lane])), dtype=np.int64))
                stores[:, lane] = store.address()
            self._stimuli[0].repro_carry(
                lanes,
                drivers[0].queues._table.shape[1],
                self._ptr(stores),
                n_queues,
                self._ptrs["q"],
                self._buffers["q"].shape[1],
                self._ptrs["e"],
                self._buffers["e"].shape[1],
            )
        overload = None
        if ret == 4:
            lane = int(scratch["err"][4])
            drivers[lane].overloaded = True
            overload = (engine.cycle, lane)
        if window is not None and (overload or window.packets.shape[1]):
            from repro.traffic.stimuli import settle

            settle(drivers, window, marks, overload)
        if ret:
            self._raise(ret, scratch["err"])

    def _raise(self, ret, err) -> None:
        if ret == 1:
            data = int(err[1])
            x, y = data & 0xF, (data >> 4) & 0xF
            raise IndexError(f"coordinates ({x}, {y}) out of range")
        if ret == 2:
            raise ProtocolError(
                f"router {int(err[1])}: GT head on non-GT VC {int(err[2])}"
            )
        if ret == 3:
            raise ProtocolError("queue overflow: upstream ignored room")
        if ret == 4:
            from repro.traffic.stimuli import NetworkOverloadError

            router, vc, stall = int(err[1]), int(err[2]), int(err[3])
            raise NetworkOverloadError(
                f"router {router} VC {vc} refused stimuli for "
                f"{stall} cycles — network overloaded"
            )
        raise RuntimeError(f"levelized batch kernel returned error code {ret}")
