"""The generated-C simulation body: activity-driven, on the lane axis.

:class:`CompiledBatchLevel` generates one fused C body per **router
configuration** (the compile-time constants of
:class:`~repro.kernels.cbackend.KernelSpec`); the fabric — router count
and neighbour tables — is a runtime argument, so one compiled kernel
serves every fabric built from the same router.  Each system cycle is
the Manticore/CCSS structure — one pure combinational evaluation, one
cheap bulk-synchronous sequential commit — but its cost follows fabric
*activity*, not fabric size:

* four occupancy words per (lane, router) — queue non-empty / full /
  allocated, injection register valid — are **derived from the state
  arrays at call entry** and maintained at the only places they change.
  They live in call scratch: :class:`~repro.seqsim.arraystate.ArrayState`
  stays the single source of truth, so ``offer()``, NumPy interop,
  checkpoint restores and ``step_range`` need no contract with them;
* "room at (router, port, VC)" is a bit of the neighbour's committed
  full-mask, so evaluation reads committed state only, any router order
  is a valid level order of the room → forward → state graph, and a
  router with nothing buffered and nothing pending is skipped outright;
* arbitration walks the set bits of ``non-empty & allocated`` (one or
  two queues, not ports x VCs), and what a router decides — pops,
  pushes, allocations, stimuli updates, ejections — goes into work
  lists the commit applies;
* events leave the call grouped by lane with per-lane counts, so
  logging them is one block copy and one column slice per lane.

Delta accounting is nominal by default (three sweeps of every router
per cycle: the static schedule's cost on the paper's hardware); what the
body actually evaluated is counted beside it
(``engine.kernel_router_evals`` out of ``engine.kernel_lane_cycles`` x
routers).  Generated with ``KernelSpec.hbr`` (the sequential engine: a
second variant of the one template, handed the wire plane of
``ArrayState(..., hbr=True)``), the body also runs the **HBR accounting
pass** before each stepped lane-cycle's commit: the paper's section 4.2
protocol — every status bit cleared, every unit non-stable, round-robin
picks above a persistent pointer, wires that still hold last cycle's
value until rewritten, the ``LinkMemory.write_wire`` rule — over
committed state, changing nothing architectural, returning one delta
count per cycle, exactly the Python model's
(:class:`~repro.seqsim.sequential.SequentialNetwork`).  A cycle the body
skips costs the floor, one evaluation per unit: an idle lane's wires are
at their reset values.

It is the only generated simulation body, behind both compiled tiers of
:class:`~repro.engines.batch.BatchEngine`: ``kernel="levelized"`` binds
it after the levelizer proved the canonical schedule (:func:`level_tables`
refuses any other), ``kernel="jit"``/``"auto"``
(:class:`~repro.kernels.batchstep.CompiledBatchStep`) without one.

Three execution shapes share the one generated function:

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
  are identical to stepping through them);
* :meth:`CompiledBatchLevel.drain` — **run to quiescence**: the same
  call with no fresh window and one more column, ``done``.  A lane is
  done at the first cycle at whose top, before the pump, it has no
  staged entry left, nothing buffered and no valid injection register
  (``driver.backlog() == 0 and state.drained(lane)``; a latched eject
  flag holds nothing back); the call returns at the cycle every lane
  has been.  A drain is no traffic window and is booked as none
  (``engine.kernel_drain_cycles``).

Bit-identity contract: per lane, every snapshot, injection/ejection
record (cycle stamps included), stall counter and overload diagnosis
equals the reference NumPy path driven cycle by cycle — the batch
lockstep tests compare all of it.  Errors re-raise the exact exceptions
of the reference path; a mid-chunk error first applies the completed
cycles' state and events, leaving the engine exactly where the
per-cycle reference stops.

Compilation and binding ride :func:`repro.kernels.cbackend.load_source`:
availability-gated, sha256 disk cache keyed on the generated source, the
signature bound through its pre-parsed module (no declaration is parsed
in a warm-cache process).
"""

from __future__ import annotations

import string
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import ConvergenceError
from repro.kernels import KernelUnavailableError
from repro.noc.config import Port
from repro.noc.flit import X_FIELD, Y_FIELD, field
from repro.noc.router import ProtocolError
from repro.seqsim.scheduler import ConvergenceWatchdog

__all__ = ["CompiledBatchLevel", "generate_level_source", "level_orders"]

_SIGNATURE = """
int64_t repro_level_chunk(
    int64_t B, int64_t R, int64_t n_cycles, int64_t base_cycle,
    int64_t stall_limit, int64_t NQS,
    const int64_t *depth,
    const int64_t *nb_idx, const int64_t *nb_ok, const int64_t *opp,
    const int64_t *route, const int64_t *be_cand,
    int64_t *mem, int64_t *rd, int64_t *wr, int64_t *count,
    int64_t *alloc, int64_t *queue_alloc, int64_t *arb_ptr,
    int64_t *alloc_ptr,
    int64_t *inj_word, int64_t *inj_valid, int64_t *rr_ptr, int64_t *delay,
    int64_t *eject_word, int64_t *eject_valid, int64_t *stalled,
    int64_t *q, int64_t q_cap, const int64_t *e, int64_t e_cap,
    int64_t *lane, int64_t *occ, int64_t *work,
    int64_t *ev_sent, int64_t sent_cap, int64_t *ev_ej, int64_t ej_cap,
    int64_t *lane_n, int64_t *counts, int64_t *err,
    int64_t *wires, int64_t *deltas, int64_t *done)
"""

_TEMPLATE = string.Template(
    """
/* Generated by repro.kernels.batchlevel -- do not edit.
 * Specialized activity-driven batch-chunk kernel: ${spec}
 */
#include <stdint.h>
#include <string.h>

#define P ${P}
#define V ${V}
#define NQ ${NQ}
#define DMAX ${DMAX}
#define DW ${DW}
#define VC_SHIFT ${VC_SHIFT}
#define HEAD_T ${HEAD_T}
#define TAIL_T ${TAIL_T}
#define IDLE_T ${IDLE_T}
#define GT_MASK ${GT_MASK}
#define PAYLOAD_MASK ${PAYLOAD_MASK}
#define FLIT_MASK ${FLIT_MASK}
#define VMASK ${VMASK}
#define HBR ${HBR}

/* The fabric is a runtime argument: R routers and their neighbour
 * tables.  Each cycle is one pure evaluation pass over every lane, then
 * one registered commit.  Evaluation reads committed state only — room
 * at a neighbour's queue is a bit of that neighbour's committed
 * full-mask — so any router order is a valid level order of the
 * room -> forward -> state graph; the walk is ascending, the order the
 * event logs need.
 *
 * Cost follows activity, not fabric size.  Four occupancy words per
 * (lane, router) — queue q non-empty / full / allocated, injection
 * register v valid — are derived from the state arrays at call entry
 * and maintained at the only places they change (pump accept, pop,
 * push, tail release, allocation, injection sent); they are call
 * scratch, the state arrays stay the single source of truth.  A router
 * with nothing buffered and nothing pending is skipped; the others
 * record what they decide — pops, pushes, allocations, stimuli updates,
 * ejections — in work lists, and the commit walks the lists. */
enum { O_NE, O_FULL, O_QAM, O_INJ, O_WORDS };

#define CTZ(x) ((int64_t)__builtin_ctzll((unsigned long long)(x)))
#define BIT(n) ((uint64_t)1 << (n))

/* First set bit of req cyclically above `last` (the shared round-robin
 * grant): the bits above the pointer win outright, else wrap. */
static inline int64_t rr_pick(int64_t req, int64_t last)
{
    const int64_t above = req >> (last + 1);
    return above ? CTZ(above) + last + 1 : CTZ(req);
}

/* Close the gaps between the per-lane segments of an event buffer
 * (`rows` rows of `cap` columns; lane b holds n[b] events from column
 * at[b]): afterwards the events are one block, grouped by lane. */
static void pack_lanes(int64_t *ev, int64_t cap, int64_t rows, int64_t B,
                       const int64_t *at, const int64_t *n)
{
    int64_t out = 0;
    for (int64_t b = 0; b < B; b++) {
        if (n[b] && at[b] != out)
            for (int64_t f = 0; f < rows; f++)
                memmove(ev + f * cap + out, ev + f * cap + at[b],
                        (size_t)n[b] * sizeof(int64_t));
        out += n[b];
    }
}

#if HBR
/* ---- HBR delta accounting (the paper's section 4.2 schedule) ----
 * Generated only for an engine that counts them (the sequential
 * engine): the batch engine's body carries none of this, not even the
 * call site, so its loops compile as they always did.
 * One lane's link memory is a wire plane: per (router, port) the forward
 * word and the room word the router last wrote there, then the
 * round-robin scheduler's pointer.  Values and pointer persist across
 * system cycles; the Has-Been-Read bits and the non-stable set live for
 * one cycle, in scratch: hbr[r] holds one bit per wire unit r samples
 * (bit p: the forward wire at input port p, bit P + p: the room wire at
 * output port p), unst one bit per unit. */

/* LinkMemory.write_wire: a changed value is stored; a reader that had
 * consumed the old one is no longer stable; the wire is unread again. */
static inline void write_wire(int64_t *slot, int64_t value, int64_t reader,
                              int64_t bit, uint64_t *hbr, uint64_t *unst)
{
    if (*slot == value)
        return;
    *slot = value;
    if ((hbr[reader] >> bit) & 1)
        unst[reader >> 6] |= BIT(reader & 63);
    hbr[reader] &= ~BIT(bit);
}

/* One system cycle of one lane under the HBR protocol, on the committed
 * state (x0: the lane's first flat router): every status bit cleared
 * and every unit non-stable; evaluate the next non-stable unit
 * cyclically above the pointer until none is left.  An evaluation reads
 * the unit's wires, computes its room words from its full-mask and its
 * forward words by the crossbar arbitration against the room words *as
 * stored* — they may still be last cycle's — and writes its wires.  No
 * architectural state changes.  Returns the delta cycles spent, -1 past
 * `limit`. */
static int64_t hbr_cycle(
    int64_t R, int64_t x0, int64_t limit,
    const int64_t *nb_idx, const int64_t *nb_ok, const int64_t *opp,
    const int64_t *mem, const int64_t *rd, const int64_t *queue_alloc,
    const int64_t *arb_ptr, const int64_t *occ,
    int64_t *wires, uint64_t *hbr, uint64_t *unst)
{
    int64_t *wfwd = wires, *wroom = wires + R * P;
    const int64_t W = (R + 63) >> 6;
    int64_t pointer = wires[2 * R * P], deltas = 0;
    memset(hbr, 0, (size_t)R * sizeof(uint64_t));
    memset(unst, 0xFF, (size_t)W * sizeof(uint64_t));
    if (R & 63)
        unst[W - 1] = BIT(R & 63) - 1;
    for (;;) {
        /* the round-robin pick: words from the pointer's upwards, the
         * first masked to the units above it, wrapping to its rest */
        int64_t s = pointer + 1 < R ? pointer + 1 : 0, w = s >> 6, u = -1;
        uint64_t m = unst[w] & (~(uint64_t)0 << (s & 63));
        for (int64_t k = 0; k <= W; k++) {
            if (m) {
                u = (w << 6) + CTZ(m);
                break;
            }
            w = w + 1 < W ? w + 1 : 0;
            m = unst[w];
        }
        if (u < 0)
            break;
        if (++deltas > limit)
            return -1;
        pointer = u;
        const int64_t x = x0 + u;
        const int64_t *o = occ + O_WORDS * x;
        hbr[u] = ~(uint64_t)0; /* read phase: every sampled wire is read */
        int64_t fwd[P] = {0};
        uint64_t ready = (uint64_t)(o[O_NE] & o[O_QAM]), ports = 0;
        if (ready) {
            const int64_t *qa = queue_alloc + x * NQ;
            int64_t preq[P] = {0};
            while (ready) {
                const int64_t q = CTZ(ready);
                ready &= ready - 1;
                const int64_t p = qa[q] / V, v = qa[q] % V, k = u * P + p;
                /* the local output is no wire */
                if (!p || !nb_ok[k]
                    || !((wroom[nb_idx[k] * P + opp[p]] >> v) & 1))
                    continue;
                preq[p] |= (int64_t)BIT(q);
                ports |= BIT(p);
            }
            while (ports) {
                const int64_t p = CTZ(ports);
                ports &= ports - 1;
                const int64_t g = rr_pick(preq[p], arb_ptr[x * P + p]);
                fwd[p] = ((qa[g] - p * V) << VC_SHIFT)
                         | mem[(x * NQ + g) * DMAX + rd[x * NQ + g]];
            }
        }
        for (int64_t p = 1; p < P; p++) { /* write phase */
            const int64_t k = u * P + p;
            if (!nb_ok[k])
                continue;
            const int64_t room =
                (int64_t)(~(uint64_t)o[O_FULL] >> (p * V)) & VMASK;
            write_wire(wfwd + k, fwd[p], nb_idx[k], opp[p], hbr, unst);
            write_wire(wroom + k, room, nb_idx[k], P + opp[p], hbr, unst);
        }
        unst[u >> 6] &= ~BIT(u & 63);
    }
    wires[2 * R * P] = pointer;
    return deltas;
}
#endif

${signature}
{
    const int64_t BR = B * R;
    /* Row buffers, one row per column.  Staged stimuli queues (q) and
     * their entries (e); injection and ejection events (sent, ej) with
     * rows in record-field order, one segment per lane, so Python can
     * log them as column blocks without touching a single event. */
    const int64_t *q_lane = q, *q_router = q + q_cap, *q_vc = q + 2 * q_cap;
    const int64_t *q_end = q + 3 * q_cap;
    int64_t *q_head = q + 4 * q_cap, *q_stall = q + 5 * q_cap;
    int64_t *q_touched = q + 6 * q_cap;
    /* q_due: the generation timestamp of each queue's head entry
     * (never, once the queue is exhausted) — the one word the pump
     * reads of a queue that has nothing to offer this cycle */
    int64_t *q_due = q + 8 * q_cap;
    const int64_t *e_word = e, *e_cycle = e + e_cap;
    int64_t *sent_cycle = ev_sent, *sent_r = ev_sent + sent_cap;
    int64_t *sent_vc = ev_sent + 2 * sent_cap;
    int64_t *sent_word = ev_sent + 3 * sent_cap;
    int64_t *sent_delay = ev_sent + 4 * sent_cap;
    int64_t *ej_cycle = ev_ej, *ej_r = ev_ej + ej_cap;
    int64_t *ej_vc = ev_ej + 2 * ej_cap, *ej_word = ev_ej + 3 * ej_cap;
    int64_t *n_sent = lane_n, *n_ej = lane_n + B;
    /* Per-lane words: flits buffered, injection registers valid, eject
     * flags latched, the cycle's activity, where the lane's event
     * segments start, where its share of each work list ends, and the
     * staged queues that still hold an entry for the pump. */
    int64_t *buffered = lane, *injc = lane + B, *latched = lane + 2 * B;
    int64_t *act = lane + 3 * B, *sent_at = lane + 4 * B;
    int64_t *ej_at = lane + 5 * B, *pop_end = lane + 6 * B;
    int64_t *push_end = lane + 7 * B, *inj_end = lane + 8 * B;
    int64_t *loc_end = lane + 9 * B, *staged = lane + 10 * B;
    /* Behind the occupancy words: per lane, the routers whose eject
     * flag is latched (cleared from this list, not by a sweep). */
    int64_t *ejl = occ + O_WORDS * BR;
    /* The cycle's work lists: pops (flat queue, flat output port, queue
     * depth), pushes (flat queue, flit word, queue depth), allocations
     * (flat queue, output VC), stimuli interfaces with a valid register
     * (flat router, granted VC or -1), local-output grants (flat
     * router, link word: the ejections); then one lane's busy routers. */
    int64_t *pop_q = work, *pop_p = pop_q + BR * P, *pop_d = pop_p + BR * P;
    int64_t *push_q = pop_d + BR * P, *push_w = push_q + BR * P;
    int64_t *push_d = push_w + BR * P;
    int64_t *alloc_q = push_d + BR * P, *alloc_o = alloc_q + BR * NQ;
    int64_t *inj_x = alloc_o + BR * NQ, *inj_ch = inj_x + BR;
    int64_t *loc_x = inj_ch + BR, *loc_w = loc_x + BR;
    int64_t *busy = loc_w + BR;
#if HBR
    /* the pass's per-cycle scratch: status bits, non-stable set */
    uint64_t *hbr = (uint64_t *)(busy + R), *unst = hbr + R;
#else
    (void)wires;
    (void)deltas;
#endif
    int64_t ret = 0, t = 0, evals = 0, stepped = 0;

    /* ---- call entry: derive the occupancy words from the state ---- */
    for (int64_t b = 0; b < B; b++) {
        int64_t buf = 0, inj = 0, lat = 0;
        for (int64_t r = 0; r < R; r++) {
            const int64_t x = b * R + r, dep = depth[r];
            const int64_t *cnt = count + x * NQ;
            const int64_t *qa = queue_alloc + x * NQ;
            uint64_t ne = 0, full = 0, qm = 0, ip = 0;
            for (int64_t k = 0; k < NQ; k++) {
                const int64_t c = cnt[k];
                ne |= (uint64_t)(c > 0) << k;
                full |= (uint64_t)(c >= dep) << k;
                qm |= (uint64_t)(qa[k] >= 0) << k;
                buf += c;
            }
            for (int64_t v = 0; v < V; v++) {
                ip |= (uint64_t)(inj_valid[x * V + v] != 0) << v;
                inj += inj_valid[x * V + v] != 0;
            }
            int64_t *o = occ + O_WORDS * x;
            o[O_NE] = (int64_t)ne;
            o[O_FULL] = (int64_t)full;
            o[O_QAM] = (int64_t)qm;
            o[O_INJ] = (int64_t)ip;
            if (eject_valid[x])
                ejl[b * R + lat++] = r;
        }
        buffered[b] = buf;
        injc[b] = inj;
        latched[b] = lat;
        n_sent[b] = n_ej[b] = sent_at[b] = staged[b] = 0;
    }
#if HBR
    /* A cycle the body does not step — an idle lane's, an idle fabric's
     * — finds the wire plane at its reset values and costs the HBR
     * floor: every unit evaluated once. */
    for (int64_t i = 0; i < B * n_cycles; i++)
        deltas[i] = R;
#endif
    /* Event segments: a lane injects at most its valid registers plus
     * its staged entries, ejects at most that plus what it has
     * buffered, and either at most once per router per cycle. */
    for (int64_t i = 0; i < NQS; i++) {
        sent_at[q_lane[i]] += q_end[i] - q_head[i];
        staged[q_lane[i]] += q_head[i] < q_end[i];
        q_due[i] = q_head[i] < q_end[i] ? e_cycle[q_head[i]] : INT64_MAX;
    }
    {
        const int64_t most = R * n_cycles;
        int64_t s = 0, j = 0;
        for (int64_t b = 0; b < B; b++) {
            const int64_t in = injc[b] + sent_at[b], out = in + buffered[b];
            sent_at[b] = s;
            s += in < most ? in : most;
            ej_at[b] = j;
            j += out < most ? out : most;
        }
        if (s > sent_cap || j > ej_cap) {
            ret = 5; /* the caller's event buffers are too small */
            goto done;
        }
    }

    for (; t < n_cycles; t++) {
        const int64_t ac = base_cycle + t;

        /* ---- run to quiescence (a drain call hands in `done`, -1 per
         * lane still open): a lane is done at the first cycle at whose
         * top it has no staged entry left, nothing buffered and no
         * valid injection register; return once every lane has been.
         * A latched eject flag holds nothing back. ---- */
        if (done) {
            int64_t open = 0;
            for (int64_t b = 0; b < B; b++) {
                if (done[b] < 0 && !(staged[b] | buffered[b] | injc[b]))
                    done[b] = ac;
                open += done[b] < 0;
            }
            if (!open)
                break;
        }

        /* ---- stimuli pump: TrafficDriver.pump, staged lane-major ----
         * Offer each queue's head entry once its generation timestamp
         * has arrived; maintain the per-queue stall counters and the
         * sticky per-router stalled flag exactly like the driver. */
        for (int64_t i = 0; i < NQS; i++) {
            if (q_due[i] > ac)
                continue;
            const int64_t h = q_head[i];
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
                if (h + 1 < q_end[i]) {
                    q_due[i] = e_cycle[h + 1];
                } else { /* the queue's last entry */
                    q_due[i] = INT64_MAX;
                    staged[b] -= 1;
                }
                q_stall[i] = 0;
                occ[O_WORDS * (b * R + r) + O_INJ] |= (int64_t)BIT(v);
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
                    ret = 4;
                    goto done;
                }
            }
        }

        /* ---- lane activity: a lane with nothing buffered, nothing
         * pending in the injection registers and no latched ejection
         * flag is provably unchanged by a step — skip it. ---- */
        int64_t any_active = 0;
        for (int64_t b = 0; b < B; b++) {
            act[b] = (buffered[b] | injc[b] | latched[b]) != 0;
            any_active |= act[b];
        }
        if (!any_active) {
            /* Fully idle fabric: jump to the next staged arrival (the
             * Python wrapper still credits the skipped cycles' delta
             * accounting, so this is pure evaluation elision). */
            int64_t next = base_cycle + n_cycles;
            for (int64_t i = 0; i < NQS; i++)
                if (q_due[i] < next)
                    next = q_due[i];
            if (next <= ac)
                next = ac + 1;
            t += next - ac - 1;
            continue;
        }

        /* ---- pass 1: pure evaluation of every router that holds a
         * flit or a valid injection register.  Route errors outrank GT
         * errors across the whole cycle, and within each class the
         * lowest flat (lane, router, queue) candidate wins — the
         * vectorized sweep's raise order. ---- */
        int64_t n_pop = 0, n_push = 0, n_alloc = 0, n_inj = 0, n_loc = 0;
        int64_t route_err = 0, route_key = 0, route_data = 0;
        int64_t gt_err = 0, gt_key = 0, gt_r = 0, gt_vc = 0;
        int64_t cycle_evals = 0, cycle_lanes = 0;
        for (int64_t b = 0; b < B; b++) {
            if (!act[b])
                continue;
            cycle_lanes++;
            const int64_t sc = b * R;
#if HBR
            deltas[b * n_cycles + t] = hbr_cycle(
                R, sc, ${MAX_DELTA_FACTOR} * R, nb_idx, nb_ok, opp, mem, rd,
                queue_alloc, arb_ptr, occ,
                wires + b * (2 * R * P + 1), hbr, unst);
            if (deltas[b * n_cycles + t] < 0) {
                err[0] = 6;
                err[1] = b;
                ret = 6;
                goto done;
            }
#endif
            int64_t n_busy = 0;
            for (int64_t r = 0; r < R; r++) {
                const int64_t *o = occ + O_WORDS * (sc + r);
                busy[n_busy] = r;
                n_busy += (o[O_NE] | o[O_INJ]) != 0;
            }
            cycle_evals += n_busy;
            for (int64_t k = 0; k < n_busy; k++) {
                const int64_t r = busy[k], x = sc + r;
                const int64_t *o = occ + O_WORDS * x;
                const uint64_t ne = (uint64_t)o[O_NE];
                /* stimuli interface: round-robin over the valid
                 * registers whose local input queue has room */
                if (o[O_INJ]) {
                    const int64_t req = o[O_INJ] & ~o[O_FULL] & VMASK;
                    int64_t ch = -1;
                    if (req) {
                        ch = rr_pick(req, rr_ptr[x]);
                        const int64_t word = inj_word[x * V + ch];
                        if (((word >> DW) & 3) != IDLE_T) {
                            push_q[n_push] = x * NQ + ch;
                            push_w[n_push] = word & FLIT_MASK;
                            push_d[n_push++] = depth[r];
                        }
                    }
                    inj_x[n_inj] = x;
                    inj_ch[n_inj++] = ch;
                }
                if (!ne)
                    continue;
                const uint64_t qm = (uint64_t)o[O_QAM];
                const int64_t *qa = queue_alloc + x * NQ;
                /* crossbar: every non-empty allocated queue whose
                 * output VC has room downstream requests its port;
                 * each requested port grants round-robin */
                uint64_t ready = ne & qm, ports = 0;
                int64_t preq[P] = {0};
                while (ready) {
                    const int64_t q = CTZ(ready);
                    ready &= ready - 1;
                    const int64_t p = qa[q] / V, v = qa[q] % V;
                    if (p) { /* the local sink always has room */
                        const int64_t w = r * P + p;
                        if (!nb_ok[w]
                            || ((occ[O_WORDS * (sc + nb_idx[w]) + O_FULL]
                                 >> (opp[p] * V + v)) & 1))
                            continue;
                    }
                    preq[p] |= (int64_t)BIT(q);
                    ports |= BIT(p);
                }
                while (ports) {
                    const int64_t p = CTZ(ports);
                    ports &= ports - 1;
                    const int64_t g = rr_pick(preq[p], arb_ptr[x * P + p]);
                    const int64_t gv = qa[g] - p * V;
                    const int64_t word =
                        mem[(x * NQ + g) * DMAX + rd[x * NQ + g]];
                    pop_q[n_pop] = x * NQ + g;
                    pop_p[n_pop] = x * P + p;
                    pop_d[n_pop++] = depth[r];
                    if (((word >> DW) & 3) == IDLE_T)
                        continue;
                    if (p) {
                        const int64_t nr = nb_idx[r * P + p];
                        push_q[n_push] = (sc + nr) * NQ + opp[p] * V + gv;
                        push_w[n_push] = word & FLIT_MASK;
                        push_d[n_push++] = depth[nr];
                    } else { /* local output = ejection */
                        loc_x[n_loc] = x;
                        loc_w[n_loc++] = (gv << VC_SHIFT) | word;
                    }
                }
                /* rotating-priority output-VC allocation decisions,
                 * observing only pre-update state */
                uint64_t scan = ne & ~qm;
                if (!scan)
                    continue;
                const int64_t *al = alloc + x * NQ;
                int64_t cand_op[NQ], cand_gt[NQ];
                uint64_t candmask = 0;
                /* candidate decode + validation in ascending queue order */
                while (scan) {
                    const int64_t q = CTZ(scan);
                    scan &= scan - 1;
                    const int64_t headw =
                        mem[(x * NQ + q) * DMAX + rd[x * NQ + q]];
                    if (((headw >> DW) & 3) != HEAD_T)
                        continue;
                    const int64_t data = headw & PAYLOAD_MASK;
                    const int64_t in_vc = q % V;
                    const int64_t op = route[r * 256 + (data & 0xFF)];
                    const int64_t key = x * NQ + q;
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
                    candmask |= BIT(q);
                    cand_op[q] = op;
                    cand_gt[q] = (data >> 8) & 1;
                }
                if (!candmask)
                    continue;
                /* rotate the candidate mask so the scan starts one past
                 * the rotating-priority pointer, then walk set bits —
                 * identical visit order to the off = 1..NQ modular
                 * scan. */
                int64_t s = alloc_ptr[x] + 1;
                if (s >= NQ)
                    s -= NQ;
                if (s < 0)
                    s += NQ;
                uint64_t rot = s ? ((candmask >> s) | (candmask << (NQ - s)))
                                       & (BIT(NQ) - 1)
                                 : candmask;
                uint64_t claimed = 0;
                while (rot) {
                    int64_t q = CTZ(rot) + s;
                    rot &= rot - 1;
                    if (q >= NQ)
                        q -= NQ;
                    const int64_t op = cand_op[q], in_vc = q % V;
                    int64_t won = -1;
                    if (cand_gt[q]) { /* GT traffic keeps its VC */
                        const int64_t ovc = op * V + in_vc;
                        if (al[ovc] < 0 && !((claimed >> ovc) & 1))
                            won = ovc;
                    } else {
                        const int64_t *cg =
                            be_cand
                            + (((r * P + q / V) * V + in_vc) * P + op) * V;
                        for (int64_t i = 0; i < V && won < 0; i++) {
                            const int64_t ovc = op * V + cg[i];
                            if (cg[i] >= 0 && al[ovc] < 0
                                && !((claimed >> ovc) & 1))
                                won = ovc;
                        }
                    }
                    if (won >= 0) {
                        alloc_q[n_alloc] = x * NQ + q;
                        alloc_o[n_alloc++] = won;
                        claimed |= BIT(won);
                    }
                }
            }
            pop_end[b] = n_pop;
            push_end[b] = n_push;
            inj_end[b] = n_inj;
            loc_end[b] = n_loc;
        }
        if (route_err) {
            err[0] = 1;
            err[1] = route_data;
            ret = 1;
            goto done;
        }
        if (gt_err) {
            err[0] = 2;
            err[1] = gt_r;
            err[2] = gt_vc;
            ret = 2;
            goto done;
        }

        /* ---- pass 2: registered commit, list by list: every pop,
         * the overflow check of every push, every push, every
         * allocation; then per lane the stimuli interfaces and the
         * ejections, which emit the events. ---- */
        for (int64_t i = 0; i < n_pop; i++) {
            const int64_t xq = pop_q[i], x = xq / NQ, q = xq - x * NQ;
            const int64_t word = mem[xq * DMAX + rd[xq]];
            int64_t *o = occ + O_WORDS * x;
            rd[xq] = rd[xq] + 1 == pop_d[i] ? 0 : rd[xq] + 1;
            arb_ptr[pop_p[i]] = q;
            if (--count[xq] == 0)
                o[O_NE] &= ~(int64_t)BIT(q);
            o[O_FULL] &= ~(int64_t)BIT(q);
            if (((word >> DW) & 3) == TAIL_T) {
                alloc[x * NQ + queue_alloc[xq]] = -1;
                queue_alloc[xq] = -1;
                o[O_QAM] &= ~(int64_t)BIT(q);
            }
        }
        for (int64_t i = 0; i < n_push; i++)
            if (count[push_q[i]] >= push_d[i]) {
                err[0] = 3;
                ret = 3;
                goto done;
            }
        for (int64_t i = 0; i < n_push; i++) {
            const int64_t xq = push_q[i], x = xq / NQ, q = xq - x * NQ;
            int64_t *o = occ + O_WORDS * x;
            mem[xq * DMAX + wr[xq]] = push_w[i];
            wr[xq] = wr[xq] + 1 == push_d[i] ? 0 : wr[xq] + 1;
            o[O_NE] |= (int64_t)BIT(q);
            if (++count[xq] >= push_d[i])
                o[O_FULL] |= (int64_t)BIT(q);
        }
        for (int64_t i = 0; i < n_alloc; i++) {
            const int64_t xq = alloc_q[i], x = xq / NQ, q = xq - x * NQ;
            alloc[x * NQ + alloc_o[i]] = q;
            queue_alloc[xq] = alloc_o[i];
            occ[O_WORDS * x + O_QAM] |= (int64_t)BIT(q);
            alloc_ptr[x] = q; /* a router's last decision parks the pointer */
        }
        int64_t pops = 0, pushes = 0, ij = 0, lo = 0;
        for (int64_t b = 0; b < B; b++) {
            if (!act[b])
                continue;
            const int64_t sc = b * R;
            buffered[b] += (push_end[b] - pushes) - (pop_end[b] - pops);
            pushes = push_end[b];
            pops = pop_end[b];
            for (int64_t k = 0; k < latched[b]; k++)
                eject_valid[sc + ejl[sc + k]] = 0;
            latched[b] = 0;
            /* stimuli interface update + event extraction */
            for (; ij < inj_end[b]; ij++) {
                const int64_t x = inj_x[ij], ch = inj_ch[ij];
                uint64_t ip = (uint64_t)occ[O_WORDS * x + O_INJ];
                while (ip) {
                    const int64_t v = CTZ(ip), i = x * V + v;
                    ip &= ip - 1;
                    if (v != ch) {
                        delay[i] = (delay[i] + 1) & 0xFFFFF;
                        continue;
                    }
                    const int64_t k = sent_at[b] + n_sent[b]++;
                    sent_cycle[k] = ac;
                    sent_r[k] = x - sc;
                    sent_vc[k] = v;
                    sent_word[k] = inj_word[i];
                    sent_delay[k] = delay[i];
                    inj_valid[i] = 0;
                    delay[i] = 0;
                    rr_ptr[x] = v;
                    occ[O_WORDS * x + O_INJ] &= ~(int64_t)BIT(v);
                    injc[b] -= 1;
                }
            }
            for (; lo < loc_end[b]; lo++) {
                const int64_t x = loc_x[lo], word = loc_w[lo];
                const int64_t k = ej_at[b] + n_ej[b]++;
                ej_cycle[k] = ac;
                ej_r[k] = x - sc;
                ej_vc[k] = word >> VC_SHIFT;
                ej_word[k] = word & FLIT_MASK;
                eject_word[x] = word;
                eject_valid[x] = 1;
                ejl[sc + latched[b]++] = x - sc;
            }
        }
        evals += cycle_evals;
        stepped += cycle_lanes;
    }
done:
    pack_lanes(ev_sent, sent_cap, 5, B, sent_at, n_sent);
    pack_lanes(ev_ej, ej_cap, 4, B, ej_at, n_ej);
    /* cycles completed; over them, routers evaluated and lanes stepped */
    counts[0] = t;
    counts[1] = evals;
    counts[2] = stepped;
    return ret;
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


def level_tables(schedule, n_routers: int) -> None:
    """Check that ``schedule`` is a level schedule this body honours:
    the canonical room/fwd/state shape, each level a permutation of the
    routers.  The orders themselves are not carried — evaluation reads
    committed state only, so the kernel's ascending walk is a valid
    order of every such schedule (and ``schedule=None``, the ``jit``
    tier's binding, needs no check at all).
    """
    if schedule is None:
        return
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
        HEAD_T=1,
        TAIL_T=3,
        IDLE_T=0,
        GT_MASK=spec.gt_mask,
        PAYLOAD_MASK=(1 << spec.data_width) - 1,
        FLIT_MASK=(1 << spec.vc_shift) - 1,
        VMASK=(1 << spec.n_vcs) - 1,
        HBR=int(spec.hbr),
        MAX_DELTA_FACTOR=ConvergenceWatchdog.DEFAULT_FACTOR,
        signature=_SIGNATURE.strip(),
    )


#: rows of the grow-only call buffers (see the kernel's unpacking; the
#: staging kernel keeps each queue's store slot in an eighth ``q`` row
#: and each entry's packet sequence number in a third ``e`` row; the
#: ninth ``q`` row is the chunk kernel's own; ``deltas`` is the HBR
#: pass's count per cycle, lane-major).
_BUFFER_ROWS = {"q": 9, "e": 3, "sent": 5, "ej": 4, "deltas": 1}


class CompiledBatchLevel:
    """The generated execution body bound to one batch engine
    (``schedule``: the level schedule the ``levelized`` tier proved,
    checked here; ``None`` for the ``jit`` tier)."""

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
        level_tables(schedule, engine.cfg.n_routers)
        source = generate_level_source(spec)
        self._lib, self._ffi = cbackend.load_source(
            source, _SIGNATURE.strip() + ";"
        )

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
        }
        B, R, V, NQ = engine.lanes, engine.cfg.n_routers, engine._V, engine._NQ
        scratch = {
            # call scratch, rows as the kernel unpacks them: eleven words
            # per lane; four occupancy words per (lane, router) plus the
            # latched-eject list; the cycle's work lists, one lane's busy
            # routers and the HBR pass's status bits and non-stable set
            "lane": 11 * B,
            "occ": 5 * B * R,
            "work": (6 * P + 2 * NQ + 4) * B * R + 3 * R + 1,
            # out: events per lane (injections, then ejections); cycles
            # completed, routers evaluated, lane-cycles stepped; of a
            # drain, the cycle each lane was done at
            "lane_n": 2 * B,
            "counts": 3,
            "err": 6,
            "done": B,
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
        #: one injection and one ejection per (lane, router), so this
        #: floor serves ``step_range`` as is.
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
        #: per-lane element strides of the state arrays, for lane-range
        #: pointer offsets (``step_range``).
        self._lane_stride = {name: bound[name][0].size for name in _STATE_FIELDS}
        bound["depth"] = state.depth
        #: the HBR wire plane (NULL: the pass is off, accounting nominal)
        self._ptrs["wires"] = (
            self._ffi.NULL if state.wires is None else self._ptr(state.wires)
        )
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

    # -- execution ----------------------------------------------------------
    def _call(self, lo, hi, n_cycles, stall_limit, n_queues, done=None) -> int:
        """Run lanes ``[lo, hi)`` for ``n_cycles`` from the engine's
        current cycle — with a ``done`` column, until every lane has
        drained — then log the emitted events and book the activity
        counters; returns the kernel's error code (0 = the whole window
        completed)."""
        engine = self.engine
        p = self._ptrs
        buffers = self._buffers
        off = lambda name: (  # noqa: E731 - local pointer-offset helper
            p[name] + lo * self._lane_stride[name] if lo else p[name]
        )
        wires = p["wires"]
        if engine.state.wires is not None:
            self._rows("deltas", (hi - lo) * n_cycles)
            wires += lo * engine.state.wires[0].size
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
            p["route"],
            p["be_cand"],
            *[off(name) for name in _STATE_FIELDS],
            p["q"],
            buffers["q"].shape[1],
            p["e"],
            buffers["e"].shape[1],
            p["lane"],
            p["occ"],
            p["work"],
            p["sent"],
            buffers["sent"].shape[1],
            p["ej"],
            buffers["ej"].shape[1],
            p["lane_n"],
            p["counts"],
            p["err"],
            wires,
            p["deltas"],
            self._ffi.NULL if done is None else done,
        )
        n = hi - lo
        sent, ejected = self._scratch["lane_n"][: 2 * n].reshape(2, n).tolist()
        self._log_events(engine._injections, "sent", sent, lo)
        self._log_events(engine._ejections, "ej", ejected, lo)
        counts = self._scratch["counts"]
        engine.kernel_router_evals += int(counts[1])
        engine.kernel_lane_cycles += int(counts[2])
        return ret

    def _log_events(self, logs, name, counts, lo) -> None:
        """Hand the events of buffer ``name`` — grouped by lane by the
        kernel, ``counts[i]`` of them for lane ``lo + i`` — to the
        lanes' logs: one block sized to the events, one column slice per
        lane, no record object built."""
        total = sum(counts)
        if not total:
            return
        block = self._buffers[name][:, :total].copy()
        start = 0
        for lane, n in enumerate(counts, lo):
            logs[lane].extend_block(block, start, start + n)
            start += n

    def delta_column(self, cycles: int) -> Optional[list]:
        """The HBR pass's delta count for each of the last call's first
        ``cycles`` cycles (its first lane's) — ``None`` while the pass is
        off and the engine's accounting nominal."""
        if self.engine.state.wires is None:
            return None
        return self._buffers["deltas"][0, :cycles].tolist()

    def step(self) -> None:
        """Advance every lane one cycle (events logged, errors raised)."""
        self.step_range(0, self.engine.lanes)

    def step_range(self, lo: int, hi: int) -> None:
        """Advance lanes ``[lo, hi)`` one cycle — the per-lane fault
        fallback's clean-lane path (faulted lanes run the dynamic NumPy
        sweep; the two ranges never interact within a cycle)."""
        if self._stale():
            self._rebind()
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
        engine = self.engine
        completed, ret = self._advance(drivers, n_cycles, window)
        engine.kernel_windows += 1
        engine.kernel_window_cycles += completed
        if window is not None:
            engine.kernel_window_flits += window.flits.shape[1]
        if ret:
            self._raise(ret, self._scratch["err"])

    def drain(self, drivers: Sequence, max_cycles: int) -> list:
        """Run until every lane is drained (the module docstring's
        ``done`` rule), ``max_cycles`` at most.  Returns per lane the
        cycles it took, -1 for a lane still open at the bound; the
        engine stops at the cycle the last lane was done.  Errors as
        :meth:`run_chunk`.  (The HBR delta plane holds one word per
        cycle of a call: an engine that counts deltas drains in calls
        of its capacity.)
        """
        engine = self.engine
        done = self._scratch["done"]
        done[:] = -1
        start, left = engine.cycle, max_cycles
        while left > 0:
            bound = left
            if engine.state.wires is not None:
                bound = min(left, self._buffers["deltas"].shape[1] // engine.lanes)
            completed, ret = self._advance(drivers, bound, None, self._ptrs["done"])
            engine.kernel_drain_cycles += completed
            if ret:
                self._raise(ret, self._scratch["err"])
            if completed < bound:  # it returned early: every lane was done
                break
            left -= completed
        return [at - start if at >= 0 else -1 for at in done.tolist()]

    def _advance(self, drivers, n_cycles, window, done=None) -> Tuple[int, int]:
        """Stage, run and carry over one call of ``n_cycles`` at most;
        returns the cycles completed and the kernel's error code, with
        everything up to the error applied."""
        if self._stale():
            self._rebind()
        engine = self.engine
        lanes = engine.lanes
        stores, n_queues, n_entries = self.stage(drivers, window)
        scratch = self._scratch
        # Every staged entry and valid register injects at most once;
        # everything injected or already buffered ejects at most once;
        # a router does either at most once a cycle.  (The kernel splits
        # the same bounds by lane, and checks them against the buffers.)
        state = engine.state
        most = lanes * engine.cfg.n_routers * n_cycles
        injects = int(np.count_nonzero(state.inj_valid)) + n_entries
        self._rows("sent", min(injects, most))
        self._rows("ej", min(injects + int(state.count.sum()), most))
        stall_limit = drivers[0].stall_limit if drivers else 10_000
        ret = self._call(0, lanes, n_cycles, stall_limit, n_queues, done)
        completed = int(scratch["counts"][0])
        engine.book_cycles(completed, self.delta_column(completed))
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
        return completed, ret

    def _raise(self, ret, err) -> None:
        if ret == 1:
            data = int(err[1])
            x, y = field(data, X_FIELD), field(data, Y_FIELD)
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
        if ret == 6:
            limit = ConvergenceWatchdog.DEFAULT_FACTOR * self.engine.cfg.n_routers
            raise ConvergenceError(
                f"cycle {self.engine.cycle}: the HBR schedule of lane "
                f"{int(err[1])} did not settle within {limit} delta cycles"
            )
        raise RuntimeError(f"levelized batch kernel returned error code {ret}")
