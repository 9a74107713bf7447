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
  stays the single source of truth, so ``offer()``, NumPy interop and
  checkpoint restores need no contract with them;
* "room at (router, port, VC)" is a bit of the neighbour's committed
  full-mask, so evaluation reads committed state only, any router order
  is a valid level order of the room → forward → state graph, and a
  router with nothing buffered and nothing pending is skipped outright;
* arbitration walks the set bits of ``non-empty & allocated`` (one or
  two queues, not ports x VCs), and what a router decides — pops,
  pushes, allocations, stimuli updates, ejections — goes into work
  lists the commit applies;
* events leave the call grouped by lane with per-lane counts, in the
  packed words of :class:`~repro.noc.layout.EventLayout`, so logging
  them is one block copy per call and log.

The per-flit cost is kept down where a measurement showed it (DESIGN
section 14, *The hot loop*): the pointer parameters are ``restrict`` —
:meth:`CompiledBatchLevel._rebind` refuses arrays that share memory —
so a store to one array does not force reloads of the others; the
commit updates the occupancy words by mask arithmetic, not by
data-dependent branches.

Delta accounting is nominal by default (three sweeps of every router
per cycle: the static schedule's cost on the paper's hardware); what the
body actually evaluated is counted beside it
(``engine.kernel_router_evals`` out of ``engine.kernel_lane_cycles`` x
routers).  Generated with ``KernelSpec.hbr`` (the sequential engine: a
second variant of the one template, handed the wire plane of
``ArrayState(..., hbr=True)``), the body also runs the **HBR accounting
pass** before each stepped lane-cycle's commit: the paper's section 4.2
protocol — every unit non-stable, round-robin picks above a persistent
pointer, wires that still hold last cycle's value until rewritten, a
changed wire un-stabilising its reader (the ``LinkMemory.write_wire``
rule, with every wire read at every evaluation) — over committed
state, changing nothing architectural, returning one delta count per
cycle, exactly the Python model's
(:class:`~repro.seqsim.sequential.SequentialNetwork`).  Only a unit
whose inputs changed since its last evaluation — its router's state
in a commit, a room wire into it — is evaluated again; a run of picks
of settled units is counted with a popcount a mask word
(``engine.kernel_hbr_evals`` counts the evaluations).  A cycle the
body skips costs the floor, one evaluation per unit: an idle lane's
wires are at their reset values.

It is the only generated simulation body, behind both compiled labels
of :class:`~repro.engines.batch.BatchEngine`: ``kernel="levelized"``
binds this class, ``kernel="jit"``/``"auto"`` its subclass
:class:`~repro.kernels.batchstep.CompiledBatchStep`.  Neither carries a
schedule: evaluation reads committed state only (section 4.1: with
registered outputs the evaluation order "can be arbitrary"), so the
ascending router walk is a valid order of every fabric.

Three execution shapes share the one generated function:

* :meth:`CompiledBatchLevel.step` — a single cycle over all lanes;
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
  The call runs in **lane order** — lane 0 through the whole window,
  then lane 1, ... — so one lane's state stays in L1 for the window.
  A lane with nothing buffered, nothing pending in the
  injection registers and no latched ejection flag is provably
  unchanged by a step and jumps straight to its next staged arrival
  (the wrapper still credits the skipped cycles' delta accounting, so
  metrics and the cycle counter are identical to stepping through
  them);
* :meth:`CompiledBatchLevel.drain` — **run to quiescence**: the same
  call with no fresh window and one more column, ``done``.  A lane is
  done at the first cycle at whose top, before the pump, it has no
  staged entry left, nothing buffered and no valid injection register
  (``driver.backlog() == 0 and state.drained(lane)``; a latched eject
  flag holds nothing back); the call returns at the cycle every lane
  has been, so it runs all lanes a cycle (cycle order), as ``step``
  does.  A drain is no traffic window and is booked as none
  (``engine.kernel_drain_cycles``).

Bit-identity contract: per lane, every snapshot, injection/ejection
record (cycle stamps included), stall counter and overload diagnosis
equals the golden network driven cycle by cycle — the batch lockstep
tests compare all of it.  Errors re-raise the reference's exceptions,
text included, each lane's error the one its golden network raises
(across lanes the lowest lane's route error first, then the lowest
lane's GT error); a mid-chunk error first applies the completed cycles'
state and events, leaving the engine exactly where the per-cycle
reference stops.  Lane order reaches that end by replay: each lane's
state is copied to call scratch before it runs, and a lane's error
restores every lane run so far and runs the call again in cycle order
(``engine.kernel_replays`` counts such calls).  The one exception is a
queue overflow, which only a corrupted store reaches: it is checked
after the failing cycle's pops.

Compilation and binding ride :func:`repro.kernels.cbackend.load_source`:
availability-gated, sha256 disk cache keyed on the generated source, the
signature bound through its pre-parsed module (no declaration is parsed
in a warm-cache process).
"""

from __future__ import annotations

import time
from operator import is_not
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import ConvergenceError
from repro.kernels import KernelUnavailableError
from repro.noc.config import Port
from repro.noc.flit import X_FIELD, Y_FIELD, field
from repro.noc.router import ProtocolError
from repro.seqsim.scheduler import ConvergenceWatchdog

__all__ = [
    "CompiledBatchLevel",
    "FabricJob",
    "fabric_threads",
    "generate_level_source",
    "jobs_in_flight",
]

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

def _fill(template: str, **values) -> str:
    """``template`` with each ``${name}`` in it replaced by
    ``str(values[name])``."""
    head, *parts = template.split("${")
    out = [head]
    for part in parts:
        name, tail = part.split("}", 1)
        out += (str(values[name]), tail)
    return "".join(out)


_TEMPLATE = (
    """
/* Generated by repro.kernels.batchlevel -- do not edit.
 * Specialized activity-driven batch-chunk kernel: ${spec}
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

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
/* the packed event words (repro.noc.layout.EventLayout): word 0 is
 * delay | vc | router | cycle, LSB first, word 1 the flit */
#define EV_VC ${EV_VC}
#define EV_ROUTER ${EV_ROUTER}
#define EV_CYCLE ${EV_CYCLE}

/* The fabric is a runtime argument: R routers and their neighbour
 * tables.  Each cycle of a lane range is one pure evaluation pass over
 * its lanes, then one registered commit; a traffic window runs one
 * lane at a time through the whole window (lane order, in the body
 * below).  Evaluation reads committed state only — room at a
 * neighbour's queue is a bit of that neighbour's committed full-mask —
 * so any router order is a valid level order of the room -> forward ->
 * state graph; the walk is ascending, the order the event logs need.
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
 * (two rows of `cap` columns; lane b holds n[b] events from column
 * at[b]): afterwards the events are one block, grouped by lane. */
static void pack_lanes(int64_t *ev, int64_t cap, int64_t B,
                       const int64_t *at, const int64_t *n)
{
    int64_t out = 0;
    for (int64_t b = 0; b < B; b++) {
        if (n[b] && at[b] != out)
            for (int64_t f = 0; f < 2; f++)
                memmove(ev + f * cap + out, ev + f * cap + at[b],
                        (size_t)n[b] * sizeof(int64_t));
        out += n[b];
    }
}

/* Lane order's snapshot: per (lane, router), the words of every mutable
 * state array, in parameter order (mem, rd, wr, count, alloc,
 * queue_alloc, arb_ptr, alloc_ptr, inj_word, inj_valid, rr_ptr, delay,
 * eject_word, eject_valid, stalled). */
#define KEEP (NQ * DMAX + 5 * NQ + P + 5 + 3 * V)

/* Copy lanes [L0, L1) of the state arrays to `keep` (save) or back
 * (restore), and their staged queues' head, stall and touched rows to
 * the three rows five below them.  Array a holds w[a] words a (lane,
 * router) and is kept at keep + BR x (the words of the arrays before
 * it); queue i at column i. */
static void keep_lanes(int64_t *const *state, int64_t *keep, int64_t BR,
                       int64_t R, int64_t L0, int64_t L1, int64_t *q,
                       int64_t q_cap, const int64_t *q_at, int save)
{
    const int64_t w[] = {NQ * DMAX, NQ, NQ, NQ, NQ, NQ, P, 1, V, V, 1, V, 1, 1, 1};
    for (int64_t a = 0; a < 15; a++) {
        int64_t *s = state[a] + L0 * R * w[a], *k = keep + L0 * R * w[a];
        const size_t n = (size_t)((L1 - L0) * R * w[a]) * sizeof(int64_t);
        memcpy(save ? k : s, save ? s : k, n);
        keep += BR * w[a];
    }
    for (int64_t row = 4; row < 7; row++) {
        int64_t *s = q + row * q_cap + q_at[L0], *k = s + 5 * q_cap;
        const size_t n = (size_t)(q_at[L1] - q_at[L0]) * sizeof(int64_t);
        memcpy(save ? k : s, save ? s : k, n);
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
 * system cycles; the non-stable set (unst, one bit per unit) lives for
 * one cycle.  An evaluation reads every wire its unit samples, so on
 * the fault-free fabrics this body runs a wire's Has-Been-Read bit is
 * clear only while its reader is non-stable anyway: the bit rule of
 * LinkMemory.write_wire is that a changed wire un-stabilises its
 * reader, and no status bit is kept.
 *
 * A unit is settled while nothing it reads has changed since its last
 * evaluation: not its router's committed state as its evaluation sees
 * it (the commit unsettles the routers whose ready set, room word, head
 * flit or pointers it changed) and not the room wires into it (a
 * changed room wire unsettles its reader).  Evaluated again, a settled
 * unit would rewrite only what its wires already hold, so picking it
 * costs a delta and nothing else.  The settled set is call scratch, one
 * bit per flat router (lane-major, and a spare word), emptied at call
 * entry.
 *
 * W, the lane's mask words (ceil(R / 64)), is a compile-time constant
 * like P and V, so the walk keeps a lane's two masks in locals: up to
 * 64 routers every word index is 0 and both live in registers. */
#define W ${W}
#define WORD(n) (W == 1 ? 0 : (n) >> 6)

/* The commit changed flat router x's state: its unit must be evaluated
 * again. */
static inline void unsettle(uint64_t *settled, int64_t x)
{
    settled[x >> 6] &= ~BIT(x & 63);
}

/* Bits [at, at + 64) of a flat bit mask with a spare word. */
static inline uint64_t bits_at(const uint64_t *mask, int64_t at)
{
    const uint64_t low = mask[at >> 6] >> (at & 63);
    return at & 63 ? low | mask[(at >> 6) + 1] << (64 - (at & 63)) : low;
}

/* Store the low n (1..64) bits of `bits` at bits [at, at + n) of a flat
 * bit mask, the rest of it kept: two words where the run crosses a word
 * edge. */
static inline void bits_put(uint64_t *mask, int64_t at, int64_t n, uint64_t bits)
{
    const uint64_t keep = n < 64 ? BIT(n) - 1 : ~(uint64_t)0;
    const int64_t w = at >> 6, s = at & 63;
    bits &= keep;
    mask[w] = (mask[w] & ~(keep << s)) | bits << s;
    if (s + n > 64)
        mask[w + 1] = (mask[w + 1] & ~(keep >> (64 - s))) | bits >> (64 - s);
}

/* One system cycle of one lane under the HBR protocol, on the committed
 * state (x0: the lane's first flat router): every unit non-stable; pick
 * the next non-stable unit cyclically above the pointer, one delta a
 * pick, until none is left.  The picks walk the words from the
 * pointer's upwards, the first masked to the units above it, wrapping
 * to its rest.  The settled picks ahead of the first unsettled one are
 * counted with one popcount a word and leave the pointer on their last
 * unit; the unsettled one is evaluated and the walk starts again above
 * it.  An evaluation computes the unit's room words from its full-mask
 * and its forward words by the crossbar arbitration against the room
 * words *as stored* — they may still be last cycle's — and writes them
 * to its wires; no architectural state changes.  The lane's settled
 * bits are read once and written back once.  Adds the units evaluated
 * to `evals`; returns the delta cycles spent, -1 past `limit`. */
static int64_t hbr_walk(
    int64_t R, int64_t x0, int64_t limit,
    const int64_t *nb_idx, const int64_t *nb_ok, const int64_t *opp,
    const int64_t *mem, const int64_t *rd, const int64_t *queue_alloc,
    const int64_t *arb_ptr, const int64_t *occ, int64_t *restrict wires,
    uint64_t *restrict settled, int64_t *evals)
{
    int64_t *wfwd = wires, *wroom = wires + R * P;
    uint64_t unst[W], sett[W];
    int64_t pointer = wires[2 * R * P], deltas = 0, n = 0;
    for (int64_t w = 0; w < W; w++) {
        unst[w] = w < W - 1 || !(R & 63) ? ~(uint64_t)0 : BIT(R & 63) - 1;
        sett[w] = bits_at(settled, x0 + (w << 6));
    }
    for (;;) {
        const int64_t s = pointer + 1 < R ? pointer + 1 : 0;
        const uint64_t above = ~(uint64_t)0 << (s & 63);
        int64_t u = -1;
        for (int64_t k = 0, w = WORD(s); k <= W; k++, w = w + 1 < W ? w + 1 : 0) {
            const uint64_t m =
                unst[w] & (k == 0 ? above : k == W ? ~above : ~(uint64_t)0);
            const uint64_t open = m & ~sett[w];
            const uint64_t run = open ? m & ((open & -open) - 1) : m;
            if (run) {
                deltas += __builtin_popcountll(run);
                unst[w] &= ~run;
                pointer = (w << 6) + 63 - __builtin_clzll(run);
            }
            if (open) {
                u = (w << 6) + CTZ(open);
                break;
            }
        }
        if (deltas + (u >= 0) > limit)
            return -1;
        if (u < 0)
            break;
        deltas++;
        n++;
        pointer = u;
        /* evaluate unit u: settled from here on, stable once its
         * writes are done */
        const int64_t x = x0 + u;
        const int64_t *o = occ + O_WORDS * x;
        int64_t fwd[P] = {0};
        uint64_t ready = (uint64_t)(o[O_NE] & o[O_QAM]), ports = 0;
        sett[WORD(u)] |= BIT(u & 63);
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
            const int64_t v = nb_idx[k];
            const int64_t room =
                (int64_t)(~(uint64_t)o[O_FULL] >> (p * V)) & VMASK;
            const uint64_t fwd_new = wfwd[k] != fwd[p], room_new = wroom[k] != room;
            wfwd[k] = fwd[p];
            wroom[k] = room;
            /* a changed wire un-stabilises its reader, a changed room wire
             * unsettles it */
            unst[WORD(v)] |= (fwd_new | room_new) << (v & 63);
            sett[WORD(v)] &= ~(room_new << (v & 63));
        }
        unst[WORD(u)] &= ~BIT(u & 63);
    }
    for (int64_t w = 0; w < W; w++)
        bits_put(settled, x0 + (w << 6), w < W - 1 ? 64 : R - (w << 6), sett[w]);
    wires[2 * R * P] = pointer;
    *evals += n;
    return deltas;
}
#endif

/* Every pointer parameter is `restrict`: no two of the arrays overlap
 * (CompiledBatchLevel._rebind refuses any that do), so a store to one
 * does not force the others to be reloaded. */
${signature}
{
    const int64_t BR = B * R;
    /* Row buffers, one row per column.  Staged stimuli queues (q) and
     * their entries (e); injection and ejection events (sent, ej) as
     * packed words, one segment per lane, so Python logs a call's
     * events as one block without touching a single event. */
    const int64_t *q_lane = q, *q_router = q + q_cap, *q_vc = q + 2 * q_cap;
    const int64_t *q_end = q + 3 * q_cap;
    int64_t *q_head = q + 4 * q_cap, *q_stall = q + 5 * q_cap;
    int64_t *q_touched = q + 6 * q_cap;
    /* q_due: the generation timestamp of each queue's head entry
     * (never, once the queue is exhausted) — the one word the pump
     * reads of a queue that has nothing to offer this cycle */
    int64_t *q_due = q + 8 * q_cap;
    /* (rows 9-11: lane order's copy of rows 4-6, keep_lanes) */
    const int64_t *e_word = e, *e_cycle = e + e_cap;
    int64_t *sent_w0 = ev_sent, *sent_word = ev_sent + sent_cap;
    int64_t *ej_w0 = ev_ej, *ej_word = ev_ej + ej_cap;
    int64_t *n_sent = lane_n, *n_ej = lane_n + B;
    /* Per-lane words: flits buffered, injection registers valid, eject
     * flags latched, the cycle's activity, where the lane's event
     * segments start, where its share of each work list ends, the
     * staged queues that still hold an entry for the pump; then where
     * each lane's staged queues start (q is lane-major), B + 1 words. */
    int64_t *buffered = lane, *injc = lane + B, *latched = lane + 2 * B;
    int64_t *act = lane + 3 * B, *sent_at = lane + 4 * B;
    int64_t *ej_at = lane + 5 * B, *pop_end = lane + 6 * B;
    int64_t *push_end = lane + 7 * B, *inj_end = lane + 8 * B;
    int64_t *loc_end = lane + 9 * B, *staged = lane + 10 * B;
    int64_t *q_at = lane + 11 * B;
    /* Behind the occupancy words: per lane, the routers whose eject
     * flag is latched (cleared from this list, not by a sweep). */
    int64_t *ejl = occ + O_WORDS * BR;
    /* The cycle's work lists: pops (flat queue, flat output port, queue
     * depth), pushes (flat queue, flit word, queue depth), allocations
     * (flat queue, output VC), stimuli interfaces with a valid register
     * (flat router, granted VC or -1), local-output grants (flat
     * router, link word: the ejections); lane order's snapshot of the
     * state arrays; then one lane's busy routers. */
    int64_t *pop_q = work, *pop_p = pop_q + BR * P, *pop_d = pop_p + BR * P;
    int64_t *push_q = pop_d + BR * P, *push_w = push_q + BR * P;
    int64_t *push_d = push_w + BR * P;
    int64_t *alloc_q = push_d + BR * P, *alloc_o = alloc_q + BR * NQ;
    int64_t *inj_x = alloc_o + BR * NQ, *inj_ch = inj_x + BR;
    int64_t *loc_x = inj_ch + BR, *loc_w = loc_x + BR;
    int64_t *keep = loc_w + BR, *busy = keep + BR * KEEP;
    int64_t *const state[] = {mem, rd, wr, count, alloc, queue_alloc,
                              arb_ptr, alloc_ptr, inj_word, inj_valid,
                              rr_ptr, delay, eject_word, eject_valid, stalled};
#if HBR
    /* the pass's scratch: the settled units (a bit per flat router, and
     * a spare word); units it evaluated */
    const int64_t S = ((BR + 63) >> 6) + 1;
    uint64_t *settled = (uint64_t *)(busy + R);
    int64_t hbr_evals = 0;
#else
    (void)wires;
    (void)deltas;
#endif
    int64_t ret = 0, t = 0, evals = 0, stepped = 0, replays = 0;
    int64_t L0, L1, i0, i1; /* the lane range and its staged queues */
    /* Lane order: lanes share no state, so a traffic window runs as one
     * lane range [b, b + 1) after another, each lane's state in L1 for
     * the whole window; an idle lane jumps to its own next arrival.
     * Before a lane runs, its state is copied to `keep`.  An error on
     * any lane restores every lane run so far and replays the call in
     * cycle order, one range [0, B): across lanes only that order ranks
     * errors and stops at the failing cycle.  A drain (its return needs
     * every lane), a one-cycle call (no window to keep in L1) and the
     * HBR body (its wire plane is not kept) run in cycle order. */
    int64_t solo = !HBR && !done && B > 1 && n_cycles > 1;

entry:
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
    memset(settled, 0, (size_t)S * sizeof(uint64_t));
#endif
    /* Event segments: a lane injects at most its valid registers plus
     * its staged entries, ejects at most that plus what it has
     * buffered, and either at most once per router per cycle. */
    for (int64_t i = 0; i < NQS; i++) {
        sent_at[q_lane[i]] += q_end[i] - q_head[i];
        staged[q_lane[i]] += q_head[i] < q_end[i];
        q_due[i] = q_head[i] < q_end[i] ? e_cycle[q_head[i]] : INT64_MAX;
    }
    for (int64_t b = 0, i = 0; b <= B; b++) {
        while (i < NQS && q_lane[i] < b)
            i++;
        q_at[b] = i;
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

    /* ---- one lane range: lane order's [b, b + 1), else [0, B) ---- */
    L0 = 0;
range:
    L1 = solo ? L0 + 1 : B;
    if (solo && L0) { /* a lane's events follow the previous lane's */
        sent_at[L0] = sent_at[L0 - 1] + n_sent[L0 - 1];
        ej_at[L0] = ej_at[L0 - 1] + n_ej[L0 - 1];
    }
    i0 = q_at[L0];
    i1 = q_at[L1];
    if (solo)
        keep_lanes(state, keep, BR, R, L0, L1, q, q_cap, q_at, 1);
    for (t = 0; t < n_cycles; t++) {
        const int64_t ac = base_cycle + t;

        /* ---- run to quiescence (a drain call hands in `done`, -1 per
         * lane still open): a lane is done at the first cycle at whose
         * top it has no staged entry left, nothing buffered and no
         * valid injection register; return once every lane has been.
         * A latched eject flag holds nothing back. ---- */
        if (done) {
            int64_t open = 0;
            for (int64_t b = L0; b < L1; b++) {
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
        for (int64_t i = i0; i < i1; i++) {
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
                    goto stop;
                }
            }
        }

        /* ---- lane activity: a lane with nothing buffered, nothing
         * pending in the injection registers and no latched ejection
         * flag is provably unchanged by a step — skip it. ---- */
        int64_t any_active = 0;
        for (int64_t b = L0; b < L1; b++) {
            act[b] = (buffered[b] | injc[b] | latched[b]) != 0;
            any_active |= act[b];
        }
        if (!any_active) {
            /* Idle range (lane, or fabric): jump to its next staged
             * arrival (the Python wrapper still credits the skipped
             * cycles' delta accounting, so this is pure evaluation
             * elision). */
            int64_t next = base_cycle + n_cycles;
            for (int64_t i = i0; i < i1; i++)
                if (q_due[i] < next)
                    next = q_due[i];
            if (next <= ac)
                next = ac + 1;
            t += next - ac - 1;
            continue;
        }

        /* ---- pass 1: pure evaluation of every router that holds a
         * flit or a valid injection register.  A lane's error is the one
         * its golden network raises: the first router's, and in it the
         * first queue of the allocation scan's rotating order.  Across
         * lanes the lowest lane's route error outranks the lowest
         * lane's GT error. ---- */
        int64_t n_pop = 0, n_push = 0, n_alloc = 0, n_inj = 0, n_loc = 0;
        int64_t route_err = 0, route_data = 0;
        int64_t gt_err = 0, gt_r = 0, gt_vc = 0;
        int64_t cycle_evals = 0, cycle_lanes = 0;
        for (int64_t b = L0; b < L1; b++) {
            if (!act[b])
                continue;
            cycle_lanes++;
            const int64_t sc = b * R;
#if HBR
            deltas[b * n_cycles + t] = hbr_walk(
                R, sc, ${MAX_DELTA_FACTOR} * R, nb_idx, nb_ok, opp, mem, rd,
                queue_alloc, arb_ptr, occ, wires + b * (2 * R * P + 1),
                settled, &hbr_evals);
            if (deltas[b * n_cycles + t] < 0) {
                err[0] = 6;
                err[1] = b;
                ret = 6;
                goto stop;
            }
#endif
            int64_t lane_err = 0, lane_r = 0, lane_pos = 0;
            int64_t lane_data = 0, lane_vc = 0;
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
                /* the scan starts one past the rotating-priority pointer */
                int64_t s = alloc_ptr[x] + 1;
                if (s >= NQ)
                    s -= NQ;
                if (s < 0)
                    s += NQ;
                /* candidate decode + validation in ascending queue order;
                 * an error keeps its position in the scan's order */
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
                    if (op < 0 || (((data >> 8) & 1) && !((GT_MASK >> in_vc) & 1))) {
                        const int64_t pos = q >= s ? q - s : q - s + NQ;
                        if (!lane_err || (lane_r == r && pos < lane_pos)) {
                            lane_err = op < 0 ? 1 : 2;
                            lane_r = r;
                            lane_pos = pos;
                            lane_data = data;
                            lane_vc = in_vc;
                        }
                        continue;
                    }
                    candmask |= BIT(q);
                    cand_op[q] = op;
                    cand_gt[q] = (data >> 8) & 1;
                }
                if (!candmask)
                    continue;
                /* rotate the candidate mask to start at s, then walk set
                 * bits — identical visit order to the off = 1..NQ
                 * modular scan. */
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
            if (lane_err == 1 && !route_err) {
                route_err = 1;
                route_data = lane_data;
            }
            if (lane_err == 2 && !gt_err) {
                gt_err = 1;
                gt_r = lane_r;
                gt_vc = lane_vc;
            }
        }
        if (route_err) {
            err[0] = 1;
            err[1] = route_data;
            ret = 1;
            goto stop;
        }
        if (gt_err) {
            err[0] = 2;
            err[1] = gt_r;
            err[2] = gt_vc;
            ret = 2;
            goto stop;
        }

        /* ---- pass 2: registered commit, list by list: every pop,
         * the overflow check of every push, every push, every
         * allocation; then per lane the stimuli interfaces and the
         * ejections, which emit the events.  A pop clears its queue's
         * non-empty bit and a push sets its full bit by mask arithmetic
         * on the new count: at the usual depth of 2 either test is a
         * coin flip, too dear as a branch. ---- */
        for (int64_t i = 0; i < n_pop; i++) {
            const int64_t xq = pop_q[i], x = xq / NQ, q = xq - x * NQ;
            const int64_t word = mem[xq * DMAX + rd[xq]];
            int64_t *o = occ + O_WORDS * x;
            rd[xq] = rd[xq] + 1 == pop_d[i] ? 0 : rd[xq] + 1;
            arb_ptr[pop_p[i]] = q;
            o[O_NE] &= ~((int64_t)(--count[xq] == 0) << q);
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
                goto stop;
            }
        for (int64_t i = 0; i < n_push; i++) {
            const int64_t xq = push_q[i], x = xq / NQ, q = xq - x * NQ;
            int64_t *o = occ + O_WORDS * x;
            mem[xq * DMAX + wr[xq]] = push_w[i];
            wr[xq] = wr[xq] + 1 == push_d[i] ? 0 : wr[xq] + 1;
            o[O_NE] |= (int64_t)BIT(q);
            o[O_FULL] |= (int64_t)(++count[xq] >= push_d[i]) << q;
        }
        for (int64_t i = 0; i < n_alloc; i++) {
            const int64_t xq = alloc_q[i], x = xq / NQ, q = xq - x * NQ;
            alloc[x * NQ + alloc_o[i]] = q;
            queue_alloc[xq] = alloc_o[i];
            occ[O_WORDS * x + O_QAM] |= (int64_t)BIT(q);
            alloc_ptr[x] = q; /* a router's last decision parks the pointer */
        }
#if HBR
        /* the routers whose units see a change: every router the commit
         * popped or allocated, and one it pushed into where the push
         * filled the queue (its room word) or landed in an empty
         * allocated queue (its ready set) — any other push changes
         * nothing its unit reads.  Their units must be evaluated again. */
        for (int64_t i = 0; i < n_pop; i++)
            unsettle(settled, pop_q[i] / NQ);
        for (int64_t i = 0; i < n_push; i++) {
            const int64_t xq = push_q[i], c = count[xq];
            if (c >= push_d[i] || (c == 1 && queue_alloc[xq] >= 0))
                unsettle(settled, xq / NQ);
        }
        for (int64_t i = 0; i < n_alloc; i++)
            unsettle(settled, alloc_q[i] / NQ);
#endif
        int64_t pops = 0, pushes = 0, ij = 0, lo = 0;
        for (int64_t b = L0; b < L1; b++) {
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
                    const int64_t w0 = (ac << EV_CYCLE) | ((x - sc) << EV_ROUTER)
                                       | (v << EV_VC);
                    sent_w0[k] = w0 | delay[i];
                    sent_word[k] = inj_word[i];
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
                ej_w0[k] = (ac << EV_CYCLE) | ((x - sc) << EV_ROUTER)
                           | ((word >> VC_SHIFT) << EV_VC);
                ej_word[k] = word & FLIT_MASK;
                eject_word[x] = word;
                eject_valid[x] = 1;
                ejl[sc + latched[b]++] = x - sc;
            }
        }
        evals += cycle_evals;
        stepped += cycle_lanes;
    }
    if (L1 < B) {
        L0 = L1;
        goto range;
    }
stop:
    if (ret && solo) { /* restore the lanes run, replay in cycle order */
        keep_lanes(state, keep, BR, R, 0, L1, q, q_cap, q_at, 0);
        solo = evals = stepped = ret = 0;
        replays = 1;
        goto entry;
    }
done:
    pack_lanes(ev_sent, sent_cap, B, sent_at, n_sent);
    pack_lanes(ev_ej, ej_cap, B, ej_at, n_ej);
    /* cycles completed; over them, routers evaluated and lanes stepped;
     * whether the call replayed in cycle order; of an HBR body, the units
     * its pass evaluated */
    counts[0] = t;
    counts[1] = evals;
    counts[2] = stepped;
    counts[3] = replays;
#if HBR
    counts[4] = hbr_evals;
#endif
    return ret;
}
${fabric}"""
)

#: the chunk body's parameters, ``(declaration, name)`` in order.
_PARAMS = [
    (decl, decl.split()[-1].lstrip("*"))
    for decl in map(str.strip, _SIGNATURE[_SIGNATURE.index("(") + 1 : _SIGNATURE.rindex(")")].split(","))
]

_FABRIC_POST = (
    f"void repro_fabric_post(int64_t *fabric, {', '.join(decl for decl, _ in _PARAMS)})"
)

_FABRIC_SIGNATURE = f"""
int64_t repro_fabric_words(void);
int64_t repro_fabric_open(int64_t *fabric);
{_FABRIC_POST};
int64_t repro_fabric_wait(int64_t *fabric);
void repro_fabric_close(int64_t *fabric);
"""

#: the fabric thread: ``repro_level_chunk`` calls beside the caller.
_FABRIC = _fill(
    """
/* ---- the fabric thread: the paper's FPGA beside its ARM ----
 * repro_fabric_open starts a thread that runs the repro_level_chunk
 * calls posted to it, one at a time, until repro_fabric_close.
 * repro_fabric_post hands it a call and returns at once;
 * repro_fabric_wait returns the call's code once it is done.  The
 * record is caller memory, repro_fabric_words() zeroed int64 words: the
 * last call's code, the thread's wall and CPU nanoseconds on it and the
 * CPU it started on first, then the CPU the opener ran on, the thread's
 * native id, the hand-over state, its lock, the thread and the call's
 * arguments.  Either side first looks for the other for a while,
 * yielding its CPU in between (a fabric between two windows idles for
 * a few hundred microseconds), then sleeps on the condition variable.
 * Until the wait returns, the call owns everything its arguments point
 * at.
 *
 * The thread leaves the opener's CPU: before its first call it drops
 * that CPU from its own affinity mask where another stays allowed, so
 * the caller and the fabric do not take turns on one core.  The
 * caller's mask is not touched; a one-CPU mask stays as it is.  Off
 * Linux the CPUs and the id read -1. */
enum { F_IDLE, F_POSTED, F_DONE, F_QUIT };
#define F_LOOK_NS 1000000

struct fabric {
    int64_t ret, wall_ns, cpu_ns, on_cpu, opener_cpu, tid, state;
    pthread_mutex_t lock;
    pthread_cond_t cond;
    pthread_t thread;
${fields}
};

static int64_t clock_ns(clockid_t clock)
{
    struct timespec now;
    clock_gettime(clock, &now);
    return (int64_t)now.tv_sec * 1000000000 + now.tv_nsec;
}

/* The hand-over state once it is one of `states` (a bit each). */
static int64_t await_state(struct fabric *f, int64_t states)
{
    int64_t now = __atomic_load_n(&f->state, __ATOMIC_ACQUIRE);
    for (const int64_t since = clock_ns(CLOCK_MONOTONIC); !((states >> now) & 1)
         && clock_ns(CLOCK_MONOTONIC) - since < F_LOOK_NS;) {
        sched_yield();
        now = __atomic_load_n(&f->state, __ATOMIC_ACQUIRE);
    }
    if ((states >> now) & 1)
        return now;
    pthread_mutex_lock(&f->lock);
    while (!((states >> (now = __atomic_load_n(&f->state, __ATOMIC_ACQUIRE))) & 1))
        pthread_cond_wait(&f->cond, &f->lock);
    pthread_mutex_unlock(&f->lock);
    return now;
}

static void set_state(struct fabric *f, int64_t state)
{
    pthread_mutex_lock(&f->lock);
    __atomic_store_n(&f->state, state, __ATOMIC_RELEASE);
    pthread_cond_broadcast(&f->cond);
    pthread_mutex_unlock(&f->lock);
}

/* The CPU the calling thread runs on, -1 where unknown. */
static int64_t this_cpu(void)
{
#ifdef __linux__
    return sched_getcpu();
#else
    return -1;
#endif
}

static void *fabric_main(void *record)
{
    struct fabric *f = record;
#ifdef __linux__
    f->tid = syscall(SYS_gettid);
    cpu_set_t allowed;
    if (f->opener_cpu >= 0 && f->opener_cpu < CPU_SETSIZE
        && !pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed)
        && CPU_ISSET(f->opener_cpu, &allowed) && CPU_COUNT(&allowed) > 1) {
        CPU_CLR(f->opener_cpu, &allowed);
        pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
    }
#endif
    while (await_state(f, (1 << F_POSTED) | (1 << F_QUIT)) == F_POSTED) {
        f->on_cpu = this_cpu();
        const int64_t wall = clock_ns(CLOCK_MONOTONIC);
        const int64_t cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        f->ret = repro_level_chunk(${args});
        f->cpu_ns = clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu;
        f->wall_ns = clock_ns(CLOCK_MONOTONIC) - wall;
        set_state(f, F_DONE);
    }
    return NULL;
}

int64_t repro_fabric_words(void)
{
    return (int64_t)((sizeof(struct fabric) + sizeof(int64_t) - 1) / sizeof(int64_t));
}

int64_t repro_fabric_open(int64_t *fabric)
{
    struct fabric *f = (struct fabric *)fabric;
    f->state = F_IDLE;
    f->on_cpu = f->tid = -1;
    f->opener_cpu = this_cpu();
    pthread_mutex_init(&f->lock, NULL);
    pthread_cond_init(&f->cond, NULL);
    const int failed = pthread_create(&f->thread, NULL, fabric_main, f);
    if (failed) {
        pthread_cond_destroy(&f->cond);
        pthread_mutex_destroy(&f->lock);
    }
    return failed;
}

${post}
{
    struct fabric *f = (struct fabric *)fabric;
${stores}
    set_state(f, F_POSTED);
}

int64_t repro_fabric_wait(int64_t *fabric)
{
    struct fabric *f = (struct fabric *)fabric;
    await_state(f, 1 << F_DONE);
    return f->ret;
}

void repro_fabric_close(int64_t *fabric)
{
    struct fabric *f = (struct fabric *)fabric;
    set_state(f, F_QUIT);
    pthread_join(f->thread, NULL);
    pthread_cond_destroy(&f->cond);
    pthread_mutex_destroy(&f->lock);
}
""",
    fields="\n".join(f"    {decl};" for decl, _ in _PARAMS),
    args=", ".join(f"f->{name}" for _, name in _PARAMS),
    post=_FABRIC_POST,
    stores="\n".join(f"    f->{name} = {name};" for _, name in _PARAMS),
)

#: the bodies whose fabric thread is running (the test suite's leak
#: check reads them through the two functions below).
_OPEN: set = set()


def jobs_in_flight() -> int:
    """How many chunk-body calls run on a fabric thread right now."""
    return sum(body._in_flight is not None for body in _OPEN)


def fabric_threads() -> int:
    """How many fabric threads are running."""
    return len(_OPEN)


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


#: the store fields :meth:`CompiledBatchLevel._rebind` binds by identity
_BOUND = (*_STATE_FIELDS, "depth")


def generate_level_source(spec, layout) -> str:
    """The specialized C translation unit for ``spec``, writing events
    in ``layout``'s packed words."""
    return _fill(
        _TEMPLATE,
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
        HBR=int(spec.hbr > 0),
        W=int(spec.hbr),
        EV_VC=layout.shifts[0],
        EV_ROUTER=layout.shifts[1],
        EV_CYCLE=layout.shifts[2],
        MAX_DELTA_FACTOR=ConvergenceWatchdog.DEFAULT_FACTOR,
        signature=_SIGNATURE.strip().replace("*", "*restrict "),
        fabric=_FABRIC,
    )


#: rows of the grow-only call buffers (see the kernel's unpacking; the
#: staging kernel keeps each queue's store slot in an eighth ``q`` row
#: and each entry's packet sequence number in a third ``e`` row; the
#: last four ``q`` rows are the chunk kernel's own; ``deltas`` is the
#: HBR pass's count per cycle, lane-major).
_BUFFER_ROWS = {"q": 12, "e": 3, "deltas": 1}


class CompiledBatchLevel:
    """The generated execution body bound to one batch engine."""

    def __init__(self, engine) -> None:
        from repro.kernels import cbackend

        self.engine = engine
        if engine._NQ > 63:
            raise KernelUnavailableError(
                "compiled allocation scan supports at most 63 queues "
                f"per router (got {engine._NQ})"
            )
        spec = cbackend.KernelSpec.from_engine(engine)
        #: the packed words of the events the body writes
        self.layout = engine.cfg.router.event_layout
        source = generate_level_source(spec, self.layout)
        self._lib, self._ffi = cbackend.load_source(
            source, _SIGNATURE.strip() + ";" + _FABRIC_SIGNATURE
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
        keep = (spec.depth_max + 5) * NQ + P + 5 + 3 * V  # the kernel's KEEP
        scratch = {
            # call scratch, rows as the kernel unpacks them: eleven words
            # per lane and the lanes' queue starts; four occupancy words
            # per (lane, router) plus the latched-eject list; the cycle's
            # work lists, lane order's state snapshot, one lane's busy
            # routers and the HBR pass's settled mask (a bit per flat
            # router, and a spare word)
            "lane": 12 * B + 1,
            "occ": 5 * B * R,
            "work": (6 * P + 2 * NQ + 4 + keep) * B * R + R + (B * R + 63) // 64 + 1,
            # out: events per lane (injections, then ejections); cycles
            # completed, routers evaluated, lane-cycles stepped, replays,
            # units the HBR pass evaluated; of a drain, the cycle each
            # lane was done at
            "lane_n": 2 * B,
            "counts": 5,
            "err": 6,
            "done": B,
            # staging: per store slot, the window queue behind it; per
            # lane, keys registered before and entries staged, + total
            # and the lanes whose arena is too small for theirs
            "fresh": max(2, R * V),
            "marks": 2 * B + 2,
            # the fabric thread's record
            "fabric": self._lib.repro_fabric_words(),
        }
        self._scratch = {
            name: np.zeros(size, dtype=np.int64)
            for name, size in scratch.items()
        }
        self._bound: dict = {}
        self._ptrs: dict = {}
        #: ``repro_level_chunk``'s arguments as a list, the per-call words
        #: patched in (:meth:`_args`); ``None`` once a pointer moved
        self._template: Optional[list] = None
        #: the drivers' stores as :meth:`stage` names them: their
        #: addresses, and the ``[3, lanes]`` table of them; the keys of
        #: a store's table
        self._addresses: list = []
        self._stores = np.zeros((3, 0), dtype=np.int64)
        self._n_keys = max(2, R * V)
        #: the cycles a packed event holds
        self._cycles = 1 << self.layout.fields["cycle"].width
        #: what a call may inject besides its staged entries (every valid
        #: injection register), and eject (those, and every buffered flit)
        self._held = B * R * V, B * R * (V + NQ * spec.depth_max)
        #: the call on this body's fabric thread, if one is
        self._in_flight: Optional["FabricJob"] = None
        #: ``(lib, ffi)`` of the stimuli kernel: staging and carry-over.
        from repro.kernels.trafficgen import stimuli_kernel

        self._stimuli = stimuli_kernel()
        for name, arr in self._tables.items():
            self._ptrs[name] = self._ptr(arr)
        for name, arr in self._scratch.items():
            self._ptrs[name] = self._ptr(arr)
        #: grow-only ``[rows, capacity]`` call buffers: staged queues and
        #: entries in.  A single cycle emits at most one injection and
        #: one ejection per (lane, router), so this floor serves ``step``
        #: as is.
        self._buffers: dict = {}
        for name in _BUFFER_ROWS:
            self._rows(name, B * R * V)
        #: event buffers no call holds: a call takes a pair and gives it
        #: back once its events are logged, so a landed call's events
        #: stay put while the next call fills another pair.
        self._event_pool: list = []
        self._rebind()

    def _ptr(self, arr):
        if arr.dtype != np.int64 or not arr.flags["C_CONTIGUOUS"]:
            raise KernelUnavailableError(
                "kernel binding needs C-contiguous int64 arrays "
                f"(got {arr.dtype}, contiguous={arr.flags['C_CONTIGUOUS']})"
            )
        return self._ffi.from_buffer("int64_t[]", arr)

    def _rows(self, name: str, need: int) -> np.ndarray:
        """Call buffer ``name`` with room for ``need`` columns (contents
        do not survive growth; every call refills what it reads)."""
        buf = self._buffers.get(name)
        if buf is None or buf.shape[1] < need:
            cap = need if buf is None else max(need, 2 * buf.shape[1])
            buf = np.zeros((_BUFFER_ROWS[name], cap), dtype=np.int64)
            self._buffers[name] = buf
            self._ptrs[name] = self._ptr(buf)
            self._template = None
        return buf

    def _events(self, sent: int, ejected: int) -> dict:
        """A free pair of event buffers with room for ``sent`` injection
        and ``ejected`` ejection events (grow-only, like the call
        buffers; ``events[name, "ptr"]`` is a buffer's pointer)."""
        pool = self._event_pool
        events = pool.pop() if pool else {}
        for name, need in (("sent", sent), ("ej", ejected)):
            buf = events.get(name)
            if buf is None or buf.shape[1] < need:
                cap = need if buf is None else max(need, 2 * buf.shape[1])
                events[name] = buf = np.empty((2, cap), dtype=np.int64)
                events[name, "ptr"] = self._ptr(buf)
        return events

    def _rebind(self) -> None:
        engine = self.engine
        state = engine.state
        bound = {name: getattr(state, name) for name in _STATE_FIELDS}
        bound["depth"] = state.depth
        # The routing table is re-packed (new object) on quarantine, and
        # never mutated in place, so a private contiguous copy is safe.
        bound["route"] = np.ascontiguousarray(engine._route, dtype=np.int64)
        # The body's pointer parameters are `restrict`: no two arrays it
        # is handed may overlap, or the compiled code is undefined.
        # (Each is contiguous, or binding it refuses: its bytes are one
        # range, and one sort of the ranges finds any two that overlap.)
        arrays = {**bound, **self._tables, **self._scratch, "wires": state.wires}
        named = [(name, arr) for name, arr in arrays.items() if arr is not None and arr.nbytes]
        end, last = 0, None
        for start, i in sorted((arr.ctypes.data, i) for i, (_, arr) in enumerate(named)):
            if start < end:
                first, then = sorted((last, i))
                raise KernelUnavailableError(
                    f"the chunk body's arrays {named[first][0]} and {named[then][0]} share memory"
                )
            if start + named[i][1].nbytes > end:
                end, last = start + named[i][1].nbytes, i
        #: the HBR wire plane (NULL: the pass is off, accounting nominal)
        self._ptrs["wires"] = (
            self._ffi.NULL if state.wires is None else self._ptr(state.wires)
        )
        bound["route_src"] = engine._route
        self._bound = bound
        for name in (*_STATE_FIELDS, "depth", "route"):
            self._ptrs[name] = self._ptr(bound[name])
        self._template = None

    def _stale(self) -> bool:
        engine, bound = self.engine, self._bound
        if engine._route is not bound["route_src"]:
            return True
        state = vars(engine.state)
        return any(map(is_not, map(state.get, _BOUND), map(bound.get, _BOUND)))

    # -- execution ----------------------------------------------------------
    def _args(self, n_cycles, stall_limit, n_queues, events, done=None) -> tuple:
        """``repro_level_chunk``'s arguments: run every lane for
        ``n_cycles`` from the engine's current cycle — with a ``done``
        column, until every lane has drained — its events into the
        ``events`` pair."""
        engine = self.engine
        if engine.state.wires is not None:
            self._rows("deltas", engine.lanes * n_cycles)
        args = self._template
        if args is None:
            p, buffers = self._ptrs, self._buffers
            args = self._template = [
                engine.lanes, engine.cfg.n_routers, 0, 0, 0, 0,
                p["depth"], p["nb_idx"], p["nb_ok"], p["opp"], p["route"], p["be_cand"],
                *[p[name] for name in _STATE_FIELDS],
                p["q"], buffers["q"].shape[1], p["e"], buffers["e"].shape[1],
                p["lane"], p["occ"], p["work"],
                None, 0, None, 0,  # the event buffers
                p["lane_n"], p["counts"], p["err"], p["wires"], p["deltas"], None,
            ]
        args[2:6] = n_cycles, engine.cycle, stall_limit, n_queues
        at = 19 + len(_STATE_FIELDS)  # the event buffers' place
        args[at : at + 4] = (
            events["sent", "ptr"], events["sent"].shape[1],
            events["ej", "ptr"], events["ej"].shape[1],
        )
        args[-1] = self._ffi.NULL if done is None else done
        return tuple(args)

    def _collect(self) -> Tuple[int, np.ndarray]:
        """The last call's completed cycles and its events per lane —
        ``[2, lanes]``: injections, ejections — with its activity booked."""
        engine = self.engine
        completed, evals, lane_cycles, replays, hbr_evals = self._scratch["counts"].tolist()
        engine.kernel_router_evals += evals
        engine.kernel_hbr_evals += hbr_evals
        engine.kernel_lane_cycles += lane_cycles
        engine.kernel_replays += replays
        return completed, self._scratch["lane_n"][: 2 * engine.lanes].reshape(2, -1).copy()

    def _log(self, counts, events) -> None:
        """Hand a call's events — grouped by lane by the kernel, ``counts``
        a lane — to the engine's two logs, one block each, no record
        object built; the pair is free again."""
        for log, name, n in zip(self.engine.event_logs, ("sent", "ej"), counts):
            log.append(events[name], n)
        self._event_pool.append(events)

    def delta_column(self, cycles: int) -> Optional[np.ndarray]:
        """The HBR pass's delta count for each of the last call's first
        ``cycles`` cycles (its first lane's; a view, valid until the next
        call) — ``None`` while the pass is off and the engine's
        accounting nominal."""
        if self.engine.state.wires is None:
            return None
        return self._buffers["deltas"][0, :cycles]

    def step(self) -> None:
        """Advance every lane one cycle (events logged, errors raised)."""
        # a packed event never wraps: the call's last cycle must fit
        self.layout.check("cycle", self.engine.cycle)
        if self._stale():
            self._rebind()
        most = self.engine.lanes * self.engine.cfg.n_routers
        events = self._events(most, most)
        start = time.perf_counter()
        ret = self._lib.repro_level_chunk(*self._args(1, 0, 0, events))
        self.engine.kernel_seconds += time.perf_counter() - start
        self._log(self._collect()[1], events)
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
        lanes = len(drivers)
        addresses = [driver.queues._address for driver in drivers]
        if addresses != self._addresses:  # other stores, or a new arena
            self._addresses = addresses
            self._stores = np.array(addresses, dtype=np.int64).T.copy()
            self._ptrs["stores"] = self._ptr(self._stores)
        n_fresh = 0 if window is None else window.queues.shape[1]
        if n_fresh:
            fresh = window.flits.shape[1]
            table, flits = self._ptr(window.queues), self._ptr(window.flits)
        else:
            fresh, table, flits = 0, self._ptrs["fresh"], self._ptrs["fresh"]
        while True:  # (a short `e` is grown: the call touched nothing)
            n_queues = lib.repro_stage(
                lanes, self._n_keys, self.engine._V, self._ptrs["stores"],
                n_fresh, table, flits, fresh,
                self._ptrs["q"], self._buffers["q"].shape[1],
                self._ptrs["e"], self._buffers["e"].shape[1],
                self._ptrs["fresh"], self._ptrs["marks"],
            )
            if n_queues >= 0:
                return self._stores, n_queues, int(self._scratch["marks"][2 * lanes])
            self._rows("e", -n_queues)

    def prepare(self, drivers: Sequence, n_cycles: int, window=None, done=None) -> "FabricJob":
        """Stage one call of at most ``n_cycles`` — the drivers' backlog,
        then ``window``'s flits — and size its event buffers; returns it
        as a :class:`FabricJob`, not yet run.  ``done`` is the drain's
        column (:meth:`drain`)."""
        if self._in_flight is not None:
            raise RuntimeError("the chunk body is still running a job")
        last = self.engine.cycle + n_cycles - 1
        if not 0 <= last < self._cycles:
            self.layout.check("cycle", last)
        if self._stale():
            self._rebind()
        engine = self.engine
        stores, n_queues, n_entries = self.stage(drivers, window)
        # Every staged entry and valid register injects at most once;
        # everything injected or already buffered ejects at most once;
        # a router does either at most once a cycle.  (The kernel splits
        # the same bounds by lane, and checks them against the buffers.)
        most = engine.lanes * engine.cfg.n_routers * n_cycles
        events = self._events(*(min(held + n_entries, most) for held in self._held))
        stall_limit = drivers[0].stall_limit if drivers else 10_000
        args = self._args(n_cycles, stall_limit, n_queues, events, done)
        return FabricJob(self, drivers, window, done, stores, n_queues, events, args)

    def open_fabric(self) -> bool:
        """Start this body's fabric thread unless it runs; ``False`` on a
        host that cannot start one."""
        if self not in _OPEN:
            if self._lib.repro_fabric_open(self._ptrs["fabric"]):
                return False
            _OPEN.add(self)
        return True

    def close_fabric(self) -> None:
        """Stop this body's fabric thread, if it runs (no call may be in
        flight)."""
        if self in _OPEN:
            if self._in_flight is not None:
                raise RuntimeError("the fabric thread is still running a job")
            self._lib.repro_fabric_close(self._ptrs["fabric"])
            _OPEN.discard(self)

    def fabric_placement(self) -> Tuple[int, int]:
        """``(opener's CPU, native id)`` of this body's fabric thread:
        the CPU the thread that opened it ran on, which the fabric thread
        leaves, and its id once a call has returned; -1 where unknown."""
        opener, tid = self._scratch["fabric"][4:6].tolist()
        return opener, tid

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
        self.prepare(drivers, n_cycles, window).run().finish()

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
        wall = time.perf_counter()
        try:
            while left > 0:
                bound = left
                if engine.state.wires is not None:
                    bound = min(left, self._buffers["deltas"].shape[1] // engine.lanes)
                job = self.prepare(drivers, bound, None, self._ptrs["done"]).run()
                job.land()
                job.book()
                engine.kernel_drain_cycles += job.completed
                job.check()
                if job.completed < bound:  # it returned early: every lane was done
                    break
                left -= job.completed
        finally:
            engine.kernel_loop_seconds += time.perf_counter() - wall
        return [at - start if at >= 0 else -1 for at in done.tolist()]

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


class FabricJob:
    """One call of the chunk body, from staging to booking.

    :meth:`CompiledBatchLevel.prepare` stages it; :meth:`run` runs it in
    the caller, :meth:`start` on the body's fabric thread — the paper's
    FPGA simulating while its ARM generates, books and analyses the
    neighbouring windows.  From the start until :meth:`land` returns,
    the call owns the engine's state arrays, the staged ``q``/``e``
    rows, its event buffers and the call scratch: Python reads and
    writes none of them.  :meth:`land` waits for the call, books its
    cycles and hands each queue's unconsumed tail back to its driver,
    after which the next call may be staged; :meth:`book` copies the
    events into the logs (the event buffers are the job's until then)
    and books the window on the drivers; :meth:`check` raises the call's
    architectural error, if it had one.  Landing and booking happen
    once, however often asked.
    """

    def __init__(
        self, body, drivers, window, done, stores, n_queues, events, args
    ) -> None:
        self.body = body
        self.drivers = drivers
        self.window = window
        self.done = done
        self._stores = stores
        self._n_queues = n_queues
        self._events = events
        self._args = args
        #: whether it ran on a fabric thread; the call's code, the cycles
        #: it completed, its wall and CPU seconds (the thread's own) and,
        #: on the fabric thread, the CPU it started on (-1: unknown)
        self.threaded = False
        self.ret: Optional[int] = None
        self.completed = 0
        self.seconds = self.cpu_seconds = 0.0
        self.started_on = -1
        self._counts = None
        self._overload = None
        self._marks = self._err = None
        self._landed = self._booked = False

    def run(self) -> "FabricJob":
        """Run the call in the caller's thread."""
        start, cpu = time.perf_counter(), time.thread_time()
        self.ret = self.body._lib.repro_level_chunk(*self._args)
        self.seconds = time.perf_counter() - start
        self.cpu_seconds = time.thread_time() - cpu
        return self

    def start(self) -> "FabricJob":
        """Hand the call to the body's fabric thread and return; a host
        that cannot start one runs it here instead."""
        body = self.body
        if not body.open_fabric():
            return self.run()
        body._lib.repro_fabric_post(body._ptrs["fabric"], *self._args)
        self.threaded = True
        body._in_flight = self
        return self

    def wait(self) -> int:
        """The call's code, once it has returned."""
        body = self.body
        if body._in_flight is self:
            self.ret = body._lib.repro_fabric_wait(body._ptrs["fabric"])
            body._in_flight = None
            wall, cpu, self.started_on = body._scratch["fabric"][1:4].tolist()
            self.seconds, self.cpu_seconds = wall / 1e9, cpu / 1e9
        return self.ret

    def land(self) -> None:
        """Wait for the call, then take back what it owned: the cycles
        it completed are booked, and the drivers' queues left as their
        own pump would have left them — consumed entries gone, touched
        stall counters updated."""
        ret = self.wait()
        if self._landed:
            return
        self._landed = True
        body, drivers = self.body, self.drivers
        engine = body.engine
        scratch = body._scratch
        lanes = engine.lanes
        self.completed, self._counts = completed, _ = body._collect()
        engine.kernel_seconds += self.seconds
        engine.book_cycles(completed, body.delta_column(completed))
        marks, stores = scratch["marks"], self._stores
        if self._n_queues:
            if marks[2 * lanes + 1]:
                # an arena too small for its lane's staged entries is
                # replaced (all of them are in `e`)
                for lane in np.flatnonzero(marks[lanes : 2 * lanes] > stores[2]).tolist():
                    store = drivers[lane].queues
                    store._use(np.empty((3, 2 * int(marks[lanes + lane])), dtype=np.int64))
                    stores[:, lane] = store.address()
            p, buffers = body._ptrs, body._buffers
            body._stimuli[0].repro_carry(
                lanes, body._n_keys, p["stores"], self._n_queues,
                p["q"], buffers["q"].shape[1], p["e"], buffers["e"].shape[1],
            )
        if ret == 4:
            lane = int(scratch["err"][4])
            drivers[lane].overloaded = True
            self._overload = (engine.cycle, lane)
        if self.done is None:  # a traffic window (a drain is booked as none)
            engine.kernel_windows += 1
            engine.kernel_window_cycles += completed
            if self.window is not None:
                engine.kernel_window_flits += self.window.flits.shape[1]
        if ret:  # what settling an overload and raising the error read
            self._marks = marks[:lanes].copy()
            self._err = scratch["err"].copy()

    def book(self) -> None:
        """Log the call's events and book its window on the drivers
        (:func:`~repro.traffic.stimuli.settle`; an overload rewinds the
        window's source)."""
        if self._booked:
            return
        self._booked = True
        self.body._log(self._counts, self._events)
        window = self.window
        if window is not None and (self._overload or window.packets.shape[1]):
            from repro.traffic.stimuli import settle

            settle(self.drivers, window, self._marks, self._overload)

    def check(self) -> None:
        """Raise the reference path's exception for the call's error."""
        if self.ret:
            self.body._raise(self.ret, self._err)

    def finish(self) -> None:
        """The call's end, in the caller: land, book, check."""
        self.land()
        self.book()
        self.check()
