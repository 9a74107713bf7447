"""The FPGA sequential simulator, instantiated for the NoC.

:class:`SequentialNetwork` is a drop-in replacement for
:class:`repro.noc.Network` whose :meth:`step` advances the system the way
the paper's FPGA does (sections 4.2/5.2):

* the committed ("old") register state of every router+stimuli-interface
  unit lives in a double-banked state memory — optionally as genuinely
  packed 1912-bit words (``packed=True``), exercising the Table-1 layout
  on every access;
* inter-router wires live in a single-banked link memory with HBR bits;
* a round-robin scheduler evaluates non-stable units until the network
  settles, counting delta cycles;
* the banks swap and the system cycle ends.

Results are bit-identical to the golden :meth:`Network.step` — the
equivalence tests drive both in lockstep.

:class:`StaticSequentialNetwork` is the static-schedule ablation: no HBR
machinery, every unit evaluated in a fixed order once per phase
(rooms, forwards, state updates — 3·R delta cycles per system cycle).
It shows why the paper's dynamic schedule is worth its hardware: at low
load the HBR scheme approaches R deltas per cycle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.bits import BitVector, concat
from repro.faults.errors import ConvergenceError, LivelockError
from repro.noc.config import NetworkConfig, Port
from repro.noc.layout import (
    pack_router_core,
    pack_stimuli,
    unpack_router_core,
    unpack_stimuli,
)
from repro.noc.network import Network, StimuliEvents
from repro.noc.router import RouterInputs
from repro.noc.routing import RoutingTable
from repro.seqsim.linkmem import LinkMemory, WireSpec
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.scheduler import ConvergenceWatchdog, WorklistScheduler, make_scheduler
from repro.seqsim.statemem import PackedStateMemory

__all__ = [
    "ConvergenceError",
    "LivelockError",
    "SequentialNetwork",
    "StaticSequentialNetwork",
]


class SequentialNetwork(Network):
    """Dynamic-schedule sequential simulator (the paper's method).

    ``scheduler`` selects the non-stable-unit picker (``"worklist"``,
    the default O(1)-amortised bitmask scan, or ``"roundrobin"``, the
    literal O(n) scan — both emit the identical pick sequence; see
    :mod:`repro.seqsim.scheduler`).  ``optimize`` selects the evaluation
    path: the default fast path memoizes pure per-state values and
    defers next-state computation to commit time (see
    :meth:`_evaluate_unit_fast`); ``optimize=False`` keeps the
    straight-line reference evaluator, which recomputes everything on
    every delta — it exists as the benchmark baseline and as a
    differential-testing foil.  Both paths are bit-identical to the
    golden :meth:`Network.step` and to each other, with identical delta
    counts and link-memory traffic counters.
    """

    #: watchdog bound: deltas per system cycle may never exceed this
    #: multiple of the unit count (the NoC needs < 3x).
    MAX_DELTA_FACTOR = 10

    def __init__(
        self,
        cfg: NetworkConfig,
        routing: Optional[RoutingTable] = None,
        packed: bool = False,
        watchdog_factor: Optional[int] = None,
        scheduler: str = "worklist",
        optimize: bool = True,
    ) -> None:
        super().__init__(cfg, routing)
        self.packed = packed
        rc = cfg.router
        n = cfg.n_routers
        self._sink = (1 << rc.n_vcs) - 1
        self.metrics = DeltaMetrics(n_units=n)
        self.scheduler_name = scheduler
        self.scheduler = make_scheduler(scheduler, n)
        self.optimize = bool(optimize)
        #: one delta cycle of one unit — the entry every pick loop calls.
        self._evaluate = (
            self._evaluate_unit_fast if self.optimize else self._evaluate_unit
        )
        #: the units this simulator evaluates and commits (all of them;
        #: a partition tile narrows it to its own).
        self._units: Sequence[int] = range(n)
        self.watchdog = ConvergenceWatchdog(
            n, watchdog_factor if watchdog_factor is not None else self.MAX_DELTA_FACTOR
        )

        # -- link memory ---------------------------------------------------
        # One wire per :meth:`Topology.wires` entry, its index there the
        # wire id here; per unit and port, the ids of the incoming and
        # outgoing forward and room wires (-1 where the port is unconnected).
        self._in_fwd_wire: List[List[int]] = [[-1] * rc.n_ports for _ in range(n)]
        self._in_room_wire: List[List[int]] = [[-1] * rc.n_ports for _ in range(n)]
        self._out_fwd_wire: List[List[int]] = [[-1] * rc.n_ports for _ in range(n)]
        self._out_room_wire: List[List[int]] = [[-1] * rc.n_ports for _ in range(n)]
        tables = {
            "fwd": (self._out_fwd_wire, self._in_fwd_wire, rc.link_width),
            "room": (self._out_room_wire, self._in_room_wire, rc.n_vcs),
        }
        specs: List[WireSpec] = []
        for wid, wire in enumerate(self.topology.wires()):
            out_wire, in_wire, width = tables[wire.kind]
            specs.append(WireSpec(wire.name, wire.writer, wire.reader, width))
            out_wire[wire.writer][wire.writer_port] = wid
            in_wire[wire.reader][wire.reader_port] = wid
        self.links = LinkMemory(n, specs)
        # Reset-consistent wire values: empty queues offer full room.
        for r in range(n):
            for p in range(1, rc.n_ports):
                w = self._out_room_wire[r][p]
                if w >= 0:
                    self.links.values[w] = self._sink

        # -- hot-path structures (fast evaluation path) --------------------
        # Per-unit flat (port, wire) lists, the -1 sentinels filtered out
        # once, so the inner loops never branch on absent wires.
        self._fwd_reads: List[List[Tuple[int, int]]] = [
            [(p, w) for p, w in enumerate(ws) if w >= 0] for ws in self._in_fwd_wire
        ]
        self._room_reads: List[List[Tuple[int, int]]] = [
            [(p, w) for p, w in enumerate(ws) if w >= 0] for ws in self._in_room_wire
        ]
        #: per-unit (slot, wire) write list over the concatenated output
        #: vector ``fwd_out + rooms``: slot ``p`` is forward port ``p``,
        #: slot ``n_ports + p`` the room mask of input port ``p``.
        self._writes: List[List[Tuple[int, int]]] = [
            [(p, w) for p, w in enumerate(self._out_fwd_wire[r]) if w >= 0]
            + [
                (rc.n_ports + p, w)
                for p, w in enumerate(self._out_room_wire[r])
                if w >= 0
            ]
            for r in range(n)
        ]
        self._n_writes: List[int] = [len(ws) for ws in self._writes]
        #: the output vector of a quiescent unit: idle words, full room.
        self._idle_out: List[int] = [0] * rc.n_ports + [self._sink] * rc.n_ports
        #: flat read-wire ids, for the sig-hit path (HBR-only touch).
        self._read_wids: List[List[int]] = [
            [w for _p, w in self._fwd_reads[r] + self._room_reads[r]]
            for r in range(n)
        ]
        self._n_ports = rc.n_ports
        #: per-wire reader bit for inline destabilisation.
        self._reader_bit: List[int] = [1 << rd for rd in self.links.reader_of]
        #: per-unit mask clearing the unit's own unstable bit.
        self._stable_clear: List[int] = [~(1 << r) for r in range(n)]
        # Identity-keyed memos of pure per-state values.  RouterState
        # objects are never mutated in place by this simulator (the
        # next-state function copies), so `obj is cached_obj` proves the
        # cached value is current.
        self._quiesc_cache: List[Optional[tuple]] = [None] * n
        self._room_cache: List[Optional[tuple]] = [None] * n
        #: (state, room_in, fwd_out, grants) of the last output
        #: computation — outputs are a pure function of those two.
        self._out_cache: List[Optional[tuple]] = [None] * n
        #: per-unit record of the last evaluation this cycle; the commit
        #: computes each unit's next state exactly once from it.
        self._pending: List[Optional[tuple]] = [None] * n
        #: per-unit (change-clock snapshot, record) of the last full
        #: evaluation — the "inputs unchanged since last evaluation"
        #: memo driven by the link-memory change stamps.
        self._eval_sig: List[Optional[tuple]] = [None] * n
        self._fault_free_cycle = True

        # -- state memory ------------------------------------------------------
        self._events: List[Optional[StimuliEvents]] = [None] * n
        self._next_states = list(self.states)
        self._next_iface = list(self.iface_states)
        if packed:
            # Per-router core widths differ in heterogeneous networks
            # (different queue depths); the memory is as wide as the
            # widest unit, exactly like the FPGA's provisioned word.
            stim = pack_stimuli(rc, self.iface_states[0])
            self._stim_width = stim.width
            self._core_widths = [
                pack_router_core(cfg.router_at(r), self.states[r]).width
                for r in range(n)
            ]
            self._word_width = max(self._core_widths) + self._stim_width
            # Packed-mode caches: the unpack memo is validated by word
            # equality (so an injected SEU in the state memory still
            # propagates — the corrupted word misses the cache), and the
            # two pack memos are identity-keyed on the state objects.
            self._read_cache: List[Optional[tuple]] = [None] * n
            self._core_cache: List[Optional[tuple]] = [None] * n
            self._stim_cache: List[Optional[tuple]] = [None] * n
            self.statemem = PackedStateMemory(n, self._word_width)
            for r in range(n):
                self.statemem.initialize(r, self._pack_unit(r))
        else:
            self.statemem = None

    # -- packed-mode plumbing ---------------------------------------------------
    def _pack_unit(self, r: int) -> int:
        return self._compose_word(r, self.states[r], self.iface_states[r])

    def _compose_word(self, r: int, state, iface_state) -> int:
        """Packed word for (state, iface) of unit ``r``, through the
        identity-keyed pack memos (``concat(core, stim)`` layout: core in
        the high bits, stimuli in the low ``_stim_width`` bits)."""
        cached = self._core_cache[r]
        if cached is not None and cached[0] is state:
            core_bits = cached[1]
        else:
            rc = self.cfg.router_at(r)
            core_bits = pack_router_core(rc, state).value << self._stim_width
            self._core_cache[r] = (state, core_bits)
        cached = self._stim_cache[r]
        if cached is not None and cached[0] is iface_state:
            stim_bits = cached[1]
        else:
            rc = self.cfg.router_at(r)
            stim_bits = pack_stimuli(rc, iface_state).value
            self._stim_cache[r] = (iface_state, stim_bits)
        return core_bits | stim_bits

    def _unpack_unit(self, r: int, word: int):
        rc = self.cfg.router_at(r)
        stim_mask = (1 << self._stim_width) - 1
        stim = unpack_stimuli(rc, BitVector(self._stim_width, word & stim_mask))
        core = unpack_router_core(
            rc,
            BitVector(self._core_widths[r], word >> self._stim_width),
        )
        return core, stim

    def offer(self, router: int, vc: int, flit) -> bool:
        accepted = super().offer(router, vc, flit)
        # The base class mutates the stimuli state *in place* (including
        # the stall flag a refused offer sets), so every identity-keyed
        # memo involving this unit's interface must be dropped.
        self._eval_sig[router] = None
        if self.packed:
            # The control software writes the interface register through
            # the memory interface, into the *current* bank.
            self._stim_cache[router] = None
            word = self._pack_unit(router)
            self.statemem.write_current(router, word)
            self._read_cache[router] = (
                word,
                self.states[router],
                self.iface_states[router],
            )
        return accepted

    # -- one unit evaluation = one delta cycle (fast path) -------------------
    def _evaluate_unit_fast(self, r: int) -> None:
        """One delta cycle of unit ``r``, optimised.

        Observable behaviour (wire traffic, HBR updates, destabilisation,
        delta counts, committed state) is bit-identical to the reference
        :meth:`_evaluate_unit`; the differences are purely mechanical:

        * pure per-state values (``is_quiescent``, ``room_mask``, the
          packed-word unpack) are memoized, keyed on object identity or
          stored-word equality;
        * the next-state computation is deferred: the evaluation records
          its sampled inputs and grants, and :meth:`_finalize_units`
          computes each unit's next state once per system cycle from the
          *last* evaluation's record.  At convergence the last
          evaluation read the final wire values, so the deferred result
          equals the per-delta result the reference path computes;
        * wire writes are inlined against the link-memory bitmask while
          no wire fault is installed (``_fault_free_cycle``, recomputed
          every cycle after the pre-step hooks ran).
        """
        links = self.links
        hbr = links.hbr
        values = links.values

        if self.packed:
            word = self.statemem.read(r)
            cached = self._read_cache[r]
            if cached is not None and cached[0] == word:
                state = cached[1]
                iface_state = cached[2]
            else:
                state, iface_state = self._unpack_unit(r, word)
                self._read_cache[r] = (word, state, iface_state)
        else:
            state = self.states[r]
            iface_state = self.iface_states[r]

        fault_free = self._fault_free_cycle

        # "Inputs unchanged since last evaluation": if this unit's state
        # and interface are the very objects of its last recorded
        # evaluation and none of the wires it touches changed since (the
        # link-memory change stamps prove it), its outputs are already
        # on the wires and the recorded evaluation is reused verbatim.
        # Only the HBR bits of the read wires need touching — values are
        # provably identical, and unchanged writes leave HBR alone in
        # the reference protocol too.  Disabled while wire faults are
        # installed: flaky/stuck wires make even identical writes
        # observable.
        sig = self._eval_sig[r]
        if sig is not None and fault_free:
            rec = sig[1]
            if (
                rec[0] is state
                and rec[1] is iface_state
                and links.touch_stamp[r] <= sig[0]
            ):
                for w in self._read_wids[r]:
                    hbr[w] = 1
                self._pending[r] = rec
                links.wire_writes += self._n_writes[r]
                links.unstable_mask &= self._stable_clear[r]
                return

        # Read phase: sample every wire this unit reads (sets HBR bits).
        n_ports = self._n_ports
        fwd_in = [0] * n_ports
        room_in = [0] * n_ports
        room_in[0] = self._sink  # Port.LOCAL
        any_fwd = 0
        for p, w in self._fwd_reads[r]:
            hbr[w] = 1
            v = values[w]
            fwd_in[p] = v
            any_fwd |= v
        for p, w in self._room_reads[r]:
            hbr[w] = 1
            room_in[p] = values[w]

        cached = self._quiesc_cache[r]
        if cached is not None and cached[0] is state:
            quiescent = cached[1]
        else:
            quiescent = state.is_quiescent
            self._quiesc_cache[r] = (state, quiescent)

        if (
            quiescent
            and any_fwd == 0
            and iface_state.eject_valid == 0
            and not any(iface_state.inj_valid)
        ):
            # Quiescence fast path: idle outputs, state unchanged.
            rec = (state, iface_state, None)
            out = self._idle_out
        else:
            router = self.routers[r]
            cached = self._room_cache[r]
            if cached is not None and cached[0] is state:
                rooms = cached[1]
            else:
                rooms = router.room_mask(state)
                self._room_cache[r] = (state, rooms)
            # Outputs depend only on (state, room_in) — a re-evaluation
            # triggered by a forward-wire change reuses them.
            cached = self._out_cache[r]
            if cached is not None and cached[0] is state and cached[1] == room_in:
                fwd_out = cached[2]
                grants = cached[3]
            else:
                fwd_out, grants = router.output_words(state, room_in)
                self._out_cache[r] = (state, room_in, fwd_out, grants)
            rec = (
                state,
                iface_state,
                fwd_in,
                room_in,
                grants,
                rooms[0],  # local room mask, for the stimuli output word
                fwd_out[0],  # local forward word = the ejected word
            )
            out = fwd_out + rooms
        self._pending[r] = rec

        # Write phase.  Fault-free, this is the one inlined copy of the
        # HBR write rule of :meth:`LinkMemory.write_wire` (minus its
        # width check and fault lookups); with a wire fault installed
        # the link memory's own method applies it.
        if fault_free:
            reader_of = links.reader_of
            reader_bit = self._reader_bit
            touch = links.touch_stamp
            links.wire_writes += self._n_writes[r]
            for slot, w in self._writes[r]:
                v = out[slot]
                if values[w] != v:
                    values[w] = v
                    links.value_changes += 1
                    links.changes_this_cycle[w] += 1
                    clock = links.change_clock + 1
                    links.change_clock = clock
                    links.stamp[w] = clock
                    touch[reader_of[w]] = clock
                    touch[r] = clock
                    if hbr[w]:
                        links.unstable_mask |= reader_bit[w]
                    hbr[w] = 0
            # Snapshot the change clock *after* the writes: a later
            # mutation of a touched wire invalidates the memo.  Only
            # recorded on fault-free cycles — a stuck mask can leave the
            # wires carrying something other than fwd_out/rooms.
            self._eval_sig[r] = (links.change_clock, rec)
        else:
            write_wire = links.write_wire
            for slot, w in self._writes[r]:
                write_wire(w, out[slot])
        links.unstable_mask &= self._stable_clear[r]

    def _finalize_units(self) -> None:
        """Commit-time next-state computation for the fast path.

        Each unit's next state is computed exactly once per system
        cycle, from its last evaluation's record: the inputs sampled
        then are the converged wire values, so the result is
        bit-identical to recomputing on every delta.  In packed mode
        this is also where the next-bank word is packed — once per unit
        per cycle instead of once per delta — through the identity-keyed
        pack memos.
        """
        iface = self.iface
        packed = self.packed
        routers = self.routers
        pending = self._pending
        events_out = self._events
        next_states = self._next_states
        next_iface = self._next_iface
        room_cache = self._room_cache
        iface_output_word = iface.output_word
        iface_next_state = iface.next_state
        for r in self._units:
            rec = pending[r]
            if rec is None:  # unreachable: every unit evaluates every cycle
                rec = (self.states[r], self.iface_states[r], None)
            if rec[2] is None:
                new_state = rec[0]
                new_iface = rec[1]
                events_out[r] = None
            else:
                state, iface_state, fwd_in, room_in, grants, room_local, eject_word = rec
                choice, iface_word = iface_output_word(iface_state, room_local)
                fwd_in[0] = iface_word  # Port.LOCAL
                router = routers[r]
                new_state = router.next_state(
                    state, RouterInputs(fwd=fwd_in, room=room_in), grants, strict=False
                )
                new_iface, events = iface_next_state(iface_state, choice, eject_word)
                events_out[r] = events
                cached = room_cache[r]
                if new_state is not state and cached is not None and cached[0] is state:
                    # Prime next cycle's room-mask memo incrementally:
                    # only queues that popped (grants) or received a push
                    # (non-idle fwd words) can change occupancy, and the
                    # new bit is read off the final count — so a push
                    # dropped against a full queue (strict=False) or a
                    # pop-then-push of the same queue lands on the same
                    # mask :meth:`Router.room_mask` would compute.
                    n_vcs = router._n_vcs
                    depth = router._depth
                    vc_shift = router._vc_shift
                    data_width = router._data_width
                    idle = router._idle_type
                    masks = list(cached[1])
                    queues = new_state.queues
                    for g in grants:
                        if g is not None:
                            q = g[0]
                            if queues[q].count < depth:
                                masks[q // n_vcs] |= 1 << (q % n_vcs)
                            else:
                                masks[q // n_vcs] &= ~(1 << (q % n_vcs))
                    for p, word in enumerate(fwd_in):
                        if (word >> data_width) & 3 != idle:
                            q = p * n_vcs + (word >> vc_shift)
                            if queues[q].count < depth:
                                masks[q // n_vcs] |= 1 << (q % n_vcs)
                            else:
                                masks[q // n_vcs] &= ~(1 << (q % n_vcs))
                    room_cache[r] = (new_state, masks)
            next_states[r] = new_state
            next_iface[r] = new_iface
            if packed:
                word = self._compose_word(r, new_state, new_iface)
                self.statemem.write(r, word)
                # After the bank swap this is exactly what read() returns.
                self._read_cache[r] = (word, new_state, new_iface)
            pending[r] = None

    # -- one unit evaluation = one delta cycle (reference path) --------------
    def _evaluate_unit(self, r: int) -> None:
        rc = self.cfg.router
        n_ports = rc.n_ports
        links = self.links

        if self.packed:
            state, iface_state = self._unpack_unit(r, self.statemem.read(r))
        else:
            state = self.states[r]
            iface_state = self.iface_states[r]

        # Read phase: sample every wire this unit reads (sets HBR bits).
        fwd_in = [0] * n_ports
        room_in = [0] * n_ports
        room_in[Port.LOCAL] = self._sink
        in_fwd = self._in_fwd_wire[r]
        in_room = self._in_room_wire[r]
        for p in range(1, n_ports):
            w = in_fwd[p]
            if w >= 0:
                links.hbr[w] = 1
                fwd_in[p] = links.values[w]
            w = in_room[p]
            if w >= 0:
                links.hbr[w] = 1
                room_in[p] = links.values[w]

        # Quiescence fast path: nothing buffered, nothing arriving,
        # nothing to inject or eject -> the unit's outputs are idle and
        # its state is unchanged.  This is an optimisation of the model
        # evaluation only; the delta cycle is still counted by the caller.
        if (
            state.is_quiescent
            and not any(iface_state.inj_valid)
            and iface_state.eject_valid == 0
            and all(w == 0 for w in fwd_in)
        ):
            new_state, new_iface = state, iface_state
            fwd_out_edge = [0] * n_ports
            rooms = [self._sink] * n_ports
            events = StimuliEvents()
        else:
            router = self.routers[r]
            rooms = router.room_mask(state)
            choice, iface_word = self.iface.output_word(
                iface_state, rooms[Port.LOCAL]
            )
            fwd_in[Port.LOCAL] = iface_word
            fwd_out_edge, grants = router.output_words(state, room_in)
            new_state = router.next_state(
                state, RouterInputs(fwd=fwd_in, room=room_in), grants, strict=False
            )
            new_iface, events = self.iface.next_state(
                iface_state, choice, fwd_out_edge[Port.LOCAL]
            )

        # Write phase: drive every wire this unit owns; changed values
        # clear HBR bits and de-stabilise their readers.
        out_fwd = self._out_fwd_wire[r]
        out_room = self._out_room_wire[r]
        for p in range(1, n_ports):
            w = out_fwd[p]
            if w >= 0:
                links.write_wire(w, fwd_out_edge[p])
            w = out_room[p]
            if w >= 0:
                links.write_wire(w, rooms[p])

        # Store next state into the other bank.
        if self.packed:
            rc_ = self.cfg.router_at(r)
            word = concat(
                pack_router_core(rc_, new_state), pack_stimuli(rc_, new_iface)
            )
            self.statemem.write(r, word.value)
        self._next_states[r] = new_state
        self._next_iface[r] = new_iface
        self._events[r] = events
        links.mark_stable(r)

    # -- the system cycle -------------------------------------------------------
    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        self._begin_cycle()
        self._converge()
        self._finish_cycle()

    def _begin_cycle(self) -> None:
        """Open a system cycle: every HBR bit reset, every unit non-stable."""
        links = self.links
        links.begin_cycle()
        self._events = [None] * self.cfg.n_routers
        self.watchdog.start_cycle(self.cycle)
        # Wire faults are installed by the pre-step hooks or between
        # cycles, never mid-cycle, so the inline-write decision holds
        # for the whole system cycle.
        self._fault_free_cycle = links.fault_free

    def _converge(self) -> None:
        """Evaluate non-stable units until none is left (section 4.2).

        The delta count runs on from ``watchdog.deltas``: a partition
        tile re-converging after a boundary exchange stays under the one
        per-cycle bound, and a monolithic cycle simply starts at 0.
        """
        links = self.links
        scheduler = self.scheduler
        watchdog = self.watchdog
        evaluate = self._evaluate
        if not (self.optimize and type(scheduler) is WorklistScheduler):
            while True:
                unit = scheduler.next_unit(links)
                if unit is None:
                    return
                evaluate(unit)
                watchdog.tick(links)
        # The hot loop, inlined: the worklist pick (the scheduler's own
        # algorithm, verbatim), the watchdog count, and — in plain
        # fault-free mode — the "inputs unchanged" sig-hit, the single
        # most common evaluation outcome.  Each is a handful of int ops
        # and the call overhead would otherwise dominate at ~n deltas
        # per cycle.
        pointer = scheduler._pointer
        limit = watchdog.limit
        deltas = watchdog.deltas
        inline_sig = not self.packed and self._fault_free_cycle
        states = self.states
        iface_states = self.iface_states
        eval_sig = self._eval_sig
        read_wids = self._read_wids
        pending = self._pending
        n_writes = self._n_writes
        stable_clear = self._stable_clear
        touch = links.touch_stamp
        hbr = links.hbr
        sig_writes = 0
        while True:
            mask = links.unstable_mask
            if not mask:
                break
            above = mask >> (pointer + 1)
            if above:
                pointer = pointer + 1 + ((above & -above).bit_length() - 1)
            else:
                pointer = (mask & -mask).bit_length() - 1
            sig = eval_sig[pointer] if inline_sig else None
            if (
                sig is not None
                and touch[pointer] <= sig[0]
                and sig[1][0] is states[pointer]
                and sig[1][1] is iface_states[pointer]
            ):
                for w in read_wids[pointer]:
                    hbr[w] = 1
                pending[pointer] = sig[1]
                sig_writes += n_writes[pointer]
                links.unstable_mask = mask & stable_clear[pointer]
            else:
                evaluate(pointer)
            deltas += 1
            if deltas > limit:
                # Delegate to the watchdog for the trip bookkeeping
                # and the livelock diagnosis (raises LivelockError).
                scheduler._pointer = pointer
                watchdog._deltas = deltas - 1
                watchdog.tick(links)
        scheduler._pointer = pointer
        watchdog._deltas = deltas
        # Wire-write accounting for the inlined sig-hits, flushed once
        # per call (nothing reads the counter mid-convergence).
        links.wire_writes += sig_writes

    def _finish_cycle(self) -> None:
        """Close the system cycle: next states, bank swap, delta count."""
        if self.optimize:
            self._finalize_units()
        self._commit(self.watchdog.deltas)

    def _commit(self, deltas: int) -> None:
        self.states, self._next_states = self._next_states, list(self._next_states)
        self.iface_states, self._next_iface = self._next_iface, list(self._next_iface)
        if self.packed:
            self.statemem.swap()
        for r in self._units:
            events = self._events[r]
            if events is not None:
                self._record(r, events)
        self.metrics.record_cycle(deltas)
        self.cycle += 1

    # -- fault injection hooks (repro.faults) ----------------------------------
    @property
    def state_word_width(self) -> int:
        """Width of the packed per-unit state word (packed mode only)."""
        if not self.packed:
            raise RuntimeError("state words exist only in packed mode")
        return self._word_width

    def inject_state_fault(self, address: int, bit: int) -> int:
        """Flip one bit of a committed packed state word (transient SEU).

        Only meaningful in packed mode: the parity-protected state
        memory is the FPGA BlockRAM being upset.  Returns the corrupted
        word.
        """
        if not self.packed:
            raise RuntimeError("state faults need packed=True (no state memory)")
        return self.statemem.inject_fault(address, 1 << bit)

    def inject_link_fault(self, wire, bit: int) -> int:
        """Flip one bit of a stored link value (transient SEU in the
        single-banked link memory).  ``wire`` is a name or wire id."""
        wid = wire if isinstance(wire, int) else self.links.wire_id(wire)
        return self.links.inject_value_fault(wid, 1 << bit)

    def link_wire_names(self) -> List[str]:
        """All wire names, in deterministic construction order."""
        return [spec.name for spec in self.links.specs]

    def install_flap_fault(self, router: int, port: int) -> Tuple[str, str]:
        """Install a livelock-inducing flap fault on the link pair
        between ``router`` and its neighbour over ``port``.

        Both the forward wire and the returning room-credit wire flap:
        every write registers as a change for the reader, so the two
        units invalidate each other forever — the pathological case the
        convergence watchdog exists for.  Returns the wire names.
        """
        names = self.topology.link_wires(router, port)
        for name in names:
            self.links.set_flaky(self.links.wire_id(name))
        return names

    # -- quarantine (recovery) ---------------------------------------------------
    def quarantine_link(self, router: int, port: int) -> None:
        """Kill the directed link in the link memory and reroute.

        The forward wire freezes at idle and the room wire the sender
        reads for that output freezes at "no room", so the arbiter never
        grants onto the dead channel; the base class recomputes routes
        around it.
        """
        fwd = self._out_fwd_wire[router][port]
        if fwd >= 0:
            self.links.quarantine(fwd, 0)
        room = self._in_room_wire[router][port]
        if room >= 0:
            self.links.quarantine(room, 0)
        super().quarantine_link(router, port)

    def quarantine_wires(self, names: Sequence[str]) -> List[Tuple[int, int]]:
        """Quarantine the physical links behind the given wires.

        This is the repair action the recovery machinery applies when a
        livelock diagnosis names flapping wires.  Returns the directed
        links taken out of service.
        """
        links = self.topology.links_behind(names)
        for router, port in links:
            self.quarantine_link(router, port)
        return links


class StaticSequentialNetwork(SequentialNetwork):
    """Static-schedule ablation: rooms, forwards, then state updates, each
    a full fixed-order sweep (3·R deltas per system cycle, no HBR logic).

    This is what section 4.1's method degenerates to when applied to a
    design with combinatorial boundaries by brute force; comparing its
    delta counts with the dynamic scheduler quantifies the benefit of the
    HBR mechanism.
    """

    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        n = self.cfg.n_routers
        rc = self.cfg.router
        self._events = [None] * n
        deltas = 0

        # The committed state is frozen for the whole cycle (writes go to
        # the other bank), so every value that is a pure function of it —
        # the unpacked unit, its room masks, its stimuli output word and
        # grants — is computed once per unit per cycle and reused across
        # the phase sweeps instead of being recomputed in B and C.
        states = [self._state_of(r) for r in range(n)]
        ifaces = [self._iface_of(r) for r in range(n)]
        rooms_cache = [self.routers[r].room_mask(states[r]) for r in range(n)]

        # Phase A: every unit publishes its room wires (state-only).
        for r in range(n):
            rooms = rooms_cache[r]
            for p in range(1, rc.n_ports):
                w = self._out_room_wire[r][p]
                if w >= 0:
                    self.links.write_wire(w, rooms[p])
            deltas += 1

        # Phase B: every unit publishes its forward wires.
        fwd_cache: List[List[int]] = [[] for _ in range(n)]
        grant_cache: List = [None] * n
        choice_cache: List[int] = [0] * n
        word_cache: List[int] = [0] * n
        room_in_cache: List[List[int]] = [[] for _ in range(n)]
        for r in range(n):
            room_in = self._gather_room(r)
            choice, word = self.iface.output_word(
                ifaces[r], rooms_cache[r][Port.LOCAL]
            )
            fwd_out, grants = self.routers[r].output_words(states[r], room_in)
            fwd_cache[r] = fwd_out
            grant_cache[r] = grants
            choice_cache[r] = choice
            word_cache[r] = word
            room_in_cache[r] = room_in
            for p in range(1, rc.n_ports):
                w = self._out_fwd_wire[r][p]
                if w >= 0:
                    self.links.write_wire(w, fwd_out[p])
            deltas += 1

        # Phase C: every unit commits its next state.  No room wire was
        # written after phase A, so phase B's gathered room inputs (and
        # the grants derived from them) are still current.
        for r in range(n):
            fwd_in = self._gather_fwd(r)
            fwd_in[Port.LOCAL] = word_cache[r]
            new_state = self.routers[r].next_state(
                states[r],
                RouterInputs(fwd=fwd_in, room=room_in_cache[r]),
                grants=grant_cache[r],
            )
            new_iface, events = self.iface.next_state(
                ifaces[r], choice_cache[r], fwd_cache[r][Port.LOCAL]
            )
            if self.packed:
                rc_r = self.cfg.router_at(r)
                word = concat(
                    pack_router_core(rc_r, new_state), pack_stimuli(rc_r, new_iface)
                )
                self.statemem.write(r, word.value)
            self._next_states[r] = new_state
            self._next_iface[r] = new_iface
            self._events[r] = events
            deltas += 1

        self._commit(deltas)

    # -- helpers ----------------------------------------------------------
    def _state_of(self, r: int):
        if self.packed:
            state, _ = self._unpack_unit(r, self.statemem.read(r))
            return state
        return self.states[r]

    def _iface_of(self, r: int):
        if self.packed:
            _, iface = self._unpack_unit(r, self.statemem.read(r))
            return iface
        return self.iface_states[r]

    def _gather_room(self, r: int) -> List[int]:
        rc = self.cfg.router
        room_in = [0] * rc.n_ports
        room_in[Port.LOCAL] = self._sink
        for p in range(1, rc.n_ports):
            w = self._in_room_wire[r][p]
            if w >= 0:
                room_in[p] = self.links.values[w]
        return room_in

    def _gather_fwd(self, r: int) -> List[int]:
        rc = self.cfg.router
        fwd_in = [0] * rc.n_ports
        for p in range(1, rc.n_ports):
            w = self._in_fwd_wire[r][p]
            if w >= 0:
                fwd_in[p] = self.links.values[w]
        return fwd_in
