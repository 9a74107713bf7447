"""The FPGA sequential simulator, instantiated for the NoC.

:class:`SequentialNetwork` is a drop-in replacement for
:class:`repro.noc.Network` whose :meth:`step` advances the system the way
the paper's FPGA does (sections 4.2/5.2):

* the committed ("old") register state of every router+stimuli-interface
  unit lives in a double-banked state memory — optionally as genuinely
  packed 1912-bit words (``packed=True``): every evaluation reads its
  unit's word, and every cycle packs each unit's next state into the
  other bank, exercising the Table-1 layout;
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
from repro.seqsim.scheduler import ConvergenceWatchdog, converge, make_scheduler
from repro.seqsim.statemem import PackedStateMemory

__all__ = [
    "ConvergenceError",
    "LivelockError",
    "SequentialNetwork",
    "StaticSequentialNetwork",
]


class SequentialNetwork(Network):
    """Dynamic-schedule sequential simulator (the paper's method).

    The plain statement of section 4.2, and the reference the compiled
    HBR accounting pass is held against: one delta cycle of a unit reads
    its committed state and input wires, computes its outputs and next
    state, and writes its output wires (:meth:`_evaluate_unit`);
    :func:`~repro.seqsim.scheduler.converge` repeats that for the
    non-stable units until every HBR bit is set.

    ``scheduler`` selects the non-stable-unit picker (``"worklist"``,
    the default O(1)-amortised bitmask scan, or ``"roundrobin"``, the
    literal O(n) scan — both emit the identical pick sequence; see
    :mod:`repro.seqsim.scheduler`).  ``packed=True`` keeps the committed
    state as packed state-memory words; ``watchdog_factor`` bounds the
    deltas of one system cycle at that multiple of the unit count.
    """

    def __init__(
        self,
        cfg: NetworkConfig,
        routing: Optional[RoutingTable] = None,
        packed: bool = False,
        watchdog_factor: Optional[int] = None,
        scheduler: str = "worklist",
    ) -> None:
        super().__init__(cfg, routing)
        self.packed = packed
        rc = cfg.router
        n = cfg.n_routers
        self._sink = (1 << rc.n_vcs) - 1
        self.metrics = DeltaMetrics(n_units=n)
        self.scheduler = make_scheduler(scheduler, n)
        self.watchdog = ConvergenceWatchdog(n, watchdog_factor)

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
            # two pack memos are identity-keyed on the state objects,
            # which nothing mutates in place but :meth:`offer`.
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
        """Packed word for (state, iface) of unit ``r``: the router core
        in the high bits, the stimuli interface in the low
        ``_stim_width`` bits, each packed through its identity-keyed
        memo."""
        core = self._core_cache[r]
        if core is None or core[0] is not state:
            core = self._core_cache[r] = (
                state,
                pack_router_core(self.cfg.router_at(r), state),
            )
        stim = self._stim_cache[r]
        if stim is None or stim[0] is not iface_state:
            stim = self._stim_cache[r] = (
                iface_state,
                pack_stimuli(self.cfg.router_at(r), iface_state),
            )
        return concat(core[1], stim[1]).value

    def _unpack_unit(self, r: int, word: int):
        rc = self.cfg.router_at(r)
        stim_mask = (1 << self._stim_width) - 1
        stim = unpack_stimuli(rc, BitVector(self._stim_width, word & stim_mask))
        core = unpack_router_core(
            rc,
            BitVector(self._core_widths[r], word >> self._stim_width),
        )
        return core, stim

    def _read_unit(self, r: int):
        """Unit ``r``'s committed (router state, interface state): in
        packed mode, its state-memory word unpacked through the
        word-keyed cache."""
        if not self.packed:
            return self.states[r], self.iface_states[r]
        word = self.statemem.read(r)
        cached = self._read_cache[r]
        if cached is None or cached[0] != word:
            cached = self._read_cache[r] = (word, *self._unpack_unit(r, word))
        return cached[1], cached[2]

    def offer(self, router: int, vc: int, flit) -> bool:
        accepted = super().offer(router, vc, flit)
        if self.packed:
            # The base class mutates the stimuli state *in place*
            # (including the stall flag a refused offer sets), so its
            # pack memo is stale.  The control software writes the
            # interface register through the memory interface, into the
            # *current* bank.
            self._stim_cache[router] = None
            word = self._pack_unit(router)
            self.statemem.write_current(router, word)
            self._read_cache[router] = (
                word,
                self.states[router],
                self.iface_states[router],
            )
        return accepted

    # -- one unit evaluation = one delta cycle ----------------------------------
    def _evaluate_unit(self, r: int) -> None:
        n_ports = self.cfg.router.n_ports
        links = self.links
        hbr = links.hbr
        values = links.values
        state, iface_state = self._read_unit(r)

        # Read phase: sample every wire this unit reads (sets HBR bits).
        fwd_in = [0] * n_ports
        room_in = [0] * n_ports
        room_in[Port.LOCAL] = self._sink
        in_fwd = self._in_fwd_wire[r]
        in_room = self._in_room_wire[r]
        for p in range(1, n_ports):
            w = in_fwd[p]
            if w >= 0:
                hbr[w] = 1
                fwd_in[p] = values[w]
            w = in_room[p]
            if w >= 0:
                hbr[w] = 1
                room_in[p] = values[w]

        # Quiescence: nothing buffered, nothing arriving, nothing to
        # inject or eject -> the unit's outputs are idle and its state is
        # unchanged.  This shortens the evaluation only; the delta cycle
        # is still counted.
        if (
            state.is_quiescent
            and not any(fwd_in)
            and iface_state.eject_valid == 0
            and not any(iface_state.inj_valid)
        ):
            new_state, new_iface, events = state, iface_state, None
            fwd_out = [0] * n_ports
            rooms = [self._sink] * n_ports
        else:
            router = self.routers[r]
            rooms = router.room_mask(state)
            choice, iface_word = self.iface.output_word(
                iface_state, rooms[Port.LOCAL]
            )
            fwd_in[Port.LOCAL] = iface_word
            fwd_out, grants = router.output_words(state, room_in)
            new_state = router.next_state(
                state, RouterInputs(fwd=fwd_in, room=room_in), grants, strict=False
            )
            new_iface, events = self.iface.next_state(
                iface_state, choice, fwd_out[Port.LOCAL]
            )

        # Write phase: drive every wire this unit owns; changed values
        # clear HBR bits and de-stabilise their readers.
        out_fwd = self._out_fwd_wire[r]
        out_room = self._out_room_wire[r]
        write_wire = links.write_wire
        for p in range(1, n_ports):
            w = out_fwd[p]
            if w >= 0:
                write_wire(w, fwd_out[p])
            w = out_room[p]
            if w >= 0:
                write_wire(w, rooms[p])

        # The next state, as of this delta; the last one of the cycle is
        # committed.
        self._next_states[r] = new_state
        self._next_iface[r] = new_iface
        self._events[r] = events
        links.mark_stable(r)

    # -- the system cycle -------------------------------------------------------
    def step(self) -> None:
        for hook in self.pre_step_hooks:
            hook(self)
        # Open the cycle: every HBR bit reset, every unit non-stable.
        self.links.begin_cycle()
        self._events = [None] * self.cfg.n_routers
        self.watchdog.start_cycle(self.cycle)
        converge(self.links, self.scheduler, self._evaluate_unit, self.watchdog)
        # Close it: next states, bank swap, delta count.
        self._commit(self.watchdog.deltas)

    def _commit(self, deltas: int) -> None:
        if self.packed:
            # Store every unit's next state into the other bank.
            for r, (state, iface_state) in enumerate(
                zip(self._next_states, self._next_iface)
            ):
                word = self._compose_word(r, state, iface_state)
                self.statemem.write(r, word)
                # After the bank swap this is exactly what read() returns.
                self._read_cache[r] = (word, state, iface_state)
        self.states, self._next_states = self._next_states, list(self._next_states)
        self.iface_states, self._next_iface = self._next_iface, list(self._next_iface)
        if self.packed:
            self.statemem.swap()
        for r, events in enumerate(self._events):
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
        states, ifaces = zip(*(self._read_unit(r) for r in range(n)))
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
            self._next_states[r] = new_state
            self._next_iface[r] = new_iface
            self._events[r] = events
            deltas += 1

        self._commit(deltas)

    # -- helpers ----------------------------------------------------------
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
