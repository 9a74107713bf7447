"""Network-level golden cycle semantics.

A :class:`Network` owns the states of all routers and their stimuli
interfaces and advances them one *system cycle* at a time using the
three-phase evaluation order specified in :mod:`repro.noc.router`.
This is the reference against which every engine (event-driven RTL,
cycle-based, FPGA-style sequential) is checked bit-for-bit.

The *stimuli interface* (Fig. 7 of the paper, 180 bits of Table 1) sits
on each router's local port: per-VC injection head registers fed by the
traffic layer, a round-robin injection arbiter that respects the local
input queues' room, access-delay counters (the paper logs "the access
delay a flit notices before it enters the network"), and the ejection
capture register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.noc.config import NetworkConfig, Port
from repro.noc.flit import Flit, Header
from repro.noc.routing import RoutingTable
from repro.noc.router import Router, RouterInputs, RouterState
from repro.noc.topology import Topology
from repro.rtl.primitives import round_robin_grant

#: room mask handed to a router's local output port: the sink (ejection
#: register) accepts one flit per cycle on any VC.
def _sink_room(n_vcs: int) -> int:
    return (1 << n_vcs) - 1


class StimuliState:
    """Architectural state of one stimuli interface (Table 1: 180 bits)."""

    __slots__ = ("n_vcs", "inj_word", "inj_valid", "rr_ptr", "delay", "eject_word", "eject_valid", "stalled")

    def __init__(self, n_vcs: int) -> None:
        self.n_vcs = n_vcs
        self.inj_word: List[int] = [0] * n_vcs  # pending flit per VC (18 b each)
        self.inj_valid: List[int] = [0] * n_vcs
        self.rr_ptr: int = n_vcs - 1  # last injected VC
        self.delay: List[int] = [0] * n_vcs  # cycles the pending head waited
        self.eject_word: int = 0  # last ejected link word (20 b)
        self.eject_valid: int = 0
        self.stalled: int = 0  # sticky: an offer was refused (buffer busy)

    def copy(self) -> "StimuliState":
        new = StimuliState.__new__(StimuliState)
        new.n_vcs = self.n_vcs
        new.inj_word = list(self.inj_word)
        new.inj_valid = list(self.inj_valid)
        new.rr_ptr = self.rr_ptr
        new.delay = list(self.delay)
        new.eject_word = self.eject_word
        new.eject_valid = self.eject_valid
        new.stalled = self.stalled
        return new

    def state_tuple(self) -> Tuple:
        return (
            tuple(self.inj_word),
            tuple(self.inj_valid),
            self.rr_ptr,
            tuple(self.delay),
            self.eject_word,
            self.eject_valid,
            self.stalled,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StimuliState):
            return NotImplemented
        return self.state_tuple() == other.state_tuple()


@dataclass
class StimuliEvents:
    """What one interface did in a committed system cycle."""

    sent: Optional[Tuple[int, int, int]] = None  # (vc, flit_word, access_delay)
    ejected: Optional[Tuple[int, int]] = None  # (vc, flit_word)


#: Shared "nothing happened" events object returned by the idle-cycle
#: identity path below.  Never mutated: the event fields are only set on
#: the copying path, so one immutable instance serves every idle return.
_IDLE_EVENTS = StimuliEvents()


class StimuliInterface:
    """Pure evaluation functions of the stimuli interface."""

    def __init__(self, n_vcs: int, data_width: int) -> None:
        self.n_vcs = n_vcs
        self.data_width = data_width

    def output_word(self, state: StimuliState, room_mask: int) -> Tuple[int, int]:
        """(chosen vc or -1, forward link word) for the local input port.

        Round-robin over VCs holding a valid flit whose queue has room.
        """
        req = 0
        for vc in range(self.n_vcs):
            if state.inj_valid[vc] and (room_mask >> vc) & 1:
                req |= 1 << vc
        if req == 0:
            return -1, 0
        vc = round_robin_grant(req, self.n_vcs, state.rr_ptr)
        return vc, (vc << (self.data_width + 2)) | state.inj_word[vc]

    def next_state(
        self,
        state: StimuliState,
        chosen_vc: int,
        eject_word: int,
    ) -> Tuple[StimuliState, StimuliEvents]:
        """Advance the interface by one cycle.

        ``chosen_vc`` is the VC injected this cycle (-1 for none);
        ``eject_word`` is the router's local output link word (0 = idle).
        """
        if (
            chosen_vc < 0
            and state.eject_valid == 0
            and (eject_word >> self.data_width) & 3 == 0
            and not any(state.inj_valid)
        ):
            # Identity-preserving no-op: no pending flit to age, nothing
            # injected or ejected, capture register already clear — the
            # next state is the current state (this mirrors the golden
            # stepper's skip condition exactly).
            return state, _IDLE_EVENTS
        new = state.copy()
        events = StimuliEvents()
        for vc in range(self.n_vcs):
            if state.inj_valid[vc]:
                if vc == chosen_vc:
                    new.inj_valid[vc] = 0
                    new.rr_ptr = vc
                    new.delay[vc] = 0
                    events.sent = (vc, state.inj_word[vc], state.delay[vc])
                else:
                    # The access-delay counter is a 20-bit register (see
                    # repro.noc.layout); it wraps like the hardware would.
                    new.delay[vc] = (state.delay[vc] + 1) & 0xFFFFF
        if (eject_word >> self.data_width) & 3 != 0:
            new.eject_word = eject_word
            new.eject_valid = 1
            vc = eject_word >> (self.data_width + 2)
            events.ejected = (vc, eject_word & ((1 << (self.data_width + 2)) - 1))
        else:
            new.eject_valid = 0
        return new, events


@dataclass
class InjectionRecord:
    """One flit entering the network (paper: stimuli buffer entry)."""

    cycle: int
    router: int
    vc: int
    flit_word: int
    access_delay: int


@dataclass
class EjectionRecord:
    """One flit leaving the network (paper: output buffer entry, with
    timestamp)."""

    cycle: int
    router: int
    vc: int
    flit_word: int


class Network:
    """The golden network model: all state plus the reference stepper.

    The reference stepper is also exactly what the cycle-based
    ("SystemC") engine executes; the other engines reproduce its results
    through different mechanisms.
    """

    def __init__(self, cfg: NetworkConfig, routing: Optional[RoutingTable] = None) -> None:
        self.cfg = cfg
        self.topology = Topology(cfg)
        self.routing = routing if routing is not None else RoutingTable(cfg)
        rc = cfg.router
        from repro.noc.deadlock import make_policy

        self.routers: List[Router] = []
        for index in range(cfg.n_routers):
            table_row = self.routing.table[index]
            self.routers.append(
                Router(
                    cfg.router_at(index),
                    index,
                    route=table_row.__getitem__,
                    dest_index=self._dest_index,
                    be_candidates=make_policy(cfg, index),
                )
            )
        self.states: List[RouterState] = [
            RouterState(cfg.router_at(index)) for index in range(cfg.n_routers)
        ]
        self.iface = StimuliInterface(rc.n_vcs, rc.data_width)
        self.iface_states: List[StimuliState] = [
            StimuliState(rc.n_vcs) for _ in range(cfg.n_routers)
        ]
        self.cycle = 0
        self.injections: List[InjectionRecord] = []
        self.ejections: List[EjectionRecord] = []
        #: callables invoked at the top of every :meth:`step` — the
        #: fault-injection campaign's hook point (empty in normal runs).
        self.pre_step_hooks: List = []
        #: directed links (router, out_port) taken out of service by the
        #: fault-recovery machinery; routes avoid them.
        self.quarantined_links: set = set()
        # Wire buffers (committed values of the last completed cycle).
        n = cfg.n_routers
        self.fwd_in: List[List[int]] = [[0] * rc.n_ports for _ in range(n)]
        self.room_in: List[List[int]] = [[0] * rc.n_ports for _ in range(n)]
        self._neighbor_cache = [
            [self.topology.neighbor(r, Port(p)) for p in range(rc.n_ports)]
            for r in range(n)
        ]
        self._opposite = [
            int(Port(p).opposite) if p else int(Port.LOCAL)
            for p in range(rc.n_ports)
        ]

    def _dest_index(self, header: Header) -> int:
        return self.cfg.index(header.dest_x, header.dest_y)

    # -- traffic-side API ---------------------------------------------------
    def offer(self, router: int, vc: int, flit: Flit | int) -> bool:
        """Load a flit into an injection head register if it is free.

        Returns False when the register still holds an unsent flit; the
        caller (the stimuli buffer) retries next cycle.
        """
        state = self.iface_states[router]
        if state.inj_valid[vc]:
            state.stalled = 1
            return False
        word = flit if isinstance(flit, int) else flit.encode(self.cfg.router.data_width)
        state.inj_word[vc] = word
        state.inj_valid[vc] = 1
        state.delay[vc] = 0
        state.stalled = 0
        return True

    def injection_pending(self, router: int, vc: int) -> bool:
        """True while the head register still holds an unsent flit."""
        return bool(self.iface_states[router].inj_valid[vc])

    # -- degraded mode -------------------------------------------------------
    def quarantine_link(self, router: int, port: int) -> None:
        """Take the directed link ``router --port-->`` out of service.

        The routing table is regenerated so no future HEAD flit routes
        over the link; traffic gracefully degrades onto surviving paths.
        Packets whose wormhole already spans the dead link are lost —
        recovery rolls the simulation back to a checkpoint that predates
        the failure, so in the recovery flow nothing is in flight on it.
        """
        self.quarantined_links.add((router, int(port)))
        self.routing.recompute_avoiding(self.quarantined_links)

    # -- the golden system-cycle step ---------------------------------------
    def compute_wires(self) -> Tuple[List[int], List[int], List[List[int]], List]:
        """Phases 1 and 2: all wire values implied by the current state.

        Fills ``self.room_in`` / ``self.fwd_in`` (the wires each router
        samples) and returns ``(iface_choice, iface_word, fwd_out,
        grants)``.  Pure with respect to architectural state — calling it
        repeatedly without :meth:`commit` is idempotent.
        """
        cfg = self.cfg
        rc = cfg.router
        n = cfg.n_routers
        n_ports = rc.n_ports
        sink = _sink_room(rc.n_vcs)
        neighbors = self._neighbor_cache

        # Phase 1: room masks (Moore) for every router.
        rooms: List[List[int]] = [
            self.routers[r].room_mask(self.states[r]) for r in range(n)
        ]

        # Phase 1b: room inputs seen at each router's *output* ports.
        room_in = self.room_in
        opposite = self._opposite
        for r in range(n):
            row = room_in[r]
            row[Port.LOCAL] = sink
            for p in range(1, n_ports):
                nb = neighbors[r][p]
                # The wire at output port p is driven by the neighbour's
                # input port opposite(p); unconnected mesh edges offer no room.
                row[p] = rooms[nb][opposite[p]] if nb is not None else 0

        # Phase 2: stimuli interface words, then router forward words.
        iface_choice: List[int] = [0] * n
        iface_word: List[int] = [0] * n
        for r in range(n):
            vc, word = self.iface.output_word(self.iface_states[r], rooms[r][Port.LOCAL])
            iface_choice[r] = vc
            iface_word[r] = word

        fwd_out: List[List[int]] = [[0] * n_ports for _ in range(n)]
        grants = [None] * n
        for r in range(n):
            words, g = self.routers[r].output_words(self.states[r], room_in[r])
            fwd_out[r] = words
            grants[r] = g

        # Phase 2b: forward inputs at each router's input ports.
        fwd_in = self.fwd_in
        for r in range(n):
            row = fwd_in[r]
            row[Port.LOCAL] = iface_word[r]
            for p in range(1, n_ports):
                nb = neighbors[r][p]
                row[p] = fwd_out[nb][opposite[p]] if nb is not None else 0

        return iface_choice, iface_word, fwd_out, grants

    def current_inputs(self, router: int) -> RouterInputs:
        """The wires ``router`` would sample this cycle (fresh copies)."""
        self.compute_wires()
        return RouterInputs(
            fwd=list(self.fwd_in[router]), room=list(self.room_in[router])
        )

    def step(self) -> None:
        """Advance the whole network by one system cycle."""
        for hook in self.pre_step_hooks:
            hook(self)
        self.commit(self.decide())

    def decide(self) -> Tuple:
        """Phases 1 and 2 and the allocation decisions of phase 3: the
        cycle's plan, read off the current state alone.  A decision error
        (an unroutable head, a GT head on a BE VC) raises here, the first
        router's first, before :meth:`commit` changes any state.

        A quiescent router (no buffered flits, no allocations) can
        produce no grants; with idle inputs its state is a fixpoint, so
        its plan is ``None`` and phase 3 skips it — a pure host-side
        optimisation with no effect on results, covered by the
        engine-equivalence tests.
        """
        iface_choice, _iface_word, fwd_out, grants = self.compute_wires()
        fwd_in = self.fwd_in
        allocation = [
            self.routers[r].allocation_decisions(state)
            if any(fwd_in[r]) or not state.is_quiescent
            else None
            for r, state in enumerate(self.states)
        ]
        return iface_choice, fwd_out, grants, allocation

    def commit(self, plan: Tuple) -> None:
        """Phase 3: apply a :meth:`decide` plan — the state updates, in
        place (the cycle engine owns its states) — and log the cycle's
        events."""
        iface_choice, fwd_out, grants, allocation = plan
        fwd_in = self.fwd_in
        for r in range(self.cfg.n_routers):
            state = self.states[r]
            if allocation[r] is not None:
                inputs = RouterInputs(fwd=fwd_in[r], room=self.room_in[r])
                self.routers[r].next_state(
                    state, inputs, grants[r], in_place=True,
                    allocation=allocation[r],
                )
            iface_state = self.iface_states[r]
            eject = fwd_out[r][Port.LOCAL]
            if (
                iface_choice[r] >= 0
                or eject
                or iface_state.eject_valid
                or any(iface_state.inj_valid)
            ):
                new_iface, events = self.iface.next_state(
                    iface_state, iface_choice[r], eject
                )
                self.iface_states[r] = new_iface
                self._record(r, events)
        self.cycle += 1

    def _record(self, router: int, events: StimuliEvents) -> None:
        if events.sent is not None:
            vc, word, delay = events.sent
            self.injections.append(InjectionRecord(self.cycle, router, vc, word, delay))
        if events.ejected is not None:
            vc, word = events.ejected
            self.ejections.append(EjectionRecord(self.cycle, router, vc, word))

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # -- inspection ------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """Bit-exact snapshot of all architectural state (for equivalence)."""
        return (
            tuple(s.state_tuple() for s in self.states),
            tuple(s.state_tuple() for s in self.iface_states),
        )

    def total_buffered(self) -> int:
        """Flits currently buffered anywhere in the fabric."""
        return sum(s.total_buffered() for s in self.states)

    def drained(self) -> bool:
        """True when no flit is in flight anywhere."""
        return self.total_buffered() == 0 and all(
            not any(s.inj_valid) for s in self.iface_states
        )
