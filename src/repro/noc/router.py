"""Reference functional model of the virtual-channel wormhole router.

This is the bit- and cycle-accurate golden model of the router described
in section 2.1 of the paper (Kavaldjiev's design):

* 5 input and 5 output ports, 4 VCs per port;
* one ``queue_depth``-flit queue per (input port, VC) — 20 queues whose
  outputs connect *directly* to the 20-input, 5-output asymmetric
  crossbar ("the outputs of the queues are not multiplexed per port");
* 5 round-robin arbiters, one per crossbar output;
* wormhole switching with per-packet output-VC allocation; GT packets
  keep their VC index end-to-end (VC reservation), BE packets take the
  lowest free best-effort VC.

Cycle semantics (identical in every engine — this ordering *is* the
specification):

1. **room** (Moore): each input queue with space asserts its bit of the
   backward room wire; computed from current-state occupancy only.
2. **grants / forward words** (Mealy in the backward wires): per output
   port, among queues allocated to one of its output VCs, non-empty, and
   with downstream room, the round-robin arbiter picks one; its head flit
   leaves on the forward wire labelled with the output VC.
3. **state update**: granted queues pop (a TAIL releases the output-VC
   allocation and the arbiter pointer advances), arriving link words are
   pushed into the addressed queue, and un-allocated queues with a HEAD
   at the front claim a free output VC via a rotating-priority scan.
   Allocation decisions observe the *old* allocation table and queue
   heads, matching registered RTL behaviour.

All hot-path values are plain integers (encoded flits / link words); see
:mod:`repro.noc.flit` for the encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from repro.noc.config import Port, RouterConfig
from repro.noc.flit import FlitType, Header


class ProtocolError(RuntimeError):
    """A wormhole/flow-control invariant was violated (simulator bug or
    misconfigured traffic)."""


class FlitQueue:
    """One input queue: a ring buffer of encoded flit words.

    The explicit read/write pointers (rather than a deque) exist because
    they are architectural state: they appear in the packed Table-1 word
    and must round-trip bit-exactly through the sequential simulator's
    state memory.
    """

    __slots__ = ("depth", "mem", "rd", "wr", "count")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.mem: List[int] = [0] * depth
        self.rd = 0
        self.wr = 0
        self.count = 0

    def push(self, word: int, strict: bool = True) -> None:
        """Enqueue a flit.

        ``strict=False`` gives the hardware semantics needed by the
        sequential simulator: a *provisional* evaluation based on a stale
        room wire may push into a full queue; the write is dropped, and
        the eventual re-evaluation (with the settled room value) produces
        the correct state.  The golden engine always runs strict, so a
        real flow-control violation still fails loudly.
        """
        if self.count == self.depth:
            if strict:
                raise ProtocolError("queue overflow: upstream ignored room")
            return
        self.mem[self.wr] = word
        self.wr = (self.wr + 1) % self.depth
        self.count += 1

    def pop(self) -> int:
        if self.count == 0:
            raise ProtocolError("queue underflow: grant to empty queue")
        word = self.mem[self.rd]
        self.rd = (self.rd + 1) % self.depth
        self.count -= 1
        return word

    def head(self) -> int:
        if self.count == 0:
            raise ProtocolError("head of empty queue")
        return self.mem[self.rd]

    def contents(self) -> List[int]:
        """Logical front-to-back contents (for debug/invariant checks)."""
        return [self.mem[(self.rd + i) % self.depth] for i in range(self.count)]

    def copy(self) -> "FlitQueue":
        new = FlitQueue.__new__(FlitQueue)
        new.depth = self.depth
        new.mem = list(self.mem)
        new.rd = self.rd
        new.wr = self.wr
        new.count = self.count
        return new

    def state_tuple(self) -> Tuple[int, ...]:
        return (tuple(self.mem), self.rd, self.wr, self.count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlitQueue):
            return NotImplemented
        return self.state_tuple() == other.state_tuple()

    def __repr__(self) -> str:
        return f"FlitQueue(count={self.count}, contents={[hex(w) for w in self.contents()]})"


class RouterState:
    """All architectural registers of one router (the 1440+292 control
    bits of Table 1, minus the stimuli interface which lives with the
    network's local port)."""

    __slots__ = ("cfg", "queues", "alloc", "queue_alloc", "arb_ptr", "alloc_ptr", "flags")

    def __init__(self, cfg: RouterConfig) -> None:
        self.cfg = cfg
        self.queues: List[FlitQueue] = [
            FlitQueue(cfg.queue_depth) for _ in range(cfg.n_queues)
        ]
        # alloc[ovc] = source queue index, or -1 when the output VC is free.
        self.alloc: List[int] = [-1] * (cfg.n_ports * cfg.n_vcs)
        # queue_alloc[q] = ovc the queue is allocated to, or -1 (inverse map).
        self.queue_alloc: List[int] = [-1] * cfg.n_queues
        # Per-output-port round-robin pointer: index of last granted queue.
        # Initialised to the highest index so the first scan starts at 0.
        self.arb_ptr: List[int] = [cfg.n_queues - 1] * cfg.n_ports
        # Rotating priority pointer of the output-VC allocator.
        self.alloc_ptr: int = cfg.n_queues - 1
        # Misc status register: bit 0 = overload flag, bit 1 = active flag.
        self.flags: int = 0

    def copy(self) -> "RouterState":
        new = RouterState.__new__(RouterState)
        new.cfg = self.cfg
        new.queues = [q.copy() for q in self.queues]
        new.alloc = list(self.alloc)
        new.queue_alloc = list(self.queue_alloc)
        new.arb_ptr = list(self.arb_ptr)
        new.alloc_ptr = self.alloc_ptr
        new.flags = self.flags
        return new

    def state_tuple(self) -> Tuple:
        """Canonical hashable snapshot used for engine equivalence."""
        return (
            tuple(q.state_tuple() for q in self.queues),
            tuple(self.alloc),
            tuple(self.queue_alloc),
            tuple(self.arb_ptr),
            self.alloc_ptr,
            self.flags,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouterState):
            return NotImplemented
        return self.state_tuple() == other.state_tuple()

    @property
    def is_quiescent(self) -> bool:
        """True when the router can be skipped by activity-gated engines:
        nothing buffered and no VC allocated (so the next state equals the
        current state whenever all inputs are idle)."""
        for q in self.queues:
            if q.count:
                return False
        for a in self.alloc:
            if a >= 0:
                return False
        return True

    def total_buffered(self) -> int:
        return sum(q.count for q in self.queues)


@dataclass
class RouterInputs:
    """Wires the router samples.

    ``fwd[p]`` — forward link word arriving at input port ``p``
    (0 = idle); ``room[p]`` — per-VC room mask of the downstream router
    attached to *output* port ``p``.
    """

    fwd: List[int]
    room: List[int]


@dataclass
class RouterOutputs:
    """Wires the router drives.

    ``fwd[p]`` — forward link word leaving output port ``p``;
    ``room[p]`` — per-VC room mask of this router's input queues at
    input port ``p`` (read by the upstream router / stimuli interface).
    """

    fwd: List[int]
    room: List[int]


#: A grant: (queue index, output VC index p*n_vcs+vc), or None.
Grant = Optional[Tuple[int, int]]


@lru_cache(maxsize=None)
def _scan_orders(nq: int) -> Tuple[Tuple[int, ...], ...]:
    """The allocation scan's queue order for each pointer value — one
    table shared by every router with ``nq`` queues."""
    return tuple(
        tuple((ptr + off) % nq for off in range(1, nq + 1)) for ptr in range(nq)
    )


class Router:
    """The evaluation function of one router instance.

    ``route`` maps a decoded header destination index to the output
    :class:`Port`; it is position-dependent (each router gets a row of
    the network routing table).
    """

    def __init__(
        self,
        cfg: RouterConfig,
        position: int,
        route: Callable[[int], Port],
        dest_index: Callable[[Header], int],
        be_candidates: Optional[Callable[[int, int, int], Sequence[int]]] = None,
    ) -> None:
        self.cfg = cfg
        self.position = position
        self.route = route
        self.dest_index = dest_index
        # BE output-VC selection policy: (in_port, in_vc, out_port) ->
        # candidate VCs.  Defaults to free allocation; the network wires
        # in the dateline policy (repro.noc.deadlock) when configured.
        if be_candidates is None:
            be_vcs = cfg.be_vcs
            be_candidates = lambda in_port, in_vc, out_port: be_vcs  # noqa: E731
        self.be_candidates = be_candidates
        # Hot-loop constants hoisted out of the per-evaluation methods
        # (cfg is a frozen dataclass; these never change after init).
        self._n_ports = cfg.n_ports
        self._n_vcs = cfg.n_vcs
        self._n_queues = cfg.n_ports * cfg.n_vcs
        self._depth = cfg.queue_depth
        self._data_width = cfg.data_width
        self._vc_shift = cfg.data_width + 2
        self._payload_mask = (1 << cfg.data_width) - 1
        self._flit_mask = (1 << self._vc_shift) - 1
        self._head_type = int(FlitType.HEAD)
        self._tail_type = int(FlitType.TAIL)
        self._idle_type = int(FlitType.IDLE)
        # Rotating-priority scan orders, one per pointer value: replaces
        # the per-iteration ``(ptr + off) % n_queues`` of the allocation
        # scan with a precomputed tuple walk.
        self._scan_order = _scan_orders(self._n_queues)

    # -- phase 1 ---------------------------------------------------------
    def room_mask(self, state: RouterState) -> List[int]:
        """Per-input-port room masks (Moore: current occupancy only)."""
        n_vcs = self._n_vcs
        depth = self._depth
        queues = state.queues
        masks = []
        q = 0
        for _p in range(self._n_ports):
            mask = 0
            for vc in range(n_vcs):
                if queues[q].count < depth:
                    mask |= 1 << vc
                q += 1
            masks.append(mask)
        return masks

    # -- phase 2 ------------------------------------------------------------
    def output_words(
        self, state: RouterState, room_in: Sequence[int]
    ) -> Tuple[List[int], List[Grant]]:
        """Forward words and grants for every output port."""
        n_ports = self._n_ports
        n_vcs = self._n_vcs
        shift = self._vc_shift
        alloc = state.alloc
        queues = state.queues
        arb_ptr = state.arb_ptr
        fwd: List[int] = [0] * n_ports
        grants: List[Grant] = [None] * n_ports
        base = 0
        for p in range(n_ports):
            req = 0
            room = room_in[p]
            for vc in range(n_vcs):
                q = alloc[base + vc]
                if q >= 0 and (room >> vc) & 1 and queues[q].count > 0:
                    req |= 1 << q
            if req:
                # First set bit cyclically above arb_ptr[p] — a bit-scan
                # equivalent of :func:`round_robin_grant` (the RTL
                # arbiter still uses the shared scan version;
                # test_rtl_primitives cross-checks the two).
                last = arb_ptr[p]
                above = req >> (last + 1)
                if above:
                    g = (above & -above).bit_length() + last
                else:
                    g = (req & -req).bit_length() - 1
                for vc in range(n_vcs):
                    ovc = base + vc
                    if alloc[ovc] == g:
                        break
                grants[p] = (g, ovc)
                queue = queues[g]
                fwd[p] = ((ovc - base) << shift) | queue.mem[queue.rd]
            base += n_vcs
        return fwd, grants

    # -- phase 3 ----------------------------------------------------------
    def allocation_decisions(self, state: RouterState):
        """Output-VC allocation: rotating-priority scan over queues whose
        head is an unserved HEAD flit.  Decisions observe only the *old*
        allocation table and queue heads (so a VC freed by a TAIL this
        cycle becomes claimable only next cycle — registered-RTL
        behaviour), which lets callers apply them after mutating the
        queues in place.  A head that cannot be routed (``IndexError``)
        or a GT head on a BE VC (:class:`ProtocolError`) raises at the
        first such queue in scan order.

        Returns ``([(queue, ovc), ...], last_allocated_queue_or_-1)``.
        """
        n_vcs = self._n_vcs
        data_width = self._data_width
        head_type = self._head_type
        payload_mask = self._payload_mask
        queue_alloc = state.queue_alloc
        queues = state.queues
        alloc = state.alloc
        decisions: List[Tuple[int, int]] = []
        claimed = set()
        last_alloc = -1
        for q in self._scan_order[state.alloc_ptr]:
            if queue_alloc[q] >= 0:
                continue
            queue = queues[q]
            if queue.count == 0:
                continue
            head = queue.mem[queue.rd]
            if (head >> data_width) & 3 != head_type:
                continue
            header = Header.decode(head & payload_mask)
            out_port = int(self.route(self.dest_index(header)))
            in_vc = q % n_vcs
            in_port = q // n_vcs
            if header.gt:
                if in_vc not in self.cfg.gt_vcs:
                    raise ProtocolError(
                        f"router {self.position}: GT head on non-GT VC {in_vc}"
                    )
                candidates: Sequence[int] = (in_vc,)
            else:
                candidates = self.be_candidates(in_port, in_vc, out_port)
            for vc_out in candidates:
                ovc = out_port * n_vcs + vc_out
                if alloc[ovc] < 0 and ovc not in claimed:
                    decisions.append((q, ovc))
                    claimed.add(ovc)
                    last_alloc = q
                    break
        return decisions, last_alloc

    def next_state(
        self,
        state: RouterState,
        inputs: RouterInputs,
        grants: Optional[Sequence[Grant]] = None,
        strict: bool = True,
        in_place: bool = False,
        allocation=None,
    ) -> RouterState:
        """Next-state function.

        ``grants`` may be passed in when the caller already ran
        :meth:`output_words` (the three-phase network step does); when
        omitted they are recomputed from ``inputs.room``.  Likewise
        ``allocation``, the ``(decisions, last queue)`` pair of
        :meth:`allocation_decisions` for ``state``.  ``strict``
        controls overflow checking (see :meth:`FlitQueue.push`); the
        sequential simulator disables it because provisional evaluations
        may see stale room wires.  ``in_place=True`` mutates ``state``
        instead of copying — only valid when the caller no longer needs
        the old state (the cycle engine's phase 3 qualifies; the
        sequential simulator, which re-evaluates from the old bank, must
        copy).
        """
        if grants is None:
            _, grants = self.output_words(state, inputs.room)
        # Allocation decisions observe the pre-update state only.
        if allocation is None:
            allocation = self.allocation_decisions(state)
        decisions, last_alloc = allocation
        idle_type = self._idle_type
        data_width = self._data_width
        if not in_place and not decisions:
            # Identity-preserving no-op: nothing popped, pushed, or
            # allocated means the next state *is* the current state.
            # Returning the same object (rather than an equal copy) lets
            # the sequential simulator's identity-keyed memos survive
            # across cycles for blocked-but-occupied routers.
            for g in grants:
                if g is not None:
                    break
            else:
                for w in inputs.fwd:
                    if (w >> data_width) & 3 != idle_type:
                        break
                else:
                    return state
        if in_place:
            new = state
            cow = False
        else:
            # Copy-on-write: alias the old queues and clone one only
            # right before mutating it.  Most cycles touch 0-3 of the 20
            # queues, so this replaces the dominant cost of a full
            # state.copy().  The old state's queues are never mutated
            # through the aliases (pops/pushes below go through the
            # clone), which is exactly the invariant the sequential
            # simulator's re-evaluation from the old bank relies on.
            new = RouterState.__new__(RouterState)
            new.cfg = state.cfg
            new.queues = list(state.queues)
            new.alloc = list(state.alloc)
            new.queue_alloc = list(state.queue_alloc)
            new.arb_ptr = list(state.arb_ptr)
            new.alloc_ptr = state.alloc_ptr
            new.flags = state.flags
            cow = True
        queues = new.queues
        shared = state.queues

        # 1. Pops: granted queues emit their head; TAIL releases the VC.
        tail_type = self._tail_type
        for p, grant in enumerate(grants):
            if grant is None:
                continue
            q, ovc = grant
            if cow and queues[q] is shared[q]:
                queues[q] = shared[q].copy()
            word = queues[q].pop()
            new.arb_ptr[p] = q
            if (word >> data_width) & 3 == tail_type:
                new.alloc[ovc] = -1
                new.queue_alloc[q] = -1

        # 2. Pushes: arriving link words go into the addressed VC queue.
        vc_shift = self._vc_shift
        flit_mask = self._flit_mask
        n_vcs = self._n_vcs
        fwd_in = inputs.fwd
        for p in range(self._n_ports):
            word = fwd_in[p]
            if (word >> data_width) & 3 == idle_type:
                continue
            q = p * n_vcs + (word >> vc_shift)
            if cow and queues[q] is shared[q]:
                queues[q] = shared[q].copy()
            queues[q].push(word & flit_mask, strict=strict)

        # 3. Apply the allocation decisions.
        for q, ovc in decisions:
            new.alloc[ovc] = q
            new.queue_alloc[q] = ovc
        if last_alloc >= 0:
            new.alloc_ptr = last_alloc
        return new

    # -- single-shot evaluation (used by the sequential simulator) -----------
    def eval(
        self, state: RouterState, inputs: RouterInputs, strict: bool = True
    ) -> Tuple[RouterOutputs, RouterState]:
        """Evaluate the full router once: outputs and next state.

        This is the combinational function H(x) of the paper's Figure 4b:
        outputs from (state, inputs), next state into the other memory
        bank.  Re-evaluations after an input change simply call this
        again with the same old state.
        """
        room_out = self.room_mask(state)
        fwd_out, grants = self.output_words(state, inputs.room)
        new = self.next_state(state, inputs, grants, strict=strict)
        return RouterOutputs(fwd=fwd_out, room=room_out), new
