"""The generic sequential-simulation framework of paper section 4.

The NoC instantiation in :mod:`repro.seqsim.sequential` is specialised
to the router's wires; this module keeps the method in its general form
(both run the one :func:`~repro.seqsim.scheduler.converge` loop), usable for
"other parallel systems [...] in particular systolic algorithms with
many equal parts with a small state space" (section 7.1):

* :class:`StaticBlockSimulator` — section 4.1 / Fig. 3: a system whose
  blocks exchange values only through *registers*.  All registers live in
  a double-banked memory; each block is evaluated exactly once per system
  cycle, in **arbitrary order** ("the order in which the circuitry is
  evaluated [...] can be arbitrary"), reading the old bank and writing
  the new bank.

* :class:`DynamicBlockSimulator` — section 4.2 / Fig. 5: blocks also
  drive *combinatorial* output wires.  Wires live in a single-banked link
  memory with HBR status bits; a round-robin scheduler re-evaluates
  non-stable blocks until the network settles, and a block system that
  never settles (a combinational loop) raises
  :class:`~repro.faults.errors.LivelockError`, a :class:`ConvergenceError`,
  past ``MAX_DELTA_FACTOR`` deltas per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.errors import ConvergenceError  # noqa: F401 (re-exported)
from repro.seqsim.linkmem import LinkMemory, WireSpec
from repro.seqsim.metrics import DeltaMetrics
from repro.seqsim.scheduler import ConvergenceWatchdog, RoundRobinScheduler, converge
from repro.seqsim.statemem import PackedStateMemory


# ---------------------------------------------------------------------------
# Section 4.1: registered boundaries, static schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredBlock:
    """A combinatorial circuit F_i(x) between registers (Fig. 2a).

    ``registers`` declares the block's *output* registers (name -> width);
    they are the block's slice of the state memory.  ``fn`` maps the
    block's named inputs to new values for every declared register.
    """

    name: str
    registers: Tuple[Tuple[str, int], ...]  # ordered (name, width)
    fn: Callable[[Mapping[str, int]], Mapping[str, int]]
    reset: Tuple[Tuple[str, int], ...] = ()

    @property
    def word_width(self) -> int:
        return sum(width for _, width in self.registers)

    def pack(self, values: Mapping[str, int]) -> int:
        word = 0
        offset = 0
        for name, width in self.registers:
            value = values[name]
            if value < 0 or value >> width:
                raise ValueError(f"{self.name}.{name}: {value:#x} exceeds {width} bits")
            word |= value << offset
            offset += width
        return word

    def unpack(self, word: int) -> Dict[str, int]:
        values = {}
        offset = 0
        for name, width in self.registers:
            values[name] = (word >> offset) & ((1 << width) - 1)
            offset += width
        return values


class StaticBlockSimulator:
    """Sequential simulation with the Fig. 3 static schedule.

    Connections wire a source block's register to a named input of a
    destination block.  Because sources are registers, every evaluation
    reads the *old* memory bank, so any evaluation order produces the
    same new state — the property :class:`tests` verify explicitly.
    """

    def __init__(self, blocks: Sequence[RegisteredBlock], order: Optional[Sequence[int]] = None):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = list(blocks)
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names")
        self._index = {b.name: i for i, b in enumerate(self.blocks)}
        width = max(b.word_width for b in self.blocks)
        self.memory = PackedStateMemory(depth=len(self.blocks), width=max(1, width))
        for i, block in enumerate(self.blocks):
            values = {name: 0 for name, _ in block.registers}
            values.update(dict(block.reset))
            self.memory.initialize(i, block.pack(values))
        #: (dst_index, input_name) -> (src_index, register_name)
        self.connections: Dict[Tuple[int, str], Tuple[int, str]] = {}
        self.order = list(order) if order is not None else list(range(len(self.blocks)))
        self.cycle = 0
        self.metrics = DeltaMetrics(n_units=len(self.blocks))

    def connect(self, src: str, register: str, dst: str, input_name: str) -> None:
        src_i = self._index[src]
        if register not in dict(self.blocks[src_i].registers):
            raise KeyError(f"{src} has no register {register!r}")
        self.connections[(self._index[dst], input_name)] = (src_i, register)

    def _inputs_of(self, block_index: int) -> Dict[str, int]:
        inputs = {}
        for (dst, input_name), (src, register) in self.connections.items():
            if dst != block_index:
                continue
            values = self.blocks[src].unpack(self.memory.read(src))
            inputs[input_name] = values[register]
        return inputs

    def step(self) -> None:
        """One system cycle: evaluate every block once, swap banks."""
        deltas = 0
        for i in self.order:
            block = self.blocks[i]
            new_values = block.fn(self._inputs_of(i))
            self.memory.write(i, block.pack(new_values))
            deltas += 1
        self.memory.swap()
        self.metrics.record_cycle(deltas)
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def register_value(self, block: str, register: str) -> int:
        i = self._index[block]
        return self.blocks[i].unpack(self.memory.read(i))[register]

    def snapshot(self) -> Tuple[int, ...]:
        return tuple(self.memory.read(i) for i in range(len(self.blocks)))


# ---------------------------------------------------------------------------
# Section 4.2: combinatorial boundaries, dynamic schedule with HBR bits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombBlock:
    """A block with internal registers and combinatorial output wires
    (Fig. 4b: state registers in memory, functions F(x)/G(x) evaluated
    together).

    ``fn(state, inputs) -> (outputs, next_state)`` must be pure; the
    dynamic scheduler may call it several times per system cycle with the
    same old state and progressively better input values.
    """

    name: str
    state_width: int
    in_ports: Tuple[Tuple[str, int], ...]
    out_ports: Tuple[Tuple[str, int], ...]
    fn: Callable[[int, Mapping[str, int]], Tuple[Mapping[str, int], int]]
    reset: int = 0


class DynamicBlockSimulator:
    """Sequential simulation with the Fig. 5 dynamic schedule."""

    MAX_DELTA_FACTOR = 64

    def __init__(self, blocks: Sequence[CombBlock]):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = list(blocks)
        self._index = {b.name: i for i, b in enumerate(self.blocks)}
        if len(self._index) != len(self.blocks):
            raise ValueError("duplicate block names")
        width = max(max(1, b.state_width) for b in self.blocks)
        self.memory = PackedStateMemory(depth=len(self.blocks), width=width)
        for i, block in enumerate(self.blocks):
            self.memory.initialize(i, block.reset)
        self._pending_connect: List[Tuple[int, str, int, str, int]] = []
        self.links: Optional[LinkMemory] = None
        self._in_wires: List[List[Tuple[str, int]]] = [[] for _ in self.blocks]
        self._out_wires: List[List[Tuple[str, int]]] = [[] for _ in self.blocks]
        self.scheduler = RoundRobinScheduler(len(self.blocks))
        self.watchdog = ConvergenceWatchdog(len(self.blocks), self.MAX_DELTA_FACTOR)
        self.metrics = DeltaMetrics(n_units=len(self.blocks))
        self.cycle = 0
        #: trace of (cycle, delta, block) evaluations — lets tests recreate
        #: the schedule tables of Fig. 5
        self.trace: List[Tuple[int, int, int]] = []

    def connect(self, src: str, out_port: str, dst: str, in_port: str) -> None:
        src_i, dst_i = self._index[src], self._index[dst]
        out_widths = dict(self.blocks[src_i].out_ports)
        in_widths = dict(self.blocks[dst_i].in_ports)
        if out_port not in out_widths:
            raise KeyError(f"{src} has no output {out_port!r}")
        if in_port not in in_widths:
            raise KeyError(f"{dst} has no input {in_port!r}")
        if out_widths[out_port] != in_widths[in_port]:
            raise ValueError("port width mismatch")
        self._pending_connect.append((src_i, out_port, dst_i, in_port, out_widths[out_port]))

    def elaborate(self) -> None:
        """Freeze connections into the link memory (idempotent)."""
        if self.links is not None:
            return
        specs = []
        for wid, (src_i, out_port, dst_i, in_port, width) in enumerate(self._pending_connect):
            specs.append(
                WireSpec(
                    f"{self.blocks[src_i].name}.{out_port}->{self.blocks[dst_i].name}.{in_port}",
                    writer=src_i,
                    reader=dst_i,
                    width=width,
                )
            )
            self._in_wires[dst_i].append((in_port, wid))
            self._out_wires[src_i].append((out_port, wid))
        self.links = LinkMemory(len(self.blocks), specs)

    def step(self) -> None:
        self.elaborate()
        self.links.begin_cycle()
        self.watchdog.start_cycle(self.cycle)
        converge(self.links, self.scheduler, self._evaluate_block, self.watchdog)
        self.memory.swap()
        self.metrics.record_cycle(self.watchdog.deltas)
        self.cycle += 1

    def _evaluate_block(self, unit: int) -> None:
        """One delta cycle of block ``unit``: read, evaluate, write."""
        links = self.links
        inputs = {}
        for in_port, wid in self._in_wires[unit]:
            links.hbr[wid] = 1
            inputs[in_port] = links.values[wid]
        outputs, next_state = self.blocks[unit].fn(self.memory.read(unit), inputs)
        # Tentatively stable once its inputs are read; writing a changed
        # value to a self-loop wire must re-destabilise it.
        links.mark_stable(unit)
        links.write_outputs(unit, [outputs[port] for port, _wid in self._out_wires[unit]])
        self.memory.write(unit, next_state)
        self.trace.append((self.cycle, self.watchdog.deltas, unit))

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def state_of(self, name: str) -> int:
        return self.memory.read(self._index[name])

    def wire_value(self, src: str, out_port: str, dst: str, in_port: str) -> int:
        self.elaborate()
        return self.links.value_of(f"{src}.{out_port}->{dst}.{in_port}")
