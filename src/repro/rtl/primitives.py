"""Reusable RTL building blocks on the event-driven kernel.

These are the generic primitives the structural router description is
assembled from: synchronous FIFOs and the round-robin grant function.
Each primitive registers its own processes; designs only wire signals
together.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bits.bitvector import BitVector
from repro.rtl.module import Module
from repro.rtl.signal import Signal
from repro.rtl.simulator import Simulator


class SyncFifo(Module):
    """Synchronous FIFO with registered storage, the RTL analogue of the
    router's per-VC input queue.

    Interface (all synchronous to ``clk`` rising edge):

    * ``push`` (in, 1b) with ``data_in`` (in): enqueue when asserted.
      Caller must honour ``full`` — pushing when full raises, mirroring an
      assertion in the VHDL testbench.
    * ``pop`` (in, 1b): dequeue when asserted. Popping empty raises.
    * ``head`` (out): data at the front (valid when not ``empty``).
    * ``count`` (out): current occupancy.
    * ``empty`` / ``full`` (out, 1b).

    Push and pop in the same cycle are allowed (simultaneous
    enqueue/dequeue keeps the occupancy constant).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        clk: Signal,
        depth: int,
        width: int,
        parent: Optional[Module] = None,
    ) -> None:
        super().__init__(sim, name, parent)
        if depth < 1:
            raise ValueError("FIFO depth must be >= 1")
        self.depth = depth
        self.width = width
        self.clk = clk
        self.push = self.signal("push", 1)
        self.pop = self.signal("pop", 1)
        self.data_in = self.signal("data_in", width)
        self.head = self.signal("head", width)
        self.count = self.signal("count", (depth).bit_length())
        self.empty = self.signal("empty", 1, reset=1)
        self.full = self.signal("full", 1)
        # Storage and pointers are plain Python state updated on the edge;
        # the observable outputs (head/count/empty/full) are signals.
        self._mem: List[BitVector] = [BitVector(width) for _ in range(depth)]
        self._rd = 0
        self._wr = 0
        self._occupancy = 0
        self._prev_clk = clk.uint  # no spurious edge when clk resets high

        def proc() -> None:
            rising = self._prev_clk == 0 and clk.uint == 1
            self._prev_clk = clk.uint
            if not rising:
                return
            do_push = self.push.uint == 1
            do_pop = self.pop.uint == 1
            if do_pop:
                if self._occupancy == 0:
                    raise RuntimeError(f"{self.path}: pop on empty FIFO")
                self._rd = (self._rd + 1) % depth
                self._occupancy -= 1
            if do_push:
                if self._occupancy == depth:
                    raise RuntimeError(f"{self.path}: push on full FIFO")
                self._mem[self._wr] = self.data_in.value
                self._wr = (self._wr + 1) % depth
                self._occupancy += 1
            self.count.assign(self._occupancy)
            self.empty.assign(1 if self._occupancy == 0 else 0)
            self.full.assign(1 if self._occupancy == depth else 0)
            head = self._mem[self._rd] if self._occupancy else BitVector(width)
            self.head.assign(head)

        self.process("fifo", proc, sensitivity=[clk])

    def peek(self, index: int) -> BitVector:
        """Debug access: the ``index``-th element from the front."""
        if index >= self._occupancy:
            raise IndexError("peek beyond occupancy")
        return self._mem[(self._rd + index) % self.depth]


def round_robin_grant(requests: int, width: int, last_grant: int) -> int:
    """Pure round-robin arbitration function.

    Returns the index of the granted requester, scanning from
    ``last_grant + 1`` upwards (mod ``width``), or ``-1`` when there are no
    requests.  This single function is shared by the RTL arbiter below,
    the functional router model and the sequential simulator's scheduler,
    so all engines arbitrate identically — a prerequisite for bit
    equivalence.
    """
    if requests == 0:
        return -1
    for offset in range(1, width + 1):
        index = (last_grant + offset) % width
        if (requests >> index) & 1:
            return index
    return -1
