"""Tests for RTL primitives: FIFOs and the round-robin grant function."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rtl import Simulator
from repro.rtl.primitives import SyncFifo, round_robin_grant


def make_clock(sim):
    clk = sim.signal("clk", 1)
    sim.every_step("clkgen", lambda: clk.assign(clk.uint ^ 1))
    return clk


def full_cycle(sim):
    """Advance one full clock period (rising then falling edge)."""
    sim.step(2)


class TestSyncFifo:
    def make(self, depth=4, width=8):
        sim = Simulator()
        clk = make_clock(sim)
        fifo = SyncFifo(sim, "q", clk, depth=depth, width=width)
        sim.initialize()
        return sim, fifo

    def push(self, sim, fifo, value):
        fifo.push.assign(1)
        fifo.data_in.assign(value)
        full_cycle(sim)
        fifo.push.assign(0)

    def pop(self, sim, fifo):
        head = fifo.head.uint
        fifo.pop.assign(1)
        full_cycle(sim)
        fifo.pop.assign(0)
        return head

    def test_starts_empty(self):
        _, fifo = self.make()
        assert fifo.empty.uint == 1
        assert fifo.count.uint == 0

    def test_fifo_order(self):
        sim, fifo = self.make()
        for v in [3, 1, 4, 1]:
            self.push(sim, fifo, v)
        assert fifo.count.uint == 4
        assert fifo.full.uint == 1
        assert [self.pop(sim, fifo) for _ in range(4)] == [3, 1, 4, 1]
        assert fifo.empty.uint == 1

    def test_simultaneous_push_pop_keeps_occupancy(self):
        sim, fifo = self.make()
        self.push(sim, fifo, 10)
        fifo.push.assign(1)
        fifo.data_in.assign(20)
        fifo.pop.assign(1)
        full_cycle(sim)
        fifo.push.assign(0)
        fifo.pop.assign(0)
        full_cycle(sim)
        assert fifo.count.uint == 1
        assert fifo.head.uint == 20

    def test_overflow_raises(self):
        sim, fifo = self.make(depth=1)
        self.push(sim, fifo, 1)
        with pytest.raises(RuntimeError, match="push on full"):
            self.push(sim, fifo, 2)

    def test_underflow_raises(self):
        sim, fifo = self.make()
        with pytest.raises(RuntimeError, match="pop on empty"):
            self.pop(sim, fifo)

    def test_peek(self):
        sim, fifo = self.make()
        self.push(sim, fifo, 5)
        self.push(sim, fifo, 6)
        assert fifo.peek(0).value == 5
        assert fifo.peek(1).value == 6
        with pytest.raises(IndexError):
            fifo.peek(2)

    def test_depth_must_be_positive(self):
        sim = Simulator()
        clk = make_clock(sim)
        with pytest.raises(ValueError):
            SyncFifo(sim, "q", clk, depth=0, width=8)


class TestRoundRobinGrantFunction:
    def test_no_requests(self):
        assert round_robin_grant(0, 8, 3) == -1

    def test_picks_next_after_pointer(self):
        assert round_robin_grant(0b10101, 5, 0) == 2
        assert round_robin_grant(0b10101, 5, 2) == 4
        assert round_robin_grant(0b10101, 5, 4) == 0

    def test_wraps(self):
        assert round_robin_grant(0b00001, 5, 4) == 0
        assert round_robin_grant(0b00001, 5, 0) == 0  # self again

    @given(
        st.integers(min_value=1, max_value=2**10 - 1),
        st.integers(min_value=0, max_value=9),
    )
    def test_grant_is_a_requester(self, req, last):
        g = round_robin_grant(req, 10, last)
        assert (req >> g) & 1

    @given(
        st.integers(min_value=0, max_value=2**20 - 1),
        st.integers(min_value=0, max_value=19),
    )
    def test_bit_scan_equivalent(self, req, last):
        """The router's inlined bit-scan arbiter (noc.router.output_words)
        must agree with the canonical scan for every request/pointer pair."""
        if req:
            above = req >> (last + 1)
            if above:
                g = (above & -above).bit_length() + last
            else:
                g = (req & -req).bit_length() - 1
        else:
            g = -1
        assert g == round_robin_grant(req, 20, last)

    @given(st.integers(min_value=0, max_value=9))
    def test_fairness_cycle(self, start):
        """Granting everyone in turn visits all requesters in 10 steps."""
        req = (1 << 10) - 1
        seen = []
        pointer = start
        for _ in range(10):
            g = round_robin_grant(req, 10, pointer)
            seen.append(g)
            pointer = g
        assert sorted(seen) == list(range(10))
