"""Tests of the generic block framework: the Fig. 3 and Fig. 5 systems."""

import itertools

import pytest

from repro.seqsim.blocks import (
    CombBlock,
    ConvergenceError,
    DynamicBlockSimulator,
    RegisteredBlock,
    StaticBlockSimulator,
)


def fig3_system(order=None):
    """The section 4.1 example: three circuits F1..F3 in a ring, fully
    registered boundaries (Fig. 2a / Fig. 3)."""

    def f1(inputs):
        return {"r": (inputs["x"] + 1) & 0xFF}

    def f2(inputs):
        return {"r": (inputs["x"] * 2) & 0xFF}

    def f3(inputs):
        return {"r": (inputs["x"] ^ 0x5A) & 0xFF}

    blocks = [
        RegisteredBlock("F1", (("r", 8),), f1, reset=(("r", 1),)),
        RegisteredBlock("F2", (("r", 8),), f2),
        RegisteredBlock("F3", (("r", 8),), f3),
    ]
    sim = StaticBlockSimulator(blocks, order=order)
    sim.connect("F3", "r", "F1", "x")
    sim.connect("F1", "r", "F2", "x")
    sim.connect("F2", "r", "F3", "x")
    return sim


def parallel_fig3(cycles):
    """Direct parallel simulation of the same ring for cross-checking."""
    r1, r2, r3 = 1, 0, 0
    for _ in range(cycles):
        r1, r2, r3 = (r3 + 1) & 0xFF, (r1 * 2) & 0xFF, (r2 ^ 0x5A) & 0xFF
    return r1, r2, r3


class TestStaticSchedule:
    def test_matches_parallel_execution(self):
        sim = fig3_system()
        sim.run(10)
        assert (
            sim.register_value("F1", "r"),
            sim.register_value("F2", "r"),
            sim.register_value("F3", "r"),
        ) == parallel_fig3(10)

    def test_any_evaluation_order_is_equivalent(self):
        """Paper section 4.1: 'the order in which the circuitry is
        evaluated [...] can be arbitrary'."""
        reference = fig3_system()
        reference.run(7)
        for order in itertools.permutations(range(3)):
            sim = fig3_system(order=list(order))
            sim.run(7)
            assert sim.snapshot() == reference.snapshot(), order

    def test_delta_count_is_block_count(self):
        sim = fig3_system()
        sim.run(5)
        assert sim.metrics.per_cycle == [3] * 5

    def test_time_multiplexing_factor(self):
        """Simulating sequentially costs a factor n in time (section 4.1:
        'increases the required time to simulate the system by a factor
        three') — visible as 3 evaluations per system cycle."""
        sim = fig3_system()
        sim.run(1)
        assert sim.metrics.total_deltas == 3 * sim.metrics.system_cycles

    def test_register_packing_bounds(self):
        block = RegisteredBlock("B", (("a", 4), ("b", 2)), lambda i: i)
        assert block.word_width == 6
        assert block.pack({"a": 0xF, "b": 1}) == 0x1F
        assert block.unpack(0x1F) == {"a": 0xF, "b": 1}
        with pytest.raises(ValueError):
            block.pack({"a": 16, "b": 0})

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticBlockSimulator([])
        blocks = [
            RegisteredBlock("A", (("r", 4),), lambda i: {"r": 0}),
            RegisteredBlock("A", (("r", 4),), lambda i: {"r": 0}),
        ]
        with pytest.raises(ValueError):
            StaticBlockSimulator(blocks)
        sim = fig3_system()
        with pytest.raises(KeyError):
            sim.connect("F1", "bogus", "F2", "x")


def inc_chain(n, head_state=5):
    """A Mealy chain: head outputs its register; every later block outputs
    input+1 combinationally and latches its input.  This is the Fig. 4
    situation: block i's output is a combinatorial function of block
    i-1's output."""

    def head_fn(state, inputs):
        return {"out": state}, state

    def chain_fn(state, inputs):
        value = (inputs["in"] + 1) & 0xFF
        return {"out": value}, inputs["in"]

    blocks = [CombBlock("b0", 8, (), (("out", 8),), head_fn, reset=head_state)]
    for i in range(1, n):
        blocks.append(
            CombBlock(f"b{i}", 8, (("in", 8),), (("out", 8),), chain_fn)
        )
    sim = DynamicBlockSimulator(blocks)
    for i in range(1, n):
        sim.connect(f"b{i-1}", "out", f"b{i}", "in")
    return sim


class TestDynamicSchedule:
    def test_chain_settles_to_fixed_point(self):
        sim = inc_chain(5)
        sim.step()
        # After one cycle the wire values are head, head+1, ... head+4.
        for i in range(1, 5):
            assert sim.wire_value(f"b{i-1}", "out", f"b{i}", "in") == 5 + i - 1

    def test_every_block_evaluated_at_least_once(self):
        sim = inc_chain(4)
        sim.run(3)
        assert all(d >= 4 for d in sim.metrics.per_cycle)

    def test_forward_order_needs_extra_deltas_once(self):
        """In scan order b0,b1,..., each write lands before its reader
        evaluates, so after the first (settling) cycle the chain costs
        exactly n deltas while values are stable."""
        sim = inc_chain(6)
        sim.run(3)
        # The head register never changes, so from cycle 2 on nothing
        # changes and each cycle is the minimum 6 deltas.
        assert sim.metrics.per_cycle[-1] == 6

    def test_dynamic_matches_direct_computation(self):
        """State after k cycles equals a direct parallel computation."""
        n, k = 5, 4
        sim = inc_chain(n)
        sim.run(k)
        # Parallel semantics: out_i(t) = out_{i-1}(t)+1 (comb), state latches
        # the input, head constant.
        outs = [5] + [0] * (n - 1)
        states = [5] + [0] * (n - 1)
        for _ in range(k):
            new_outs = [states[0]] + [0] * (n - 1)
            for i in range(1, n):
                new_outs[i] = (new_outs[i - 1] + 1) & 0xFF
            new_states = [states[0]] + [new_outs[i - 1] for i in range(1, n)]
            outs, states = new_outs, new_states
        for i in range(n):
            assert sim.state_of(f"b{i}") == states[i]

    def test_trace_records_schedule(self):
        """The trace reproduces a Fig. 5-style schedule table."""
        sim = inc_chain(3)
        sim.step()
        cycle0 = [(d, b) for c, d, b in sim.trace if c == 0]
        blocks_seen = [b for _, b in cycle0]
        assert set(blocks_seen) == {0, 1, 2}
        assert blocks_seen[:3] == [0, 1, 2]  # round-robin scan order

    def test_combinational_loop_detected(self):
        def inverter(state, inputs):
            return {"out": inputs["in"] ^ 1}, state

        blocks = [
            CombBlock("i0", 1, (("in", 1),), (("out", 1),), inverter),
        ]
        sim = DynamicBlockSimulator(blocks)
        sim.connect("i0", "out", "i0", "in")
        # An inverter feeding itself is a ring oscillator: no fixed point.
        with pytest.raises(ConvergenceError):
            sim.run(2)

    def test_a_ring_oscillator_raises_the_packages_livelock_error(self):
        """The block framework settles under the NoC model's watchdog: a
        system that never settles raises ``repro.seqsim``'s
        ``ConvergenceError``, as a ``LivelockError`` naming the unit."""
        import repro.seqsim

        def inverter(state, inputs):
            return {"out": inputs["in"] ^ 1}, state

        sim = DynamicBlockSimulator(
            [CombBlock("i0", 1, (("in", 1),), (("out", 1),), inverter)]
        )
        sim.connect("i0", "out", "i0", "in")
        with pytest.raises(repro.seqsim.ConvergenceError) as excinfo:
            sim.step()
        err = excinfo.value
        assert isinstance(err, repro.seqsim.LivelockError)
        assert err.unstable_units == (0,)
        assert (err.cycle, err.deltas, err.limit) == (0, 65, 64)
        assert err.suspect_wires == ("i0.out->i0.in",)

    def test_cross_coupled_inverters_form_a_latch(self):
        """Two cross-coupled inverters are bistable, not oscillating: the
        dynamic schedule finds one of the two stable fixed points."""

        def inverter(state, inputs):
            return {"out": inputs["in"] ^ 1}, state

        blocks = [
            CombBlock("i0", 1, (("in", 1),), (("out", 1),), inverter),
            CombBlock("i1", 1, (("in", 1),), (("out", 1),), inverter),
        ]
        sim = DynamicBlockSimulator(blocks)
        sim.connect("i0", "out", "i1", "in")
        sim.connect("i1", "out", "i0", "in")
        sim.run(2)
        q = sim.wire_value("i0", "out", "i1", "in")
        nq = sim.wire_value("i1", "out", "i0", "in")
        assert (q, nq) in ((0, 1), (1, 0))

    def test_fanout_wire(self):
        def src_fn(state, inputs):
            return {"out": (state + 1) & 0xF}, (state + 1) & 0xF

        def sink_fn(state, inputs):
            return {}, inputs["in"]

        blocks = [
            CombBlock("src", 4, (), (("out", 4),), src_fn),
            CombBlock("s1", 4, (("in", 4),), (), sink_fn),
            CombBlock("s2", 4, (("in", 4),), (), sink_fn),
        ]
        sim = DynamicBlockSimulator(blocks)
        sim.connect("src", "out", "s1", "in")
        sim.connect("src", "out", "s2", "in")
        sim.run(2)
        assert sim.state_of("s1") == sim.state_of("s2") == 2

    def test_port_width_mismatch(self):
        blocks = [
            CombBlock("a", 4, (), (("out", 4),), lambda s, i: ({"out": 0}, 0)),
            CombBlock("b", 4, (("in", 2),), (), lambda s, i: ({}, 0)),
        ]
        sim = DynamicBlockSimulator(blocks)
        with pytest.raises(ValueError):
            sim.connect("a", "out", "b", "in")
