"""Unit tests for the sequential simulator's building blocks:
state memory, link memory (HBR protocol), scheduler, metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seqsim import DeltaMetrics, LinkMemory, PackedStateMemory, RoundRobinScheduler
from repro.seqsim.linkmem import WireSpec


class TestPackedStateMemory:
    def test_read_your_own_bank(self):
        mem = PackedStateMemory(depth=4, width=16)
        mem.initialize(2, 0xABCD)
        assert mem.read(2) == 0xABCD

    def test_write_goes_to_other_bank(self):
        mem = PackedStateMemory(depth=4, width=16)
        mem.initialize(0, 0x1111)
        mem.write(0, 0x2222)
        assert mem.read(0) == 0x1111  # still the old value
        mem.swap()
        assert mem.read(0) == 0x2222

    def test_swap_alternates_banks(self):
        mem = PackedStateMemory(depth=2, width=8)
        assert mem.current_bank == 0
        mem.swap()
        assert mem.current_bank == 1
        mem.swap()
        assert mem.current_bank == 0

    def test_ping_pong_two_cycles(self):
        """Even/odd system cycles use opposite banks (paper section 4.1)."""
        mem = PackedStateMemory(depth=1, width=8)
        mem.initialize(0, 1)
        for expected in (1, 2, 3, 4):
            assert mem.read(0) == expected
            mem.write(0, expected + 1)
            mem.swap()

    def test_write_current_for_software_loads(self):
        mem = PackedStateMemory(depth=2, width=8)
        mem.write_current(1, 0x55)
        assert mem.read(1) == 0x55

    def test_bounds_and_width_checks(self):
        mem = PackedStateMemory(depth=2, width=8)
        with pytest.raises(IndexError):
            mem.read(2)
        with pytest.raises(ValueError):
            mem.write(0, 0x100)
        with pytest.raises(ValueError):
            PackedStateMemory(depth=0, width=8)

    def test_total_bits(self):
        assert PackedStateMemory(depth=256, width=2112).total_bits == 2 * 256 * 2112

    def test_counters(self):
        mem = PackedStateMemory(depth=2, width=8)
        mem.read(0)
        mem.write(0, 1)
        mem.swap()
        assert (mem.reads, mem.writes, mem.swaps) == (1, 1, 1)


def two_unit_links():
    """unit0 -> w01 -> unit1, unit1 -> w10 -> unit0."""
    return LinkMemory(
        2,
        [
            WireSpec("w01", writer=0, reader=1, width=8),
            WireSpec("w10", writer=1, reader=0, width=8),
        ],
    )


class TestLinkMemoryHbr:
    def test_begin_cycle_clears_everything(self):
        links = two_unit_links()
        links.begin_cycle()
        assert links.hbr == [0, 0]
        assert not links.all_stable()

    def test_read_sets_hbr(self):
        links = two_unit_links()
        links.begin_cycle()
        links.read_inputs(1)  # unit1 reads w01
        assert links.hbr[links.wire_id("w01")] == 1

    def test_unchanged_write_preserves_hbr(self):
        links = two_unit_links()
        links.begin_cycle()
        links.read_inputs(1)
        links.mark_stable(1)
        links.write_outputs(0, [0])  # same value as stored
        assert links.hbr[links.wire_id("w01")] == 1
        assert links.is_stable(1)

    def test_changed_write_invalidates_reader(self):
        """The Fig. 5 delta (1,2) scenario: a link already read is
        rewritten with a different value -> HBR 1->0, reader re-evaluated."""
        links = two_unit_links()
        links.begin_cycle()
        links.read_inputs(1)
        links.mark_stable(1)
        invalidated = links.write_outputs(0, [7])
        assert invalidated == [1]
        assert links.hbr[links.wire_id("w01")] == 0
        assert not links.is_stable(1)

    def test_changed_write_before_read_costs_nothing(self):
        """Fig. 5: updates of yet-unread links 'do not result in extra
        evaluation cycles as the HBR-bit was still zero'."""
        links = two_unit_links()
        links.begin_cycle()
        invalidated = links.write_outputs(0, [7])
        assert invalidated == []

    def test_values_persist_across_cycles(self):
        links = two_unit_links()
        links.begin_cycle()
        links.write_outputs(0, [9])
        links.begin_cycle()
        assert links.read_inputs(1) == [9]

    def test_unit_hbr_group(self):
        links = two_unit_links()
        links.begin_cycle()
        assert links.unit_hbr_group(0) == (0,)
        links.read_inputs(0)
        assert links.unit_hbr_group(0) == (1,)

    def test_total_bits_includes_status(self):
        links = two_unit_links()
        assert links.total_bits == (8 + 1) * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkMemory(1, [WireSpec("w", writer=0, reader=5, width=4)])
        with pytest.raises(ValueError):
            LinkMemory(
                2,
                [
                    WireSpec("w", writer=0, reader=1, width=4),
                    WireSpec("w", writer=1, reader=0, width=4),
                ],
            )
        links = two_unit_links()
        with pytest.raises(ValueError):
            links.write_outputs(0, [1, 2])
        with pytest.raises(ValueError):
            links.write_outputs(0, [0x100])

    def test_value_of_by_name(self):
        links = two_unit_links()
        links.write_outputs(1, [3])
        assert links.value_of("w10") == 3


class TestScheduler:
    def test_scans_in_order(self):
        links = LinkMemory(3, [])
        sched = RoundRobinScheduler(3)
        links.begin_cycle()
        order = []
        while (u := sched.next_unit(links)) is not None:
            order.append(u)
            links.mark_stable(u)
        assert order == [0, 1, 2]

    def test_revisits_destabilised_unit(self):
        links = LinkMemory(
            2, [WireSpec("w", writer=1, reader=0, width=4)]
        )
        sched = RoundRobinScheduler(2)
        links.begin_cycle()
        first = sched.next_unit(links)
        links.read_inputs(first)
        links.mark_stable(first)
        second = sched.next_unit(links)
        links.write_outputs(second, [5])  # invalidates unit 0
        links.mark_stable(second)
        assert not links.is_stable(0)
        assert sched.next_unit(links) == 0
        links.read_inputs(0)
        links.mark_stable(0)
        assert sched.next_unit(links) is None

    def test_pointer_persists_across_cycles(self):
        links = LinkMemory(3, [])
        sched = RoundRobinScheduler(3)
        links.begin_cycle()
        sched.next_unit(links)
        links.mark_stable(0)
        # New cycle: scan continues from unit 1, not unit 0.
        links.begin_cycle()
        assert sched.next_unit(links) == 1

    def test_needs_units(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler(0)


class TestDeltaMetrics:
    def test_floor_enforced(self):
        metrics = DeltaMetrics(n_units=4)
        with pytest.raises(ValueError):
            metrics.record_cycle(3)

    def test_extra_accounting(self):
        metrics = DeltaMetrics(n_units=4)
        metrics.record_cycle(4)
        metrics.record_cycle(6)
        assert metrics.total_deltas == 10
        assert metrics.min_deltas == 8
        assert metrics.extra_deltas == 2
        assert metrics.extra_fraction() == pytest.approx(0.25)
        assert metrics.mean_deltas_per_cycle() == 5.0
        summary = metrics.summary()
        assert summary["max_deltas_per_cycle"] == 6

    def test_empty_metrics(self):
        metrics = DeltaMetrics(n_units=4)
        assert metrics.extra_fraction() == 0.0
        assert metrics.mean_deltas_per_cycle() == 0.0

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50))
    def test_totals_property(self, extras):
        metrics = DeltaMetrics(n_units=7)
        for e in extras:
            metrics.record_cycle(7 + e)
        assert metrics.total_deltas == metrics.min_deltas + metrics.extra_deltas
        assert metrics.extra_deltas == sum(extras)

    #: one booking: ("cycle", deltas), ("cycles", (n, deltas)) or
    #: ("counts", [deltas, ...]) as a list or as a NumPy column
    BOOKINGS = st.one_of(
        st.tuples(st.just("cycle"), st.integers(5, 8)),
        st.tuples(st.just("cycles"), st.tuples(st.integers(0, 300), st.integers(5, 8))),
        st.tuples(
            st.sampled_from(["counts", "column"]),
            st.lists(st.integers(5, 8), max_size=40),
        ),
    )

    @given(st.lists(BOOKINGS, max_size=12))
    def test_runs_read_as_the_per_cycle_list(self, bookings):
        # every mix of bookings reads as the plain per-cycle list would
        metrics, plain = DeltaMetrics(n_units=5), []
        for kind, arg in bookings:
            if kind == "cycle":
                metrics.record_cycle(arg)
                plain.append(arg)
            elif kind == "cycles":
                metrics.record_cycles(*arg)
                plain += [arg[1]] * arg[0]
            else:
                metrics.record_counts(arg if kind == "counts" else np.array(arg, dtype=np.int64))
                plain += arg
        assert metrics.per_cycle == plain
        assert all(type(d) is int for d in metrics.per_cycle)
        # a measured column is one int64 array; neighbouring runs differ,
        # and no run is empty
        chunks = metrics.chunks
        assert all(c.dtype == np.int64 for c in chunks if type(c) is not list)
        assert not any(type(a) is type(b) is list and a[0] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(c[1] > 0 for c in chunks if type(c) is list)
        total, cycles = sum(plain), len(plain)
        extra = total - 5 * cycles
        assert metrics.summary() == {
            "system_cycles": cycles,
            "units": 5,
            "total_deltas": total,
            "min_deltas": 5 * cycles,
            "extra_deltas": extra,
            "extra_fraction": extra / (5 * cycles) if cycles else 0.0,
            "mean_deltas_per_cycle": total / cycles if cycles else 0.0,
            "max_deltas_per_cycle": max(plain, default=0),
        }

    def test_a_fast_forwarded_stretch_is_one_run(self):
        metrics = DeltaMetrics(n_units=36)
        metrics.record_counts([108, 108, 110])
        metrics.record_cycles(198_848, 108)
        metrics.record_cycles(0, 108)
        metrics.record_cycle(108)
        column, stretch = metrics.chunks
        assert column.tolist() == [108, 108, 110] and stretch == [108, 198_849]
        assert metrics.system_cycles == 198_852
        assert metrics.total_deltas == 108 * 198_851 + 110

    def test_the_floor_holds_for_every_booking(self):
        metrics = DeltaMetrics(n_units=4)
        for book in (
            lambda: metrics.record_cycles(3, 3),
            lambda: metrics.record_counts([4, 3, 4]),
            lambda: metrics.record_counts(np.array([3])),
        ):
            with pytest.raises(ValueError):
                book()
        with pytest.raises(ValueError):
            metrics.record_cycles(-1, 4)
        assert metrics.per_cycle == [] and metrics.system_cycles == 0
