"""Tests for the Table-1 state-word layout: the published bit budget and
lossless pack/unpack of live simulation state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import BitVector
from repro.engines.eventlog import PackedLog, pack_records
from repro.noc import Network, NetworkConfig, RouterConfig
from repro.noc.layout import (
    control_layout,
    links_layout,
    pack_router_core,
    pack_stimuli,
    queue_storage_layout,
    state_word_layout,
    stimuli_layout,
    table1,
    unpack_router_core,
    unpack_stimuli,
)
from repro.noc.network import EjectionRecord, InjectionRecord

from tests.helpers import PacketDriver, be_packet, gt_packet


class TestTable1Numbers:
    """The headline reproduction: Table 1 derived from the default config."""

    def test_input_queues_1440(self):
        assert queue_storage_layout(RouterConfig()).total_width == 1440

    def test_control_292(self):
        assert control_layout(RouterConfig()).total_width == 292

    def test_links_200(self):
        assert links_layout(RouterConfig()).total_width == 200

    def test_stimuli_180(self):
        assert stimuli_layout(RouterConfig()).total_width == 180

    def test_total_2112(self):
        assert state_word_layout(RouterConfig()).total_width == 2112

    def test_table1_dict(self):
        rows = table1(RouterConfig())
        assert rows == {
            "Input queues": 1440,
            "Router control and arbitration": 292,
            "Links": 200,
            "Stimuli interfaces": 180,
            "Total": 2112,
        }

    def test_scales_with_queue_depth(self):
        """Section 6: smaller FPGAs -> reduce queue depth. The layout
        follows the parameters instead of hard-coding Table 1."""
        rows = table1(RouterConfig(queue_depth=2))
        assert rows["Input queues"] == 720
        # rd/wr pointers shrink to 1 bit, counters to 2 bits.
        assert rows["Router control and arbitration"] == 292 - 20 * 3

    def test_scales_with_data_width(self):
        rows = table1(RouterConfig(data_width=14))
        assert rows["Input queues"] == 5 * 4 * 4 * 16


class TestPackUnpack:
    def _active_network(self, depth=4):
        cfg = NetworkConfig(3, 3, router=RouterConfig(queue_depth=depth))
        network = Network(cfg)
        driver = PacketDriver(network)
        for seq in range(6):
            driver.send(
                be_packet(cfg, seq % 9, (seq * 3 + 1) % 9, nbytes=20, seq=seq), vc=2 + seq % 2
            )
        driver.send(gt_packet(cfg, 0, 5, nbytes=30), vc=0)
        driver.run(12)  # stop mid-flight: queues, allocations, pointers live
        return network

    def test_router_core_roundtrip_live_states(self):
        network = self._active_network()
        cfg = network.cfg.router
        assert network.total_buffered() > 0, "test needs in-flight traffic"
        for state in network.states:
            word = pack_router_core(cfg, state)
            assert word.width == 1440 + 292
            recovered = unpack_router_core(cfg, word)
            assert recovered == state
            assert recovered.queue_alloc == state.queue_alloc

    def test_stimuli_roundtrip_live_states(self):
        network = self._active_network()
        cfg = network.cfg.router
        for state in network.iface_states:
            word = pack_stimuli(cfg, state)
            assert word.width == 180
            assert unpack_stimuli(cfg, word) == state

    def test_roundtrip_with_depth_2(self):
        network = self._active_network(depth=2)
        cfg = network.cfg.router
        for state in network.states:
            word = pack_router_core(cfg, state)
            assert unpack_router_core(cfg, word) == state

    def test_fresh_state_packs_to_known_word(self):
        """A reset router packs deterministically (pointers at init values)."""
        from repro.noc.router import RouterState

        cfg = RouterConfig()
        word = pack_router_core(cfg, RouterState(cfg))
        again = pack_router_core(cfg, RouterState(cfg))
        assert word == again
        assert isinstance(word, BitVector)

    def test_eval_commutes_with_packing(self):
        """pack -> unpack -> eval == eval directly (bit accuracy of the
        memory representation, the property the FPGA design relies on)."""
        from repro.noc.router import RouterInputs

        network = self._active_network()
        cfg = network.cfg.router
        for index in range(network.cfg.n_routers):
            state = network.states[index]
            inputs = network.current_inputs(index)
            router = network.routers[index]
            out_direct, next_direct = router.eval(state, inputs)
            roundtripped = unpack_router_core(cfg, pack_router_core(cfg, state))
            out_packed, next_packed = router.eval(roundtripped, inputs)
            assert out_direct == out_packed
            assert next_direct == next_packed


class TestEventLayout:
    """The packed words of a logged event: records in, the same records
    out, at every field's extremes; a value past its field raises and
    never wraps."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_records_round_trip_through_packed_words(self, data):
        n_vcs = data.draw(st.sampled_from([1, 2, 4, 8, 12]))
        data_width = data.draw(st.sampled_from([16, 32, 56]))
        layout = RouterConfig(n_vcs=n_vcs, data_width=data_width, gt_vcs=frozenset()).event_layout
        top = {name: (1 << field.width) - 1 for name, field in layout.fields.items()}

        def value(name, high):
            return data.draw(st.one_of(st.just(0), st.just(high), st.integers(0, high)))

        records = []
        for _ in range(data.draw(st.integers(1, 8))):
            fields = (
                value("cycle", top["cycle"]),
                value("router", NetworkConfig.MAX_ROUTERS - 1),
                value("vc", n_vcs - 1),
                value("flit", top["flit"]),
            )
            if data.draw(st.booleans()):
                records.append(InjectionRecord(*fields, value("delay", 0xFFFFF)))
            else:
                records.append(EjectionRecord(*fields))
        for kind in (InjectionRecord, EjectionRecord):
            mine = [r for r in records if type(r) is kind]
            block = pack_records(layout, mine)
            assert block.dtype == np.int64 and block.shape == (2, len(mine))
            assert (block >= 0).all()  # 63 bits a word: never the sign bit
            log = PackedLog(kind, layout, 1)
            log.append(block, np.array([len(mine)]))
            assert log.views[0] == mine and list(log.views[0]) == mine

    def test_the_cycle_takes_the_bits_left_in_word_zero(self):
        cfg = RouterConfig()
        assert cfg.event_layout is cfg.event_layout  # built once a configuration
        assert cfg.event_layout.fields["cycle"].width == 33
        # the compiled body's most VCs (12: four VC bits) leave 31
        wide = RouterConfig(n_vcs=12).event_layout
        assert wide.fields["cycle"].width == 31 and wide.word.total_width == 63

    @pytest.mark.parametrize("name", ["cycle", "router", "vc", "flit", "delay"])
    def test_a_value_past_its_field_raises(self, name):
        layout = RouterConfig().event_layout
        event = dict(cycle=7, router=3, vc=1, flit=5, delay=2)
        past = 1 << layout.fields[name].width
        for bad in (past, -1):
            with pytest.raises(ValueError, match=f"field '{name}': value .* does not fit in"):
                layout.pack(**{**event, name: bad})
        # the largest value that fits reads back as itself
        top = dict(event, **{name: past - 1})
        assert [int(v[0]) for v in layout.unpack(layout.pack(**top))] == [
            top[field] for field in ("cycle", "router", "vc", "flit", "delay")
        ]
