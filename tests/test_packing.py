"""Tests for repro.bits.packing (StructLayout / field packing)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import ArrayField, BitVector, Field, StructLayout, bv


@pytest.fixture
def flit_layout():
    return StructLayout("flit", [Field("data", 16), Field("type", 2)])


@pytest.fixture
def router_like_layout(flit_layout):
    return StructLayout(
        "router",
        [
            ArrayField("queues", ArrayField("entries", flit_layout, 4), 3),
            Field("pointer", 5),
            StructLayout("flags", [Field("busy", 1), Field("error", 1)]),
        ],
    )


class TestLayoutBasics:
    def test_total_width(self, flit_layout):
        assert flit_layout.total_width == 18

    def test_nested_total_width(self, router_like_layout):
        assert router_like_layout.total_width == 3 * 4 * 18 + 5 + 2

    def test_offsets_lsb_first(self, flit_layout):
        assert flit_layout.offset_of("data") == 0
        assert flit_layout.offset_of("type") == 16

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            StructLayout("bad", [Field("x", 1), Field("x", 2)])

    def test_member_lookup(self, flit_layout):
        assert flit_layout.member("data").width == 16
        with pytest.raises(KeyError):
            flit_layout.member("nope")

    def test_describe_mentions_members(self, router_like_layout):
        text = router_like_layout.describe()
        assert "queues" in text and "pointer" in text and "221" in text


class TestPacking:
    def test_scalar_pack_unpack(self, flit_layout):
        word = flit_layout.pack({"data": 0xBEEF, "type": 2})
        assert word.width == 18
        assert flit_layout.unpack(word) == {"data": 0xBEEF, "type": 2}

    def test_pack_order(self, flit_layout):
        word = flit_layout.pack({"data": 0xFFFF, "type": 0})
        assert word.value == 0xFFFF
        word = flit_layout.pack({"data": 0, "type": 3})
        assert word.value == 3 << 16

    def test_pack_bitvector_values(self, flit_layout):
        word = flit_layout.pack({"data": bv(16, 1), "type": bv(2, 1)})
        assert flit_layout.unpack(word) == {"data": 1, "type": 1}

    def test_pack_width_mismatch(self, flit_layout):
        with pytest.raises(ValueError):
            flit_layout.pack({"data": bv(8, 1), "type": 0})

    def test_pack_value_overflow(self, flit_layout):
        with pytest.raises(ValueError):
            flit_layout.pack({"data": 1 << 16, "type": 0})

    def test_missing_member(self, flit_layout):
        with pytest.raises(KeyError):
            flit_layout.pack({"data": 0})

    def test_unknown_member(self, flit_layout):
        with pytest.raises(KeyError):
            flit_layout.pack({"data": 0, "type": 0, "bogus": 1})

    def test_unpack_wrong_width(self, flit_layout):
        with pytest.raises(ValueError):
            flit_layout.unpack(bv(17, 0))

    def test_array_pack_roundtrip(self, router_like_layout):
        values = {
            "queues": [
                [{"data": q * 10 + e, "type": e % 4} for e in range(4)]
                for q in range(3)
            ],
            "pointer": 21,
            "flags": {"busy": 1, "error": 0},
        }
        word = router_like_layout.pack(values)
        assert router_like_layout.unpack(word) == values

    def test_array_length_mismatch(self, flit_layout):
        layout = StructLayout("a", [ArrayField("xs", Field("x", 4), 3)])
        with pytest.raises(ValueError):
            layout.pack({"xs": [1, 2]})

    def test_array_type_error(self):
        layout = StructLayout("a", [ArrayField("xs", Field("x", 4), 3)])
        with pytest.raises(TypeError):
            layout.pack({"xs": "abc"})

    def test_negative_scalar_wraps(self, flit_layout):
        word = flit_layout.pack({"data": -1, "type": 0})
        assert flit_layout.unpack(word)["data"] == 0xFFFF


# -- property test: random layouts roundtrip ---------------------------------

scalar_fields = st.integers(min_value=1, max_value=24).map(lambda w: ("field", w))


@st.composite
def random_layout(draw, depth=2):
    n = draw(st.integers(min_value=1, max_value=4))
    members = []
    for i in range(n):
        kind = draw(st.sampled_from(["field", "array", "struct"] if depth else ["field"]))
        if kind == "field":
            members.append(Field(f"f{i}", draw(st.integers(min_value=1, max_value=24))))
        elif kind == "array":
            element = Field("e", draw(st.integers(min_value=1, max_value=8)))
            members.append(ArrayField(f"a{i}", element, draw(st.integers(min_value=1, max_value=4))))
        else:
            members.append(
                StructLayout(f"s{i}", draw(random_layout(depth=depth - 1)).members)
            )
    return StructLayout("root", members)


@st.composite
def layout_values(draw, member):
    if isinstance(member, Field):
        return draw(st.integers(min_value=0, max_value=(1 << member.width) - 1))
    if isinstance(member, ArrayField):
        return [draw(layout_values(member.element)) for _ in range(member.count)]
    return {m.name: draw(layout_values(m)) for m in member.members}


@given(st.data())
def test_random_layout_roundtrip(data):
    layout = data.draw(random_layout())
    values = data.draw(layout_values(layout))
    word = layout.pack(values)
    assert word.width == layout.total_width
    assert layout.unpack(word) == values
