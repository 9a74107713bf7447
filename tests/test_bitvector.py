"""Unit and property tests for repro.bits.bitvector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import BitVector, bv, concat, ones, zeros


class TestConstruction:
    def test_basic(self):
        v = BitVector(8, 0xAB)
        assert v.width == 8
        assert v.value == 0xAB
        assert int(v) == 0xAB

    def test_zero_width(self):
        v = BitVector(0)
        assert v.width == 0
        assert v.value == 0
        assert not v

    def test_value_too_large(self):
        with pytest.raises(ValueError):
            BitVector(4, 16)

    def test_negative_width(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_negative_value_wraps_twos_complement(self):
        assert BitVector(8, -1).value == 0xFF
        assert BitVector(8, -128).value == 0x80

    def test_immutable(self):
        v = bv(8, 1)
        with pytest.raises(AttributeError):
            v.value = 2  # type: ignore[misc]

    def test_repr_and_binary(self):
        assert "0xab" in repr(bv(8, 0xAB))
        assert bv(4, 0b1010).to_binary() == "1010"
        assert bv(0).to_binary() == ""


class TestEquality:
    def test_eq_same_width(self):
        assert bv(8, 5) == bv(8, 5)
        assert bv(8, 5) != bv(8, 6)

    def test_eq_different_width_is_not_equal(self):
        assert bv(8, 5) != bv(9, 5)

    def test_eq_int(self):
        assert bv(8, 5) == 5
        assert bv(8, 5) != 6

    def test_hashable(self):
        assert hash(bv(8, 5)) == hash(bv(8, 5))
        assert len({bv(8, 5), bv(8, 5), bv(9, 5)}) == 2


class TestLogic:
    def test_and_or_xor(self):
        a, b = bv(4, 0b1100), bv(4, 0b1010)
        assert (a & b).value == 0b1000
        assert (a | b).value == 0b1110
        assert (a ^ b).value == 0b0110

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            bv(4, 1) & bv(5, 1)

    def test_invert(self):
        assert (~bv(4, 0b1100)).value == 0b0011

    def test_int_operand_is_masked(self):
        assert (bv(4, 0b1111) & 0xFF).value == 0b1111


class TestArithmetic:
    def test_add_wraps(self):
        assert (bv(4, 15) + 1).value == 0
        assert (bv(4, 7) + bv(4, 9)).value == 0

    def test_sub_wraps(self):
        assert (bv(4, 0) - 1).value == 15

    def test_shifts(self):
        assert (bv(4, 0b0011) << 2).value == 0b1100
        assert (bv(4, 0b1100) << 2).value == 0b0000  # shifted out
        assert (bv(4, 0b1100) >> 2).value == 0b0011

    def test_negative_shift_raises(self):
        with pytest.raises(ValueError):
            bv(4, 1) << -1
        with pytest.raises(ValueError):
            bv(4, 1) >> -1


class TestSlicing:
    def test_bit(self):
        v = bv(4, 0b1010)
        assert v.bit(0) == 0
        assert v.bit(1) == 1
        assert v.bit(3) == 1

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            bv(4, 0).bit(4)

    def test_getitem_int(self):
        v = bv(4, 0b1010)
        assert v[1] == bv(1, 1)
        assert v[-1] == bv(1, 1)

    def test_getitem_slice(self):
        v = bv(8, 0xA5)
        assert v[0:4] == bv(4, 0x5)
        assert v[4:8] == bv(4, 0xA)
        assert v[:] == v

    def test_hw_slice(self):
        v = bv(8, 0xA5)
        assert v.slice(7, 4) == bv(4, 0xA)
        with pytest.raises(ValueError):
            v.slice(0, 4)

    def test_slice_no_step(self):
        with pytest.raises(ValueError):
            bv(8, 0)[::2]

    def test_iter_lsb_first(self):
        assert list(bv(4, 0b1010)) == [0, 1, 0, 1]


class TestStructural:
    def test_concat_msb_first(self):
        c = concat(bv(4, 0xA), bv(4, 0x5))
        assert c == bv(8, 0xA5)

    def test_concat_empty(self):
        assert concat() == bv(0)

    def test_ones_zeros(self):
        assert ones(4).value == 0xF
        assert zeros(4).value == 0


# -- property tests ---------------------------------------------------------

widths = st.integers(min_value=1, max_value=96)


@st.composite
def vec(draw, width=None):
    w = draw(widths) if width is None else width
    return BitVector(w, draw(st.integers(min_value=0, max_value=(1 << w) - 1)))


@given(vec())
def test_double_invert_identity(v):
    assert ~~v == v


@given(st.data())
def test_xor_self_is_zero(data):
    v = data.draw(vec())
    assert (v ^ v).value == 0


@given(st.data())
def test_and_or_de_morgan(data):
    w = data.draw(widths)
    a = data.draw(vec(width=w))
    b = data.draw(vec(width=w))
    assert ~(a & b) == (~a | ~b)


@given(st.data())
def test_add_sub_roundtrip(data):
    w = data.draw(widths)
    a = data.draw(vec(width=w))
    b = data.draw(vec(width=w))
    assert (a + b) - b == a


@given(vec())
def test_concat_split_roundtrip(v):
    if v.width < 2:
        return
    cut = v.width // 2
    low, high = v[0:cut], v[cut : v.width]
    assert concat(high, low) == v


@given(vec())
def test_iter_matches_bits(v):
    assert list(v) == [v.bit(i) for i in range(v.width)]


@given(st.data())
def test_with_field_extract_roundtrip(data):
    v = data.draw(vec())
    if v.width == 0:
        return
    fw = data.draw(st.integers(min_value=1, max_value=v.width))
    lsb = data.draw(st.integers(min_value=0, max_value=v.width - fw))
    field = data.draw(vec(width=fw))
    inserted = concat(v[lsb + fw : v.width], field, v[0:lsb])
    assert inserted[lsb : lsb + fw] == field
