"""Immutable fixed-width unsigned bit vectors with hardware semantics.

The semantics mirror what a synthesizable HDL gives you: every vector has
an explicit width, arithmetic wraps modulo ``2**width``, logical operators
require equal widths (no silent zero-extension — width bugs are the
classic source of RTL/simulator mismatches the paper is careful about),
and slicing uses the hardware ``[msb:lsb]`` convention.

``BitVector`` is immutable and hashable so state snapshots can be used as
dictionary keys and compared bit-exactly across simulation engines.
"""

from __future__ import annotations

from typing import Iterator, Union

_IntLike = Union[int, "BitVector"]


class BitVector:
    """A fixed-width unsigned bit vector.

    Parameters
    ----------
    width:
        Number of bits, ``>= 0``. Zero-width vectors are permitted (they
        behave as the empty concatenation identity).
    value:
        Initial unsigned value. Must fit in ``width`` bits; negative
        values are taken as two's complement of the given width.
    """

    __slots__ = ("_width", "_value")

    def __init__(self, width: int, value: int = 0) -> None:
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if value < 0:
            value &= (1 << width) - 1
        if value >> width:
            raise ValueError(f"value {value:#x} does not fit in {width} bits")
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_value", value)

    # -- immutability -----------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BitVector is immutable")

    # -- basic accessors --------------------------------------------------
    @property
    def width(self) -> int:
        """Number of bits in the vector."""
        return self._width

    @property
    def value(self) -> int:
        """Unsigned integer value."""
        return self._value

    def __int__(self) -> int:
        return self._value

    def __index__(self) -> int:
        return self._value

    def __bool__(self) -> bool:
        return self._value != 0

    def __len__(self) -> int:
        return self._width

    def __hash__(self) -> int:
        return hash((self._width, self._value))

    def __repr__(self) -> str:
        return f"BitVector({self._width}, 0x{self._value:0{max(1, (self._width + 3) // 4)}x})"

    def to_binary(self) -> str:
        """Return the value as a ``width``-character binary string (MSB first)."""
        return format(self._value, f"0{self._width}b") if self._width else ""

    # -- comparison ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitVector):
            return self._width == other._width and self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    # -- helpers ------------------------------------------------------------
    def _coerce(self, other: _IntLike) -> int:
        if isinstance(other, BitVector):
            if other._width != self._width:
                raise ValueError(
                    f"width mismatch: {self._width} vs {other._width}"
                )
            return other._value
        if isinstance(other, int):
            return other & self.mask
        raise TypeError(f"cannot combine BitVector with {type(other).__name__}")

    @property
    def mask(self) -> int:
        """All-ones mask of this vector's width."""
        return (1 << self._width) - 1

    # -- bitwise logic ------------------------------------------------------
    def __and__(self, other: _IntLike) -> "BitVector":
        return BitVector(self._width, self._value & self._coerce(other))

    def __or__(self, other: _IntLike) -> "BitVector":
        return BitVector(self._width, self._value | self._coerce(other))

    def __xor__(self, other: _IntLike) -> "BitVector":
        return BitVector(self._width, self._value ^ self._coerce(other))

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__

    def __invert__(self) -> "BitVector":
        return BitVector(self._width, self._value ^ self.mask)

    # -- modular arithmetic ---------------------------------------------------
    def __add__(self, other: _IntLike) -> "BitVector":
        return BitVector(self._width, (self._value + self._coerce(other)) & self.mask)

    def __sub__(self, other: _IntLike) -> "BitVector":
        return BitVector(self._width, (self._value - self._coerce(other)) & self.mask)

    __radd__ = __add__

    def __lshift__(self, amount: int) -> "BitVector":
        if amount < 0:
            raise ValueError("shift amount must be non-negative")
        return BitVector(self._width, (self._value << amount) & self.mask)

    def __rshift__(self, amount: int) -> "BitVector":
        if amount < 0:
            raise ValueError("shift amount must be non-negative")
        return BitVector(self._width, self._value >> amount)

    # -- slicing / bit access -------------------------------------------------
    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = LSB) as ``0`` or ``1``."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit {index} out of range for width {self._width}")
        return (self._value >> index) & 1

    def __getitem__(self, index: Union[int, slice]) -> "BitVector":
        if isinstance(index, int):
            if index < 0:
                index += self._width
            return BitVector(1, self.bit(index))
        if isinstance(index, slice):
            if index.step is not None:
                raise ValueError("BitVector slices do not support a step")
            start = 0 if index.start is None else index.start
            stop = self._width if index.stop is None else index.stop
            # Python-style [lsb:msb+1) over bit indices, LSB-first.
            if not 0 <= start <= stop <= self._width:
                raise IndexError(
                    f"slice [{start}:{stop}] out of range for width {self._width}"
                )
            width = stop - start
            return BitVector(width, (self._value >> start) & ((1 << width) - 1))
        raise TypeError(f"invalid index {index!r}")

    def slice(self, msb: int, lsb: int) -> "BitVector":
        """Hardware-style ``[msb:lsb]`` inclusive slice."""
        if msb < lsb:
            raise ValueError(f"msb {msb} < lsb {lsb}")
        return self[lsb : msb + 1]

    def __iter__(self) -> Iterator[int]:
        """Iterate bits LSB-first."""
        value = self._value
        for _ in range(self._width):
            yield value & 1
            value >>= 1


def bv(width: int, value: int = 0) -> BitVector:
    """Shorthand constructor for :class:`BitVector`."""
    return BitVector(width, value)


def zeros(width: int) -> BitVector:
    """All-zeros vector of ``width`` bits."""
    return BitVector(width, 0)


def ones(width: int) -> BitVector:
    """All-ones vector of ``width`` bits."""
    return BitVector(width, (1 << width) - 1)


def concat(*parts: BitVector) -> BitVector:
    """Concatenate vectors, first argument becoming the most significant part.

    Mirrors the VHDL/Verilog ``{a, b, c}`` concatenation order:
    ``concat(a, b).value == (a.value << b.width) | b.value``.
    """
    width = 0
    value = 0
    for part in parts:
        width += part.width
        value = (value << part.width) | part.value
    return BitVector(width, value)


def parity(value: int | BitVector) -> int:
    """Even-parity bit of an unsigned word: 1 iff an odd number of bits
    are set.

    This is the check bit the fault-protected state memory stores next
    to every packed word — a single-bit upset anywhere in the word flips
    the parity and is therefore always detectable.
    """
    if isinstance(value, BitVector):
        value = value.value
    if value < 0:
        raise ValueError("parity is defined for unsigned words")
    return value.bit_count() & 1
