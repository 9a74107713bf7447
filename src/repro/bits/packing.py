"""Declarative packing of named fields into flat bit vectors.

The paper extracts *all* registers of the router design and concatenates
them into one wide memory word (2112 bits, Table 1).  ``StructLayout``
provides exactly that transformation for our Python state objects: a
layout is an ordered list of named fields; :meth:`StructLayout.pack`
produces the flat word, :meth:`StructLayout.unpack` recovers every field
bit-exactly.  Layouts can be nested and contain arrays, which is how the
per-queue/per-VC state of the router is laid out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Union

from repro.bits.bitvector import BitVector

PackedValue = Union[int, BitVector, Mapping[str, "PackedValue"], Sequence["PackedValue"]]


@dataclass(frozen=True)
class Field:
    """A scalar field: ``width`` bits stored under ``name``."""

    name: str
    width: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"field {self.name!r}: negative width {self.width}")

    @property
    def total_width(self) -> int:
        return self.width


@dataclass(frozen=True)
class ArrayField:
    """An array of ``count`` identical elements (fields or sub-layouts)."""

    name: str
    element: Union[Field, "StructLayout", "ArrayField"]
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"array {self.name!r}: negative count {self.count}")

    @property
    def total_width(self) -> int:
        return self.element.total_width * self.count


class StructLayout:
    """An ordered collection of fields packed LSB-first.

    The first declared field occupies the least significant bits, matching
    the order in which the paper's modified VHDL concatenates register
    outputs into the memory word.
    """

    def __init__(self, name: str, members: Sequence[Union[Field, ArrayField, "StructLayout"]]):
        self.name = name
        self.members = list(members)
        names = [m.name for m in self.members]
        if len(names) != len(set(names)):
            raise ValueError(f"layout {name!r} has duplicate member names")
        self._offsets: Dict[str, int] = {}
        offset = 0
        for member in self.members:
            self._offsets[member.name] = offset
            offset += member.total_width
        self._total_width = offset

    @property
    def total_width(self) -> int:
        """Total packed width in bits."""
        return self._total_width

    def offset_of(self, name: str) -> int:
        """Bit offset (LSB position) of a top-level member."""
        return self._offsets[name]

    def member(self, name: str) -> Union[Field, ArrayField, "StructLayout"]:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(name)

    # -- packing --------------------------------------------------------------
    def pack(self, values: Mapping[str, PackedValue]) -> BitVector:
        """Pack a nested mapping of values into a flat :class:`BitVector`.

        Every member must be present; scalar fields accept ``int`` or
        :class:`BitVector` (width-checked), arrays accept sequences of the
        element type, sub-layouts accept mappings.
        """
        missing = [m.name for m in self.members if m.name not in values]
        if missing:
            raise KeyError(f"layout {self.name!r}: missing members {missing}")
        extra = set(values) - {m.name for m in self.members}
        if extra:
            raise KeyError(f"layout {self.name!r}: unknown members {sorted(extra)}")
        word = 0
        offset = 0
        for member in self.members:
            part = _pack_member(member, values[member.name])
            word |= part << offset
            offset += member.total_width
        return BitVector(self._total_width, word)

    def unpack(self, word: BitVector) -> Dict[str, PackedValue]:
        """Unpack a flat word back into a nested mapping of ``int`` values."""
        if word.width != self._total_width:
            raise ValueError(
                f"layout {self.name!r} expects {self._total_width} bits, got {word.width}"
            )
        return _unpack_members(self.members, word.value)

    def describe(self, indent: str = "") -> str:
        """Human-readable summary: one line per member with offsets and widths."""
        lines = [f"{indent}{self.name}: {self._total_width} bits"]
        for member in self.members:
            offset = self._offsets[member.name]
            if isinstance(member, Field):
                lines.append(f"{indent}  [{offset:5d}] {member.name}: {member.width} b")
            elif isinstance(member, ArrayField):
                lines.append(
                    f"{indent}  [{offset:5d}] {member.name}: "
                    f"{member.count} x {member.element.total_width} b = {member.total_width} b"
                )
            else:
                lines.append(
                    f"{indent}  [{offset:5d}] {member.name}: struct, {member.total_width} b"
                )
        return "\n".join(lines)


def _pack_member(member: Union[Field, ArrayField, StructLayout], value: PackedValue) -> int:
    if isinstance(member, Field):
        if isinstance(value, BitVector):
            if value.width != member.width:
                raise ValueError(
                    f"field {member.name!r}: width {value.width} != {member.width}"
                )
            raw = value.value
        elif isinstance(value, int):
            raw = value & ((1 << member.width) - 1) if value < 0 else value
            if raw >> member.width:
                raise ValueError(
                    f"field {member.name!r}: value {value:#x} does not fit in {member.width} bits"
                )
        else:
            raise TypeError(f"field {member.name!r}: cannot pack {type(value).__name__}")
        return raw
    if isinstance(member, ArrayField):
        if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
            raise TypeError(f"array {member.name!r}: expected a sequence")
        if len(value) != member.count:
            raise ValueError(
                f"array {member.name!r}: expected {member.count} elements, got {len(value)}"
            )
        word = 0
        stride = member.element.total_width
        for i, element_value in enumerate(value):
            word |= _pack_member(member.element, element_value) << (i * stride)
        return word
    if isinstance(member, StructLayout):
        if not isinstance(value, Mapping):
            raise TypeError(f"struct {member.name!r}: expected a mapping")
        return member.pack(value).value
    raise TypeError(f"unknown member type {type(member).__name__}")


def _unpack_members(
    members: Sequence[Union[Field, ArrayField, StructLayout]], word: int
) -> Dict[str, PackedValue]:
    result: Dict[str, PackedValue] = {}
    offset = 0
    for member in members:
        raw = (word >> offset) & ((1 << member.total_width) - 1)
        result[member.name] = _unpack_member(member, raw)
        offset += member.total_width
    return result


def _unpack_member(member: Union[Field, ArrayField, StructLayout], raw: int) -> PackedValue:
    if isinstance(member, Field):
        return raw
    if isinstance(member, ArrayField):
        stride = member.element.total_width
        return [
            _unpack_member(member.element, (raw >> (i * stride)) & ((1 << stride) - 1))
            for i in range(member.count)
        ]
    if isinstance(member, StructLayout):
        return _unpack_members(member.members, raw)
    raise TypeError(f"unknown member type {type(member).__name__}")
