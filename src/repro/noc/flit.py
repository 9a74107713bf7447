"""Flit and link-word encodings.

A *flit* (flow-control unit, the atomic unit of section 2.1) is a 2-bit
type tag plus a ``data_width``-bit payload — 18 bits with the default
16-bit data path, which is exactly the queue-entry width that makes the
input-queue storage of Table 1 come out at 1440 bits.

On a link the flit additionally carries its VC label ("the flits of a
packet are labelled with their VC number"), giving the 20-bit link word.

Everything in this module is encoded to and from plain integers: the hot
simulation paths operate on the integer encodings, and the
:class:`repro.bits.BitVector` views exist for the packed Table-1 word and
the RTL engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FlitType(enum.IntEnum):
    """2-bit flit type tag."""

    IDLE = 0  # no flit on the wire / empty queue entry
    HEAD = 1  # first flit of a packet; data = routing header
    BODY = 2
    TAIL = 3  # last flit; releases the VC allocation


@dataclass(frozen=True)
class Flit:
    """An immutable flit: type + raw payload bits."""

    ftype: FlitType
    data: int

    def encode(self, data_width: int = 16) -> int:
        """Pack into the queue-entry integer: ``type << data_width | data``."""
        if self.data >> data_width:
            raise ValueError(f"data {self.data:#x} exceeds {data_width} bits")
        return (int(self.ftype) << data_width) | self.data

    @staticmethod
    def decode(word: int, data_width: int = 16) -> "Flit":
        """Inverse of :meth:`encode`."""
        return Flit(FlitType((word >> data_width) & 3), word & ((1 << data_width) - 1))

    @property
    def is_idle(self) -> bool:
        return self.ftype == FlitType.IDLE


IDLE_FLIT = Flit(FlitType.IDLE, 0)


def encode_link_word(vc: int, flit_word: int, data_width: int = 16) -> int:
    """Forward link word: ``vc`` label above the encoded flit."""
    return (vc << (data_width + 2)) | flit_word


def decode_link_word(word: int, data_width: int = 16) -> tuple:
    """Return ``(vc, flit_word)`` from a forward link word."""
    return word >> (data_width + 2), word & ((1 << (data_width + 2)) - 1)


def link_word_type(word: int, data_width: int = 16) -> int:
    """Flit type field of a link word (0 = idle wire)."""
    return (word >> data_width) & 3


#: ``(shift, mask)`` of each field of the two addressing words, stated
#: once: :class:`Header` and :class:`SourceInfo` encode and decode with
#: them, and the latency tracker reads whole event columns through
#: :func:`field`.
X_FIELD = (0, 0xF)
Y_FIELD = (4, 0xF)
GT_FIELD = (8, 0x1)
TAG_FIELD = (9, 0x7F)
SEQ_FIELD = (8, 0xFF)


def field(data, spec):
    """One field of a data word — of an integer, or of an integer array
    of them."""
    shift, mask = spec
    return (data >> shift) & mask


def _fits(value: int, spec) -> bool:
    return 0 <= value <= spec[1]


@dataclass(frozen=True)
class Header:
    """Contents of a HEAD flit's data field.

    Layout (LSB first) in the 16-bit default data path::

        dest_x : 4    destination column
        dest_y : 4    destination row
        gt     : 1    guaranteed-throughput packet
        tag    : 7    source-assigned packet tag (used by reassembly)

    The 4+4-bit coordinates bound the network at 16x16 = 256 routers —
    the same limit as the paper's simulator.
    """

    dest_x: int
    dest_y: int
    gt: bool = False
    tag: int = 0

    def encode(self) -> int:
        if not (_fits(self.dest_x, X_FIELD) and _fits(self.dest_y, Y_FIELD)):
            raise ValueError("coordinates must fit 4 bits")
        if not _fits(self.tag, TAG_FIELD):
            raise ValueError("tag must fit 7 bits")
        return (
            self.dest_x << X_FIELD[0]
            | self.dest_y << Y_FIELD[0]
            | int(self.gt) << GT_FIELD[0]
            | self.tag << TAG_FIELD[0]
        )

    @staticmethod
    def decode(data: int) -> "Header":
        return Header(
            dest_x=field(data, X_FIELD),
            dest_y=field(data, Y_FIELD),
            gt=bool(field(data, GT_FIELD)),
            tag=field(data, TAG_FIELD),
        )

    def head_flit(self) -> Flit:
        return Flit(FlitType.HEAD, self.encode())


@dataclass(frozen=True)
class SourceInfo:
    """Contents of the first BODY flit: who sent the packet.

    Layout (LSB first): ``src_x:4  src_y:4  seq:8`` — an 8-bit per-source
    sequence number that, together with the header tag, lets the sink
    match ejected packets back to injection records.
    """

    src_x: int
    src_y: int
    seq: int

    def encode(self) -> int:
        if not (_fits(self.src_x, X_FIELD) and _fits(self.src_y, Y_FIELD)):
            raise ValueError("coordinates must fit 4 bits")
        if not _fits(self.seq, SEQ_FIELD):
            raise ValueError("seq must fit 8 bits")
        return (
            self.src_x << X_FIELD[0] | self.src_y << Y_FIELD[0] | self.seq << SEQ_FIELD[0]
        )

    @staticmethod
    def decode(data: int) -> "SourceInfo":
        return SourceInfo(
            field(data, X_FIELD), field(data, Y_FIELD), field(data, SEQ_FIELD)
        )
