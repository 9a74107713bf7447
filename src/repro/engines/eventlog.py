"""Columnar injection/ejection logs: record objects only when read.

The generated kernel hands back a window's events as integer arrays.
:class:`EventLog` keeps them that way: a log is a sequence of *parts*,
each either a plain list of records (what the NumPy sweeps ``append``)
or a ``(block, lo, hi)`` column slice of an event array whose rows are
the record's fields in declaration order.  A whole chunk's block is
kept by reference; the few events of a single-cycle step are copied
into the log's own tail buffer, where adjacent small blocks coalesce
into one part.  ``len`` and :meth:`EventLog.extend_block` never build a
record; indexing, slicing, iteration and comparison build exactly the
records they hand out, and keep none; :meth:`EventLog.blocks` hands a
window out part by part as integer blocks without building any, and
:meth:`EventLog.arrays` joins them into one.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import fields
from operator import attrgetter
from typing import Callable, List

import numpy as np

__all__ = ["EventLog", "log_blocks", "log_window", "record_block"]

#: blocks narrower than this are copied into the tail buffer.
_SMALL = 64

#: columns of a log's first tail buffer; each replacement doubles, up to
#: the cap, so N single-cycle steps leave O(N / cap) parts.
_TAIL_MIN, _TAIL_MAX = 256, 4096


#: the fields every injection / ejection record starts with.
EVENT_FIELDS = ("cycle", "router", "vc", "flit_word")


def record_block(records, names=EVENT_FIELDS):
    """Fields ``names`` of ``records`` as a ``[fields, n]`` int64 block —
    the one pass that reads record objects the Python engines logged."""
    rows = list(map(attrgetter(*names), records))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(names)).T


def log_window(log, start: int, stop: int):
    """Events ``[start, stop)`` of an engine log as a ``[fields, n]``
    int64 block, rows in record-field order (:data:`EVENT_FIELDS` first).
    An :class:`EventLog` hands out its columns; engines whose logs are
    plain lists have the slice's records read once."""
    arrays = getattr(log, "arrays", None)
    return arrays(start, stop) if arrays is not None else record_block(log[start:stop])


def log_blocks(log, start: int, stop: int):
    """:func:`log_window` without the join: the window as the blocks of
    the log's own parts, in order (one block for a plain list)."""
    blocks = getattr(log, "blocks", None)
    return blocks(start, stop) if blocks is not None else [record_block(log[start:stop])]


class EventLog(Sequence):
    """One lane's cycle-ordered event log.

    Append-only: parts and their start offsets only ever grow at the
    end (``_parts`` first, ``_starts`` second), the last part may be
    swapped for one that extends it over columns written beforehand, and
    no stored column is ever rewritten — so a reader that stays below a
    length it observed earlier resolves the same records whatever is
    appended meanwhile.
    """

    __slots__ = ("_record", "_parts", "_starts", "append", "_tail", "_used")

    def __init__(self, record: Callable) -> None:
        self._record = record
        self._parts: List = []
        #: index of each part's first record (parallel to ``_parts``).
        self._starts: List[int] = []
        #: ``append(record)`` — the open tail list's own bound
        #: ``list.append`` while one is open, so per-cycle engines log at
        #: list speed.
        self.append = self._open_tail
        #: the tail buffer (``[fields, capacity]``, replaced when full —
        #: never resized, earlier parts keep the old one) and its fill.
        self._tail = None
        self._used = 0

    def _add_part(self, part) -> None:
        start = len(self)
        self._parts.append(part)
        self._starts.append(start)

    def _open_tail(self, record) -> None:
        tail = [record]
        self._add_part(tail)
        self.append = tail.append

    def extend(self, records) -> None:
        """Log ``records`` one by one (a resumed run's saved log)."""
        for record in records:
            self.append(record)

    def extend_block(self, block, lo: int, hi: int) -> None:
        """Log columns ``[lo, hi)`` of ``block`` (a ``[fields, n]`` integer
        array, one column per event, in cycle order) without building
        any record.  A wide block is kept by reference; a narrow one is
        copied, joining the previous narrow block's part."""
        n = hi - lo
        if n <= 0:
            return
        self.append = self._open_tail
        if n >= _SMALL:
            self._add_part((block, lo, hi))
            return
        tail, used = self._tail, self._used
        if tail is None or used + n > tail.shape[1]:
            cap = _TAIL_MIN if tail is None else min(2 * tail.shape[1], _TAIL_MAX)
            tail = self._tail = np.empty((block.shape[0], cap), dtype=block.dtype)
            used = 0
        tail[:, used : used + n] = block[:, lo:hi]
        self._used = used + n
        last = self._parts[-1] if self._parts else None
        if type(last) is tuple and last[0] is tail and last[2] == used:
            # the previous narrow block's part ends where this one begins:
            # extend it (columns first, then the part that exposes them)
            self._parts[-1] = (tail, last[1], used + n)
        else:
            self._add_part((tail, used, used + n))

    def __len__(self) -> int:
        last = len(self._starts) - 1  # read once: a writer may be mid-append
        if last < 0:
            return 0
        part = self._parts[last]
        size = len(part) if type(part) is list else part[2] - part[1]
        return self._starts[last] + size

    def _pieces(self, start: int, stop: int):
        """``(part, a, b)``: the parts overlapping ``[start, stop)`` and
        the range of each that lies inside it."""
        starts, parts = self._starts, self._parts
        known = len(starts)
        i = max(bisect_right(starts, start) - 1, 0)
        while i < known and starts[i] < stop:
            part = parts[i]
            a, b = max(start - starts[i], 0), stop - starts[i]
            if type(part) is list:
                yield part, a, b
            else:
                block, lo, hi = part
                yield block, lo + a, min(lo + b, hi)
            i += 1

    def _span(self, start: int, stop: int) -> List:
        """Records ``[start, stop)`` as a fresh list."""
        out: List = []
        record = self._record
        for part, a, b in self._pieces(start, stop):
            if type(part) is list:
                out += part[a:b]
            else:
                out += map(record, *part[:, a:b].tolist())
        return out

    def blocks(self, start: int, stop: int):
        """Events ``[start, stop)`` part by part, each a ``[fields, n]``
        int64 block and no record built: a column part is handed out as
        a view, the records the NumPy sweeps appended are read once."""
        for part, a, b in self._pieces(start, stop):
            if type(part) is list:
                yield record_block(part[a:b], [f.name for f in fields(self._record)])
            else:
                yield part[:, a:b]

    def arrays(self, start: int, stop: int):
        """Events ``[start, stop)`` as one ``[fields, n]`` int64 block: a
        view where one column part covers the window, else a copy."""
        blocks = list(self.blocks(start, stop))
        if len(blocks) == 1:
            return blocks[0]
        empty = np.empty((len(fields(self._record)), 0), dtype=np.int64)
        return np.concatenate([empty, *blocks], axis=1)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step == 1:
                return self._span(start, stop)
            return self._span(0, n)[index]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("EventLog index out of range")
        return self._span(index, index + 1)[0]

    def __iter__(self):
        return iter(self._span(0, len(self)))

    def __eq__(self, other):
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return len(self) == len(other) and self[:] == other[:]

    def __repr__(self) -> str:
        return f"EventLog({self[:]!r})"
