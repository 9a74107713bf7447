"""Columnar injection/ejection logs: record objects only when read.

The fused chunk kernel hands back a window's events as integer arrays.
:class:`EventLog` keeps them that way: a log is a sequence of *parts*,
each either a plain list of records (what the per-cycle paths
``append``) or a ``(block, lo, hi)`` column slice of one chunk's event
array, whose rows are the record's fields in declaration order.
``len`` and :meth:`EventLog.extend_block` never build a record;
indexing, slicing, iteration and comparison build exactly the records
they hand out, and keep none.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import Callable, List

__all__ = ["EventLog"]


class EventLog(Sequence):
    """One lane's cycle-ordered event log.

    Append-only, and safe for the single-writer/concurrent-reader use
    the streaming pipeline makes of engine logs: parts and their start
    offsets only ever grow at the end (``_parts`` first, ``_starts``
    second), so a reader that stays below a length it observed earlier
    resolves the same records whatever the writer does meanwhile.
    """

    __slots__ = ("_record", "_parts", "_starts", "append")

    def __init__(self, record: Callable) -> None:
        self._record = record
        self._parts: List = []
        #: index of each part's first record (parallel to ``_parts``).
        self._starts: List[int] = []
        #: ``append(record)`` — the open tail list's own bound
        #: ``list.append`` while one is open, so per-cycle engines log at
        #: list speed.
        self.append = self._open_tail

    def _add_part(self, part) -> None:
        start = len(self)
        self._parts.append(part)
        self._starts.append(start)

    def _open_tail(self, record) -> None:
        tail = [record]
        self._add_part(tail)
        self.append = tail.append

    def extend_block(self, block, lo: int, hi: int) -> None:
        """Log columns ``[lo, hi)`` of ``block`` (a ``[fields, n]`` integer
        array, one column per event, in cycle order) without building
        any record.  The block is kept by reference."""
        if hi > lo:
            self._add_part((block, lo, hi))
            self.append = self._open_tail

    def __len__(self) -> int:
        last = len(self._starts) - 1  # read once: a writer may be mid-append
        if last < 0:
            return 0
        part = self._parts[last]
        size = len(part) if type(part) is list else part[2] - part[1]
        return self._starts[last] + size

    def _span(self, start: int, stop: int) -> List:
        """Records ``[start, stop)`` as a fresh list."""
        out: List = []
        if start >= stop:
            return out
        starts, parts, record = self._starts, self._parts, self._record
        known = len(starts)
        i = max(bisect_right(starts, start) - 1, 0)
        while i < known and starts[i] < stop:
            part = parts[i]
            a, b = max(start - starts[i], 0), stop - starts[i]
            if type(part) is list:
                out += part[a:b]
            else:
                block, lo, hi = part
                out += map(record, *block[:, lo + a : min(lo + b, hi)].tolist())
            i += 1
        return out

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
