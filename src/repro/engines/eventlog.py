"""Columnar event logs: record objects only when read.

The generated kernel hands back a call's events as integer arrays, and
the logs keep them that way.  A compiled engine logs every lane's
injections in one :class:`PackedLog` and its ejections in another, in
the packed words of :class:`~repro.noc.layout.EventLayout`: each call
appends one block grouped by lane, and a lane's log
(``engine.lane_injections(i)``) is a :class:`LaneView` of it.  A
driver's submit log is an :class:`EventLog`: a sequence of *parts*,
each a ``(block, lo, hi)`` column slice of an array whose rows are the
log's row names, or a plain list of records (packets built in Python,
whose payloads are no columns, and a resumed run's saved log).  Both
logs copy the events of a small call into a tail buffer of their own,
where the blocks of adjacent small calls coalesce, so N single-cycle
steps leave O(N / 4096) blocks.  ``len`` and appending never build a
record; indexing, slicing, iteration and comparison build exactly the
records they hand out, and keep none; ``blocks`` hands a window out
block by block without building any, and ``arrays`` joins them into one.
A :class:`LogSpan` names a window of every lane's events by table — a
packed log's own block tables, read in place by the analysis kernel —
with no per-lane or per-block view built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import fields
from itertools import accumulate
from operator import attrgetter
from typing import Callable, List, NamedTuple

import numpy as np

__all__ = [
    "EventLog", "LaneView", "LogSpan", "PackedLog", "lane_lengths", "log_blocks",
    "log_span", "record_block",
]

#: blocks narrower than this (a lane's share, in a packed log) are
#: copied into the tail buffer.
_SMALL = 64

#: columns of a log's first tail buffer (a lane's, in a packed log);
#: each replacement doubles, up to the cap, so N single-cycle steps
#: leave O(N / cap) parts.
_TAIL_MIN, _TAIL_MAX = 256, 4096


#: the fields every injection / ejection record starts with.
EVENT_FIELDS = ("cycle", "router", "vc", "flit_word")


def record_block(records, names=EVENT_FIELDS, row=None):
    """Fields ``names`` of ``records`` as a ``[fields, n]`` int64 block —
    the one pass that reads record objects the Python engines logged
    (``row(record)``, where given, reads them; else the attributes)."""
    rows = list(map(row or attrgetter(*names), records))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(names)).T


def pack_records(layout, records):
    """Engine records (a Python engine's log) in ``layout``'s packed
    words, read once: injections with their access delay."""
    delay = bool(records) and hasattr(records[0], "access_delay")
    names = EVENT_FIELDS + ("access_delay",) if delay else EVENT_FIELDS
    return layout.pack(*record_block(records, names))


def log_blocks(log, start: int, stop: int, layout):
    """Events ``[start, stop)`` of an engine log as packed blocks: a lane
    view's own, read in place, or a record list's, packed once."""
    if isinstance(log, LaneView):
        return list(log.blocks(start, stop))
    return [pack_records(layout, log[start:stop])]


def lane_lengths(logs):
    """Every lane's event count in ``logs``, as :func:`log_span` takes
    them."""
    return logs.lengths() if isinstance(logs, PackedLog) else [len(log) for log in logs]


def columns(block):
    """``block`` as the kernels read it in place: int64 columns one word
    apart (rows any distance apart); a copy only where it is not."""
    if block.dtype == np.int64 and block.strides[1] == 8:
        return block
    return np.ascontiguousarray(block, dtype=np.int64)


class LogSpan(NamedTuple):
    """Events ``[start[i], stop[i])`` of column ``cols[i]`` of a log, per
    reader ``i``, named by table: ``at`` (``[k, 2]``) holds each block's
    address and row stride in words, ``lo`` / ``ends`` (``[k, lanes]``)
    where a column's events start in block ``k`` and its event count
    through it — a :class:`PackedLog`'s own tables, or those
    :meth:`of_blocks` builds.  ``source`` holds the blocks."""

    at: np.ndarray
    lo: np.ndarray
    ends: np.ndarray
    cols: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    source: object

    @classmethod
    def of_blocks(cls, per_lane) -> "LogSpan":
        """The span of one list of blocks of packed words per reader."""
        blocks = [columns(block) for lane in per_lane for block in lane]
        lanes, k = len(per_lane), len(blocks)
        counts = np.zeros((k, lanes), dtype=np.int64)
        owner = np.repeat(np.arange(lanes), [len(lane) for lane in per_lane])
        counts[np.arange(k), owner] = [block.shape[1] for block in blocks]
        at = np.array(
            [(block.ctypes.data, block.strides[0] // 8) for block in blocks], dtype=np.int64
        ).reshape(k, 2)
        ends = np.cumsum(counts, axis=0)
        cols = np.arange(lanes)
        stop = ends[-1] if k else np.zeros(lanes, dtype=np.int64)
        return cls(at, np.zeros_like(ends), ends, cols, np.zeros_like(stop), stop, blocks)

    def sizes(self) -> np.ndarray:
        """Each reader's event count."""
        return self.stop - self.start

    def widest(self) -> np.ndarray:
        """Each reader's largest share of one block."""
        ends = self.ends[:, self.cols]
        before = np.concatenate([np.zeros_like(ends[:1]), ends[:-1]])
        inside = np.clip(self.stop, before, ends) - np.clip(self.start, before, ends)
        return inside.max(axis=0, initial=0)

    def blocks(self, i: int) -> List:
        """Reader ``i``'s events as views of the blocks that hold them."""
        source = self.source
        if isinstance(source, PackedLog):
            pieces = source.pieces([self.start[i]], [self.stop[i]], [self.cols[i]])
            return [block[:, lo[0] : hi[0]] for block, lo, hi in pieces]
        ends = self.ends[:, i]
        return [block for block, n in zip(source, np.diff(ends, prepend=0)) if n]


def log_span(logs, start, stop, layout) -> LogSpan:
    """Per reader ``i``, events ``[start[i], stop[i])`` of ``logs`` — a
    :class:`PackedLog` (reader ``i`` its lane ``i``) or one engine log a
    reader: lane views of one packed log are read in place through its
    tables, any other log packed by :func:`log_blocks`."""
    if isinstance(logs, PackedLog):
        return logs.span(start, stop)
    packed = {log.log for log in logs if isinstance(log, LaneView)}
    if len(packed) == 1 and all(isinstance(log, LaneView) for log in logs):
        return packed.pop().span(start, stop, [log.lane for log in logs])
    return LogSpan.of_blocks(
        [log_blocks(log, a, z, layout) for log, a, z in zip(logs, start, stop)]
    )


class _Columns(Sequence):
    """The readers of a log that yields its events as ``_pieces(start,
    stop)``: ``(part, a, b)``, a record list's ``part[a:b]`` or a block's
    columns ``[a, b)``, in order."""

    __slots__ = ()

    def _span(self, start: int, stop: int) -> List:
        """Records ``[start, stop)`` as a fresh list."""
        out: List = []
        for part, a, b in self._pieces(start, stop):
            out += part[a:b] if type(part) is list else self._records(part[:, a:b])
        return out

    def blocks(self, start: int, stop: int):
        """Events ``[start, stop)`` block by block, no record built: a
        column part is handed out as a view, appended records are read
        once."""
        for part, a, b in self._pieces(start, stop):
            if type(part) is list:
                yield record_block(part[a:b], self._names, self._row)
            else:
                yield part[:, a:b]

    def arrays(self, start: int, stop: int):
        """Events ``[start, stop)`` as one block: a view where one part
        covers the window, else a copy."""
        blocks = list(self.blocks(start, stop))
        if len(blocks) == 1:
            return blocks[0]
        return np.concatenate([np.empty((self._rows, 0), dtype=np.int64), *blocks], axis=1)

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
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._span(index, index + 1)[0]

    def __iter__(self):
        return iter(self._span(0, len(self)))

    def __eq__(self, other):
        if not isinstance(other, (_Columns, list)):
            return NotImplemented
        return len(self) == len(other) and self[:] == other[:]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self[:]!r})"


class EventLog(_Columns):
    """A driver's cycle-ordered submit log.

    Append-only: parts and their start offsets only ever grow at the
    end (``_parts`` first, ``_starts`` second), the last part may be
    swapped for one that extends it over columns written beforehand, and
    no stored column is ever rewritten — so a reader that stays below a
    length it observed earlier resolves the same records whatever is
    appended meanwhile.
    """

    __slots__ = ("_record", "_names", "_row", "_parts", "_starts", "append", "_tail", "_used")

    def __init__(self, record: Callable, names=None, row=None) -> None:
        """``record`` builds a record from one column's values; its
        dataclass fields name the rows unless ``names`` does, and an
        appended record is read back into a column by ``row`` (default:
        the attributes ``names``)."""
        self._record = record
        self._names = tuple(names or (f.name for f in fields(record)))
        self._row = row
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

    def _records(self, block):
        return map(self._record, *block.tolist())

    @property
    def _rows(self) -> int:
        return len(self._names)


class PackedLog:
    """Every lane's events of one kind, in the packed words of ``layout``:
    one block a call, grouped by lane (``blocks[k]``: lane ``b``'s
    events from column ``lo[k, b]``, its count through the block
    ``ends[k, b]``).  A call whose lanes each have fewer than 64 events
    is copied into a tail buffer of ``lanes`` segments, and extends the
    last block while that block is the tail's.

    Append-only, like :class:`EventLog`: a block's columns are written
    before the table rows that expose them, the rows before the block
    count, and no exposed column is rewritten — so a reader that stays
    below a length it observed resolves the same events whatever is
    appended meanwhile.  :attr:`views` are the lanes' logs.
    """

    def __init__(self, record: Callable, layout, lanes: int) -> None:
        self.layout, self.lanes = layout, lanes
        #: fields of a record, in :meth:`~repro.noc.layout.EventLayout.unpack` order
        self._record, self._fields = record, len(fields(record))
        self._blocks: List = []
        #: per block: its address and row stride, in words (what
        #: :meth:`span` hands the analysis kernel), and the lanes' tables
        self._at = np.zeros((16, 2), dtype=np.int64)
        self._lo = np.zeros((16, lanes), dtype=np.int64)
        self._ends = np.zeros((16, lanes), dtype=np.int64)
        self._n = 0
        #: the tail buffer, its lanes' segment width and fill, and the
        #: block that is its last, if one is
        self._tail, self._seg, self._used, self._tail_block = None, 0, None, None
        self.views = [LaneView(self, lane) for lane in range(lanes)]

    def append(self, block, counts) -> None:
        """Log a call's events: the first columns of ``block``, grouped by
        lane, ``counts[b]`` of lane ``b``."""
        sizes, k = counts.tolist(), self._n
        n = sum(sizes)
        if not n:
            return
        ends = self._ends[k - 1] + counts if k else counts.copy()
        starts = list(accumulate(sizes, initial=0))[:-1]
        if max(sizes) >= _SMALL:
            self._add(block[:, :n].copy(), starts, ends)
            return
        starts = np.array(starts)
        if self._tail is None or (self._used + counts > self._seg).any():
            self._seg = min(2 * self._seg, _TAIL_MAX) if self._tail is not None else _TAIL_MIN
            self._tail = np.empty((2, self.lanes * self._seg), dtype=np.int64)
            self._used, self._tail_block = np.zeros(self.lanes, dtype=np.int64), None
        at = np.arange(self.lanes) * self._seg + self._used
        self._tail[:, np.arange(n) + np.repeat(at - starts, counts)] = block[:, :n]
        self._used = self._used + counts
        if self._tail_block == k - 1:
            self._ends[k - 1] = ends  # the tail's block grows in place
        else:
            self._tail_block = k
            self._add(self._tail, at, ends)

    def _add(self, block, lo, ends) -> None:
        k = self._n
        if k == len(self._lo):  # grown tables; a reader may keep the old ones
            self._at, self._lo, self._ends = (
                np.concatenate([table, np.zeros_like(table)])
                for table in (self._at, self._lo, self._ends)
            )
        self._at[k] = block.ctypes.data, block.shape[1]
        self._lo[k], self._ends[k] = lo, ends
        self._blocks.append(block)
        self._n = k + 1

    def lengths(self) -> np.ndarray:
        """Every lane's event count (a copy)."""
        n = self._n  # read first: a writer may be appending
        return self._ends[n - 1].copy() if n else np.zeros(self.lanes, dtype=np.int64)

    def pieces(self, start, stop, lanes=slice(None)):
        """Events ``[start[i], stop[i])`` of each lane ``i`` of ``lanes``
        (every lane by default), read in place: ``(block, lo, hi)`` per
        block that holds any, lane ``i``'s columns ``[lo[i], hi[i])``."""
        n = self._n  # read first: a writer may be appending
        ends, first = self._ends[:n, lanes], self._lo[:n, lanes]
        before = np.concatenate([np.zeros_like(ends[:1]), ends[:-1]])
        lo = np.clip(start, before, ends) - before + first
        hi = np.clip(stop, before, ends) - before + first
        for k in np.flatnonzero((hi > lo).any(axis=1)).tolist():
            yield self._blocks[k], lo[k], hi[k]

    def span(self, start, stop, cols=None) -> LogSpan:
        """Events ``[start[i], stop[i])`` of lane ``cols[i]`` (of lane
        ``i`` by default), named by this log's tables: no view built."""
        n = self._n  # read first: a writer may be appending
        cols = np.arange(self.lanes) if cols is None else np.asarray(cols)
        start, stop = np.asarray(start, dtype=np.int64), np.asarray(stop, dtype=np.int64)
        return LogSpan(self._at[:n], self._lo[:n], self._ends[:n], cols, start, stop, self)

    @property
    def nbytes(self) -> int:
        """The bytes that hold the log's events, 16 an event: the
        columns of a tail buffer no call has filled yet are not counted."""
        return 16 * int(self.lengths().sum())


class LaneView(_Columns):
    """One lane's log in a :class:`PackedLog`: a list of records to its
    readers, built only when read; ``blocks`` and ``arrays`` hand out
    packed words."""

    __slots__ = ("log", "lane")

    def __init__(self, log: PackedLog, lane: int) -> None:
        self.log, self.lane = log, lane

    def __len__(self) -> int:
        return int(self.log.lengths()[self.lane])

    def _pieces(self, start: int, stop: int):
        for block, lo, hi in self.log.pieces([start], [stop], [self.lane]):
            yield block, int(lo[0]), int(hi[0])

    _rows = 2

    def _records(self, block):
        log = self.log
        return map(log._record, *(f.tolist() for f in log.layout.unpack(block)[: log._fields]))
