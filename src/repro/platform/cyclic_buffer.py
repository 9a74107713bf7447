"""Cyclic buffers — the data plumbing of the platform (section 5.2).

"The stimuli are buffered per virtual channel (VC) in cyclic buffers in
the FPGA. [...] The data in the buffers has a timestamp [...] The cyclic
buffers make it possible to run the simulation independently from the
copying of data.  Of course, we have to prevent buffer under- and
over-run."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, Optional, TypeVar

T = TypeVar("T")


class BufferOverrunError(RuntimeError):
    """Write into a full cyclic buffer.

    The message carries the buffer's read/write pointer state so an
    over-run seen deep inside a five-phase run can be debugged without
    re-running under a probe.
    """


class BufferUnderrunError(RuntimeError):
    """Read from an empty cyclic buffer (pointer state in the message)."""


@dataclass(frozen=True)
class TimestampedEntry(Generic[T]):
    """Buffer entry: payload plus the timestamp that lets the software
    'store only valid data'."""

    timestamp: int
    payload: T


class CyclicBuffer(Generic[T]):
    """Fixed-capacity ring buffer with explicit read/write pointers.

    Pointer arithmetic mirrors the hardware: the pointers wrap over
    ``2 * capacity`` so full and empty are distinguishable without a
    separate count register.
    """

    def __init__(self, capacity: int, name: str = "buffer") -> None:
        if capacity < 1:
            raise ValueError(
                f"{name}: capacity must be positive, got {capacity} "
                "(a zero-capacity cyclic buffer can neither fill nor drain)"
            )
        self.capacity = capacity
        self.name = name
        self._entries: List[Optional[TimestampedEntry[T]]] = [None] * capacity
        self._rd = 0  # wraps mod 2*capacity
        self._wr = 0
        self.total_written = 0
        self.total_read = 0
        #: pointer-violation counters: every over/underrun event.
        self.overruns = 0
        self.underruns = 0

    # -- state -------------------------------------------------------------
    @property
    def count(self) -> int:
        return (self._wr - self._rd) % (2 * self.capacity)

    @property
    def free(self) -> int:
        return self.capacity - self.count

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def is_full(self) -> bool:
        return self.count == self.capacity

    def _pointer_state(self) -> str:
        """Human-readable pointer state for error messages."""
        return (
            f"capacity={self.capacity}, count={self.count}, "
            f"rd={self._rd} (slot {self._rd % self.capacity}), "
            f"wr={self._wr} (slot {self._wr % self.capacity}), "
            f"written={self.total_written}, read={self.total_read}"
        )

    # -- access -------------------------------------------------------------
    def write(self, timestamp: int, payload: T) -> None:
        if self.is_full:
            self.overruns += 1
            raise BufferOverrunError(
                f"{self.name}: write to full buffer at t={timestamp} "
                f"({self._pointer_state()})"
            )
        self._entries[self._wr % self.capacity] = TimestampedEntry(timestamp, payload)
        self._wr = (self._wr + 1) % (2 * self.capacity)
        self.total_written += 1

    def read(self) -> TimestampedEntry[T]:
        if self.is_empty:
            self.underruns += 1
            raise BufferUnderrunError(
                f"{self.name}: read from empty buffer ({self._pointer_state()})"
            )
        entry = self._entries[self._rd % self.capacity]
        self._rd = (self._rd + 1) % (2 * self.capacity)
        self.total_read += 1
        assert entry is not None
        return entry

    def peek(self) -> TimestampedEntry[T]:
        if self.is_empty:
            raise BufferUnderrunError(
                f"{self.name}: peek on empty buffer ({self._pointer_state()})"
            )
        entry = self._entries[self._rd % self.capacity]
        assert entry is not None
        return entry

    def inject_fault(self, offset: int, xor_mask: int) -> None:
        """Corrupt the payload of the ``offset``-th pending entry in
        place (an SEU in the buffer BlockRAM).  The payload must be an
        int-encoded word; the timestamp is preserved."""
        if not 0 <= offset < self.count:
            raise IndexError(
                f"{self.name}: fault offset {offset} outside pending entries "
                f"({self._pointer_state()})"
            )
        slot = (self._rd + offset) % self.capacity
        entry = self._entries[slot]
        assert entry is not None
        if not isinstance(entry.payload, int):
            raise TypeError(f"{self.name}: can only corrupt int payloads")
        self._entries[slot] = TimestampedEntry(entry.timestamp, entry.payload ^ xor_mask)

    def try_write(self, timestamp: int, payload: T) -> bool:
        if self.is_full:
            return False
        self.write(timestamp, payload)
        return True

    def try_read(self) -> Optional[TimestampedEntry[T]]:
        if self.is_empty:
            return None
        return self.read()

    def discard_all(self) -> int:
        """'For the buffers that are not interesting we can update the
        read-pointer, which empties the buffer' (section 5.3, step 4)."""
        discarded = self.count
        self._rd = self._wr
        self.total_read += discarded
        return discarded

    def drain(self) -> List[TimestampedEntry[T]]:
        out = []
        while not self.is_empty:
            out.append(self.read())
        return out
