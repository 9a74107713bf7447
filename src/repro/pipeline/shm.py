"""A shared-memory ring for bulk int64 arrays.

:class:`ShmArrayRing` is a bounded ring of fixed-size
``multiprocessing.shared_memory`` slots.  The control plane (slot
hand-off, blocking, timeouts) runs on the same
:class:`~repro.platform.cyclic_buffer.CyclicBuffer` semantics as every
other ring; the data plane is the shared segment, which a child process
can attach to by name (:meth:`ShmArrayRing.segment_name`).

The five-phase pipeline no longer routes anything through it: its
stages are threads of one process and the load->simulate payload is
already flat integer columns, so the former ``transport="shm"`` knob
only copied words through ``/dev/shm`` and back.  What stays is the ring
itself, its lifecycle guarantees and :class:`ShmUnavailableError`
(shared with :mod:`repro.partition.pool`); whether it survives is
ROADMAP's "one worker/transport substrate" item.

Creation degrades gracefully: where the platform forbids shared memory
(sandboxes without ``/dev/shm``), the constructor raises
:class:`ShmUnavailableError`.

Every live ring registers itself in :data:`OPEN_RINGS`; the test
suite's leak fixture asserts the set drains back to empty, and an
``atexit`` sweep unlinks whatever is still registered on abnormal
interpreter exit — a ``KeyboardInterrupt`` must not leave named
segments behind in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from typing import Optional

import numpy as np

from repro.platform.cyclic_buffer import CyclicBuffer

#: live ShmArrayRing instances (weak): the leak-check fixture reads it.
OPEN_RINGS: "weakref.WeakSet[ShmArrayRing]" = weakref.WeakSet()


def _close_open_rings() -> None:
    """Last-chance cleanup of rings still open at interpreter exit.

    ``close`` is idempotent, so sweeping rings that a finally-block
    already released is harmless; sweeping rings an abnormal exit
    *skipped* is what keeps ``/dev/shm`` from accumulating segments.
    """
    for ring in list(OPEN_RINGS):
        try:
            ring.close()
        except Exception:  # pragma: no cover - nothing to do at exit
            pass


atexit.register(_close_open_rings)


class ShmUnavailableError(RuntimeError):
    """Shared memory cannot be created on this platform."""


class ShmArrayRing:
    """Bounded ring of shared-memory slots carrying int64 arrays.

    ``slots`` arrays can be in flight at once; :meth:`put_array` blocks
    (with the ring timeout semantics) when all slots are full, and
    :meth:`get_array` copies the oldest array out before releasing its
    slot — so a slot is never overwritten while a consumer still reads
    it.  FIFO hand-off makes the producer's rotating slot index safe:
    by the time slot ``k`` comes around again, its previous occupant is
    the oldest entry and has been consumed.
    """

    def __init__(
        self,
        name: str = "shm-ring",
        slots: int = 4,
        slot_words: int = 1 << 16,
        timeout: Optional[float] = 60.0,
    ) -> None:
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:  # pragma: no cover - platform specific
            raise ShmUnavailableError(f"{name}: no shared_memory module") from exc
        self.name = name
        self.slots = slots
        self.slot_words = slot_words
        self.timeout = timeout
        self._itemsize = np.dtype(np.int64).itemsize
        try:
            self._shm = shared_memory.SharedMemory(
                create=True, size=slots * slot_words * self._itemsize
            )
        except (OSError, PermissionError, ValueError) as exc:
            raise ShmUnavailableError(f"{name}: cannot create segment: {exc}") from exc
        self._array = np.ndarray(
            (slots, slot_words), dtype=np.int64, buffer=self._shm.buf
        )
        #: control ring: (slot, shape) per in-flight array.  Its
        #: capacity equals the slot count, which is what bounds reuse.
        self._ctrl: CyclicBuffer = CyclicBuffer(slots, name=f"{name}-ctrl")
        self._free = threading.BoundedSemaphore(slots)
        self._next_slot = 0
        self._abort = threading.Event()
        self.closed = False
        OPEN_RINGS.add(self)

    def segment_name(self) -> str:
        """OS name of the shared segment (for attaching from a child
        process via ``shared_memory.SharedMemory(name=...)``)."""
        return self._shm.name

    # -- data path ----------------------------------------------------------
    def put_array(self, timestamp: int, array: np.ndarray) -> None:
        flat = np.ascontiguousarray(array, dtype=np.int64).reshape(-1)
        if flat.size > self.slot_words:
            raise ValueError(
                f"{self.name}: array of {flat.size} words exceeds the "
                f"slot size {self.slot_words}"
            )
        # Acquire in short steps so an abort() unblocks a waiting
        # producer promptly instead of after the full ring timeout.
        from repro.platform.cyclic_buffer import BufferOverrunError

        deadline = self.timeout
        waited = 0.0
        while not self._free.acquire(timeout=0.05):
            if self._abort.is_set():
                # Same wake-up signal as the object rings, so the
                # runner's root-cause filter treats it as an abort
                # echo, not the error that started the collapse.
                raise BufferOverrunError(f"{self.name}: aborted")
            waited += 0.05
            if deadline is not None and waited >= deadline:
                raise ShmUnavailableError(
                    f"{self.name}: no free slot within {self.timeout}s"
                )
        slot = self._next_slot
        self._next_slot = (slot + 1) % self.slots
        self._array[slot, : flat.size] = flat
        self._ctrl.put(
            timestamp,
            (slot, array.shape),
            timeout=self.timeout,
            abort=self._abort.is_set,
        )

    def get_array(self) -> np.ndarray:
        entry = self._ctrl.get(timeout=self.timeout, abort=self._abort.is_set)
        slot, shape = entry.payload
        n = int(np.prod(shape)) if shape else 1
        out = self._array[slot, :n].copy().reshape(shape)
        self._free.release()
        return out

    # -- lifecycle ----------------------------------------------------------
    def abort(self) -> None:
        self._abort.set()
        self._ctrl.kick()

    def stats(self) -> dict:
        ctrl = self._ctrl
        return {
            "capacity": self.slots,
            "arrays": ctrl.total_written,
            "put_waits": ctrl.put_waits,
            "get_waits": ctrl.get_waits,
            "overruns": ctrl.overruns,
            "underruns": ctrl.underruns,
        }

    def close(self) -> None:
        """Release the shared segment (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._array = None
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
        OPEN_RINGS.discard(self)

    def __enter__(self) -> "ShmArrayRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
