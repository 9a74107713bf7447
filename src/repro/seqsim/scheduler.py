"""Scheduling of non-stable units (section 4.2) and the delta-cycle
convergence watchdog.

"A simple round-robin scheduler will decide which non-stable router has
to be evaluated.  If all routers are stable the network is considered to
be completely evaluated and ready for the next system cycle."

:func:`converge` is that loop, for the NoC model and the generic block
framework alike.  Two interchangeable schedulers pick its units:

* :class:`RoundRobinScheduler` — the literal reading: an O(n) circular
  scan of the stability flags per pick.
* :class:`WorklistScheduler` — the default: an O(1)-amortised bit scan
  over the :class:`~repro.seqsim.linkmem.LinkMemory` ``unstable_mask``,
  which the link memory maintains incrementally on every destabilising
  write.  It provably picks units in the exact order the round-robin
  scan would (see its docstring), so delta counts and all
  :class:`~repro.seqsim.metrics.DeltaMetrics` are identical — it is
  purely a constant-factor win.

The paper's argument that the iteration terminates relies on the wire
dependency graph being acyclic (state -> room -> forward).  Corrupted
hardware voids that guarantee — a flapping link re-triggers its reader
forever — so the hardware realisation needs an explicit bound:
:class:`ConvergenceWatchdog` caps the delta cycles spent inside one
system cycle at ``k x n_units`` and raises a structured
:class:`repro.faults.errors.LivelockError` naming the units that never
settled and the wires that kept changing.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.errors import LivelockError
from repro.seqsim.linkmem import LinkMemory


class RoundRobinScheduler:
    """Scans unit indices circularly, returning the next non-stable one.

    The scan pointer persists across system cycles, mirroring a hardware
    counter that simply keeps rotating.
    """

    def __init__(self, n_units: int) -> None:
        if n_units <= 0:
            raise ValueError(
                f"scheduler needs at least one unit (got n_units={n_units}); "
                "an empty network has nothing to schedule"
            )
        self.n_units = n_units
        self._pointer = n_units - 1  # first pick is unit 0

    def next_unit(self, links: LinkMemory) -> Optional[int]:
        """Index of the next non-stable unit, or None when all stable.

        ``n_units <= 0`` is impossible here — the constructor rejects it
        — so the only defensive check is against a foreign zero-unit
        link memory, which would otherwise spin the caller forever.
        """
        n = self.n_units
        if links.n_units == 0:
            return None
        for offset in range(1, n + 1):
            unit = (self._pointer + offset) % n
            if not links.is_stable(unit):
                self._pointer = unit
                return unit
        return None

    @property
    def pointer(self) -> int:
        return self._pointer


class WorklistScheduler:
    """Circular-order worklist over ``LinkMemory.unstable_mask``.

    The link memory already maintains the set of non-stable units
    incrementally (every destabilising write sets the reader's bit in
    ``unstable_mask``; :meth:`~repro.seqsim.linkmem.LinkMemory.mark_stable`
    clears it), so the scheduler never scans: it finds the first set bit
    at a circular offset > 0 from the pointer with two constant-time
    big-int operations.

    Order-equivalence invariant: :class:`RoundRobinScheduler` returns
    the first unit ``u`` in the circular order ``pointer+1, ...,
    pointer+n`` with ``is_stable(u)`` false — i.e. the first set bit of
    ``unstable_mask`` in that circular order — and advances the pointer
    to it.  This class computes exactly that bit: the lowest set bit of
    ``mask >> (pointer+1)`` when the mask has bits above the pointer,
    else the lowest set bit of the whole mask (the wrap-around).  Both
    schedulers therefore emit the identical pick sequence from any
    reachable link-memory state, which keeps delta counts and
    evaluation order — and hence every simulated bit — unchanged.
    ``tests/test_scheduler_worklist.py`` checks this property under
    random destabilisation patterns.
    """

    def __init__(self, n_units: int) -> None:
        if n_units <= 0:
            raise ValueError(
                f"scheduler needs at least one unit (got n_units={n_units}); "
                "an empty network has nothing to schedule"
            )
        self.n_units = n_units
        self._pointer = n_units - 1  # first pick is unit 0

    def next_unit(self, links: LinkMemory) -> Optional[int]:
        """Index of the next non-stable unit, or None when all stable."""
        mask = links.unstable_mask
        if not mask:
            return None
        above = mask >> (self._pointer + 1)
        if above:
            # First non-stable unit strictly after the pointer.
            unit = self._pointer + 1 + ((above & -above).bit_length() - 1)
        else:
            # Wrap around: first non-stable unit from index 0.
            unit = (mask & -mask).bit_length() - 1
        self._pointer = unit
        return unit

    @property
    def pointer(self) -> int:
        return self._pointer


#: scheduler name -> class, for the ``scheduler=`` knob.
SCHEDULERS = {
    "roundrobin": RoundRobinScheduler,
    "worklist": WorklistScheduler,
}


def make_scheduler(kind: str, n_units: int):
    """Instantiate a scheduler by name (``worklist`` or ``roundrobin``)."""
    try:
        cls = SCHEDULERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {kind!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls(n_units)


def converge(links: LinkMemory, scheduler, evaluate, watchdog: "ConvergenceWatchdog") -> None:
    """Evaluate non-stable units, round robin, until every HBR bit is set.

    The one loop of section 4.2.  ``evaluate(unit)`` is one delta cycle:
    it reads the unit's input wires (setting their HBR bits), writes its
    output wires (a changed value un-stabilises a reader that had read
    the old one) and marks the unit stable.  ``watchdog`` counts the
    deltas from its :meth:`~ConvergenceWatchdog.start_cycle` and raises
    :class:`LivelockError` past its bound.
    """
    while True:
        unit = scheduler.next_unit(links)
        if unit is None:
            return
        evaluate(unit)
        watchdog.tick(links)


class ConvergenceWatchdog:
    """Bounds the delta cycles one system cycle may consume.

    The bound defaults to ``factor x n_units``: the NoC needs fewer than
    3 evaluations per router per cycle, so a generous factor still trips
    within microseconds of simulated time when a fault livelocks the
    re-evaluation loop.  On a trip the watchdog raises
    :class:`LivelockError` carrying the still-unstable units and — when
    the per-wire change counters single out flapping wires — the suspect
    wire names, which the recovery machinery uses to quarantine the
    faulty physical link.
    """

    #: default multiple of the unit count (the NoC needs < 3x).
    DEFAULT_FACTOR = 10

    def __init__(self, n_units: int, factor: Optional[int] = None) -> None:
        if n_units <= 0:
            raise ValueError("watchdog needs at least one unit")
        factor = self.DEFAULT_FACTOR if factor is None else factor
        if factor < 1:
            raise ValueError("watchdog factor must be >= 1")
        self.n_units = n_units
        self.factor = factor
        self.limit = factor * n_units
        self._deltas = 0
        self._cycle = 0
        self.trips = 0

    def start_cycle(self, cycle: int) -> None:
        self._deltas = 0
        self._cycle = cycle

    @property
    def deltas(self) -> int:
        return self._deltas

    def tick(self, links: LinkMemory) -> None:
        """Account one delta cycle; raise :class:`LivelockError` past the
        bound."""
        self._deltas += 1
        if self._deltas <= self.limit:
            return
        self.trips += 1
        unstable = tuple(
            unit for unit in range(links.n_units) if not links.is_stable(unit)
        )
        # A genuinely flapping wire changes on nearly every visit to its
        # writer, i.e. O(limit / n_units) times; a healthy wire changes
        # a handful of times per system cycle.
        threshold = max(4, self._deltas // (4 * max(1, links.n_units)))
        raise LivelockError(
            cycle=self._cycle,
            deltas=self._deltas,
            limit=self.limit,
            unstable_units=unstable,
            suspect_wires=links.flapping_wires(threshold),
        )
