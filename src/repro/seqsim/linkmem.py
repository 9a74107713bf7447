"""Single-banked link memory with Has-Been-Read bits (section 4.2).

"For the links we have a separate memory, where every link has only a
single memory position [...] Per memory position one additional status
bit is stored.  This bit indicates whether the last written value Has
Been Read (HBR) from this link."

A *wire* here is one directed signal bundle with a single writer unit
and a single reader unit (the forward flit word in one direction and the
backward per-VC room mask in the other; see
:meth:`repro.noc.topology.Topology.wires`).  The HBR protocol:

* at the start of a system cycle every status bit is reset to 0, which
  guarantees every unit is evaluated at least once;
* when a unit is evaluated, every wire it *reads* gets HBR := 1;
* when a unit writes a value different from the stored one, the value is
  updated and HBR := 0 — so the reader is no longer stable and will be
  re-evaluated;
* a unit is stable when all wires it reads have HBR = 1.

Values persist across system cycles (single memory position per link),
exactly like the FPGA implementation: an early-evaluated unit therefore
reads its neighbours' *previous-cycle* outputs until they are rewritten,
which is what triggers the re-evaluations the paper counts as extra
delta cycles.

Fault semantics (exercised by :mod:`repro.faults`): a wire can carry a
transient value flip (:meth:`inject_value_fault`), a persistent stuck-at
mask applied to every write (:meth:`set_stuck`), or a *flap* fault that
makes every write look like a change to the wire's reader
(:meth:`set_flaky`) — a pair of flapping wires between two units is the
canonical delta-cycle livelock.  A wire can also be *quarantined*
(:meth:`quarantine`): its value freezes and writes are ignored, the
recovery action for a permanently faulty physical link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class WireSpec:
    """Declaration of one wire when building a :class:`LinkMemory`."""

    name: str
    writer: int
    reader: int
    width: int


class LinkMemory:
    """Wire value store plus HBR bookkeeping and stability tracking.

    Stability is kept as a single integer bitmask, ``unstable_mask``
    (bit ``u`` set while unit ``u`` is non-stable).  The mask is the
    single source of truth: :meth:`is_stable` / :meth:`mark_stable` /
    :meth:`all_stable` operate on it, every destabilising write sets the
    reader's bit, and :class:`repro.seqsim.scheduler.WorklistScheduler`
    finds the next non-stable unit with an O(1) amortised bit scan over
    it instead of an O(n) flag sweep.
    """

    def __init__(self, n_units: int, wires: Sequence[WireSpec]) -> None:
        self.n_units = n_units
        self.specs: List[WireSpec] = list(wires)
        self.values: List[int] = [0] * len(self.specs)
        self.hbr: List[int] = [0] * len(self.specs)
        self._masks: List[int] = [(1 << w.width) - 1 for w in self.specs]
        #: reader unit per wire (hot-path shortcut for ``specs[w].reader``)
        self.reader_of: List[int] = [w.reader for w in self.specs]
        #: writer unit per wire (hot-path shortcut for ``specs[w].writer``)
        self.writer_of: List[int] = [w.writer for w in self.specs]
        self.reads_by_unit: List[List[int]] = [[] for _ in range(n_units)]
        self.writes_by_unit: List[List[int]] = [[] for _ in range(n_units)]
        self._by_name: Dict[str, int] = {}
        for index, spec in enumerate(self.specs):
            if not (0 <= spec.writer < n_units and 0 <= spec.reader < n_units):
                raise ValueError(f"wire {spec.name!r}: unit index out of range")
            if spec.name in self._by_name:
                raise ValueError(f"duplicate wire name {spec.name!r}")
            self._by_name[spec.name] = index
            self.reads_by_unit[spec.reader].append(index)
            self.writes_by_unit[spec.writer].append(index)
        # Stability bitmask maintained incrementally from the HBR bits.
        self.unstable_mask: int = 0
        self._all_units_mask: int = (1 << n_units) - 1
        self.value_changes = 0
        self.wire_writes = 0
        # Change stamps: a global logical clock bumped on *every* stored
        # value mutation (writes that change the value, injected faults,
        # stuck-at application, quarantine freezes), and the clock value
        # at each wire's last mutation.  "Inputs unchanged since my last
        # evaluation" then reduces to comparing the max stamp over a
        # unit's wires against a remembered clock snapshot.
        self.change_clock: int = 0
        self.stamp: List[int] = [0] * len(self.specs)
        #: per-unit clock of the last mutation of *any* wire the unit
        #: touches (reads or writes) — ``max(stamp[w] for w in touched)``
        #: folded incrementally so the "inputs unchanged" check is O(1).
        self.touch_stamp: List[int] = [0] * n_units
        #: per-wire count of value changes within the current system
        #: cycle; the livelock diagnosis looks for outliers here.
        self.changes_this_cycle: List[int] = [0] * len(self.specs)
        # -- installed faults ------------------------------------------------
        #: wires whose every write counts as a change for their reader.
        self.flaky: Set[int] = set()
        #: wire -> (and_mask, or_mask) applied to every written value.
        self.stuck: Dict[int, Tuple[int, int]] = {}
        #: wires whose value is frozen; writes are dropped.
        self.quarantined: Set[int] = set()
        self.faults_injected = 0

    # -- lookup ------------------------------------------------------------
    def wire_id(self, name: str) -> int:
        return self._by_name[name]

    @property
    def fault_free(self) -> bool:
        """True while no persistent wire fault or quarantine is installed
        (lets the simulator keep its fast write path)."""
        return not (self.flaky or self.stuck or self.quarantined)

    # -- the HBR protocol ---------------------------------------------------
    def begin_cycle(self) -> None:
        """Reset every status bit; every unit becomes non-stable."""
        n_wires = len(self.hbr)
        self.hbr = [0] * n_wires
        self.changes_this_cycle = [0] * n_wires
        self.unstable_mask = self._all_units_mask

    def read_inputs(self, unit: int) -> List[int]:
        """Read all wires ``unit`` samples (marks them as read)."""
        out = []
        for wid in self.reads_by_unit[unit]:
            self.hbr[wid] = 1
            out.append(self.values[wid])
        return out

    def write_wire(self, wid: int, value: int) -> Optional[int]:
        """Write one wire, honouring installed faults.

        Returns the reader index if it was de-stabilised, else ``None``.
        A write only touches the HBR bit when the value actually changed
        ("if the router writes a value to a link, which is not equal to
        the current value in the memory, it will reset this link's status
        bit to zero").
        """
        self.wire_writes += 1
        if value & ~self._masks[wid]:
            raise ValueError(f"wire {self.specs[wid].name!r}: value too wide")
        if wid in self.quarantined:
            return None  # dead link: the frozen value stands
        stuck = self.stuck.get(wid)
        if stuck is not None:
            and_mask, or_mask = stuck
            value = (value & and_mask) | or_mask
        changed = value != self.values[wid]
        if wid in self.flaky:
            changed = True  # the wire flaps: every write looks new
        if not changed:
            return None
        self.values[wid] = value
        self.value_changes += 1
        self.changes_this_cycle[wid] += 1
        clock = self.change_clock + 1
        self.change_clock = clock
        self.stamp[wid] = clock
        self.touch_stamp[self.reader_of[wid]] = clock
        self.touch_stamp[self.writer_of[wid]] = clock
        invalidated: Optional[int] = None
        if self.hbr[wid] == 1:
            # The reader consumed the stale value: force re-evaluation.
            reader = self.reader_of[wid]
            bit = 1 << reader
            if not (self.unstable_mask & bit):
                self.unstable_mask |= bit
                invalidated = reader
        self.hbr[wid] = 0
        return invalidated

    def write_outputs(self, unit: int, values: Sequence[int]) -> List[int]:
        """Write all wires ``unit`` drives; returns readers invalidated."""
        invalidated: List[int] = []
        wire_ids = self.writes_by_unit[unit]
        if len(values) != len(wire_ids):
            raise ValueError(
                f"unit {unit} drives {len(wire_ids)} wires, got {len(values)} values"
            )
        for wid, value in zip(wire_ids, values):
            reader = self.write_wire(wid, value)
            if reader is not None:
                invalidated.append(reader)
        return invalidated

    def mark_stable(self, unit: int) -> None:
        self.unstable_mask &= ~(1 << unit)

    def is_stable(self, unit: int) -> bool:
        return not (self.unstable_mask >> unit) & 1

    def all_stable(self) -> bool:
        return self.unstable_mask == 0

    @property
    def stable(self) -> Tuple[bool, ...]:
        """Per-unit stability flags, derived from ``unstable_mask``
        (introspection helper; the mask is the working representation)."""
        mask = self.unstable_mask
        return tuple(not (mask >> u) & 1 for u in range(self.n_units))

    def unit_hbr_group(self, unit: int) -> Tuple[int, ...]:
        """The HBR bits of the wires ``unit`` reads (debug/Fig. 5 checks)."""
        return tuple(self.hbr[wid] for wid in self.reads_by_unit[unit])

    def value_of(self, name: str) -> int:
        return self.values[self._by_name[name]]

    # -- fault injection -------------------------------------------------------
    def inject_value_fault(self, wid: int, xor_mask: int) -> int:
        """Flip bits of the stored wire value in place (transient SEU).

        The HBR bit is deliberately left untouched: a reader that
        already consumed the wire is *not* re-evaluated, exactly like
        the hardware — the corruption propagates silently unless a
        downstream integrity check catches it.  Returns the new value.
        """
        value = (self.values[wid] ^ xor_mask) & self._masks[wid]
        self.values[wid] = value
        clock = self.change_clock + 1
        self.change_clock = clock
        self.stamp[wid] = clock
        self.touch_stamp[self.reader_of[wid]] = clock
        self.touch_stamp[self.writer_of[wid]] = clock
        self.faults_injected += 1
        return value

    def set_stuck(self, wid: int, bit: int, value: int) -> None:
        """Install a persistent stuck-at fault on one bit of a wire."""
        if not 0 <= bit < self.specs[wid].width:
            raise ValueError(f"bit {bit} out of range for wire {self.specs[wid].name!r}")
        and_mask, or_mask = self.stuck.get(wid, (self._masks[wid], 0))
        if value:
            or_mask |= 1 << bit
        else:
            and_mask &= ~(1 << bit)
        self.stuck[wid] = (and_mask, or_mask)
        # The fault acts on the stored value immediately.
        self.values[wid] = (self.values[wid] & and_mask) | or_mask
        clock = self.change_clock + 1
        self.change_clock = clock
        self.stamp[wid] = clock
        self.touch_stamp[self.reader_of[wid]] = clock
        self.touch_stamp[self.writer_of[wid]] = clock
        self.faults_injected += 1

    def set_flaky(self, wid: int) -> None:
        """Install a flap fault: every write to the wire registers as a
        change for its reader.  Two flapping wires forming a cycle
        between two units livelock the dynamic schedule."""
        self.flaky.add(wid)
        self.faults_injected += 1

    # -- quarantine (recovery) --------------------------------------------------
    def quarantine(self, wid: int, frozen_value: int = 0) -> None:
        """Freeze a wire at ``frozen_value`` and ignore all future writes.

        This is the repair action for a permanently faulty link: the
        wire stops carrying data (and stops flapping), and the fabric
        reroutes around it.  Clears any installed persistent fault on
        the wire.
        """
        self.flaky.discard(wid)
        self.stuck.pop(wid, None)
        self.quarantined.add(wid)
        if self.values[wid] != frozen_value:
            self.values[wid] = frozen_value
            clock = self.change_clock + 1
            self.change_clock = clock
            self.stamp[wid] = clock
            self.touch_stamp[self.reader_of[wid]] = clock
            self.touch_stamp[self.writer_of[wid]] = clock
            self.unstable_mask |= 1 << self.reader_of[wid]
        self.hbr[wid] = 0

    def flapping_wires(self, threshold: int) -> List[str]:
        """Names of wires that changed more than ``threshold`` times in
        the current system cycle — the livelock suspects."""
        return [
            self.specs[wid].name
            for wid, count in enumerate(self.changes_this_cycle)
            if count > threshold
        ]

    # -- sizing (feeds the Table-2 resource model) ----------------------------
    @property
    def total_bits(self) -> int:
        """Value bits plus one HBR bit per wire."""
        return sum(w.width + 1 for w in self.specs)
