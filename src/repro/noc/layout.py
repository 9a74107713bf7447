"""The Table-1 state-word bit layout.

The paper's method extracts every register of the router design and
concatenates it into one wide memory word; Table 1 accounts for the
width:

====================================  =====
Input queues                          1440
Router control and arbitration         292
Links                                  200
Stimuli interfaces                     180
**Total**                             2112
====================================  =====

This module *derives* those numbers from :class:`RouterConfig` rather
than hard-coding them, and provides lossless pack/unpack between the
Python state objects and the flat word — the transformation the paper
performs manually on the VHDL sources ("the extraction of all registers
in the design and their mapping on a memory position").

Documented field breakdown for the default configuration (the paper
gives only the four category totals; the sub-fields are our router's
actual registers, and they sum to the published totals by construction
of the microarchitecture):

* **Input queues (1440)** — 20 queues x 4 entries x 18-bit flits.
* **Control (292)** — per-queue read/write pointers and occupancy
  counters 20 x (2+2+3) = 140; output-VC allocation table
  20 x (valid 1 + source-queue 5) = 120; 5 arbiter round-robin pointers
  x 5 = 25; allocator rotating pointer 5; status flags 2.
* **Links (200)** — the 10 forward link words (5 in + 5 out) x 20 bits
  adjacent to the router.  (The 40 bits of backward per-VC room wires
  live in the link memory too but are outside the Table-1 register
  count; see :mod:`repro.seqsim.linkmem`.)
* **Stimuli interface (180)** — 4 injection head registers x 18 = 72,
  4 valid bits, 2-bit injection round-robin pointer, 4 access-delay
  counters x 20 = 80, ejection register 20 + valid 1, stall flag 1.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.bits import ArrayField, BitVector, Field, StructLayout
from repro.noc.config import NetworkConfig, RouterConfig
from repro.noc.network import StimuliState
from repro.noc.router import RouterState

#: Width of the stimuli access-delay counters (chosen so the default
#: configuration reproduces Table 1's 180-bit stimuli interface).
ACCESS_DELAY_BITS = 20


class EventLayout:
    """The packed words of a logged event (DESIGN section 14).

    Word 0 holds, LSB first, an injection's access delay, the VC, the
    router (any router a header can address) and the cycle in the bits
    left of 63; word 1 holds the flit.  An ejection's delay bits read 0.
    A value that does not fit its field raises; none wraps.  Built once
    a router configuration (:attr:`RouterConfig.event_layout`).
    """

    def __init__(self, cfg: RouterConfig) -> None:
        router = (NetworkConfig.MAX_ROUTERS - 1).bit_length()
        widths = dict(delay=ACCESS_DELAY_BITS, vc=cfg.vc_bits, router=router)
        widths["cycle"] = 63 - sum(widths.values())
        self.word = StructLayout("event_word", [Field(*item) for item in widths.items()])
        #: each field's width, the flit (word 1) included
        self.fields = {m.name: m for m in self.word.members}
        self.fields["flit"] = Field("flit", cfg.flit_width)
        self.shifts = tuple(map(self.word.offset_of, ("vc", "router", "cycle")))

    def check(self, name: str, values) -> np.ndarray:
        """``values`` as int64, or raise unless every one fits field ``name``."""
        width = self.fields[name].width
        values = np.asarray(values, dtype=np.int64)
        bad = values[(values >> width) != 0]
        if bad.size:
            raise ValueError(f"field {name!r}: value {int(bad[0]):#x} does not fit in {width} bits")
        return values

    def pack(self, cycle, router, vc, flit, delay=0) -> np.ndarray:
        """The ``[2, n]`` packed words of events given field by field
        (columns); with ``delay``, injections."""
        columns = dict(cycle=cycle, router=router, vc=vc, flit=flit, delay=delay)
        cycle, router, vc, flit, delay = (self.check(*column) for column in columns.items())
        vs, rs, cs = self.shifts
        rows = np.broadcast_arrays((cycle << cs) | (router << rs) | (vc << vs) | delay, flit)
        return np.array(rows, dtype=np.int64).reshape(2, -1)

    def routers(self, words):
        """The router field alone of packed words (:meth:`unpack`'s second)."""
        _, rs, cs = self.shifts
        return (words[0] >> rs) & ((1 << (cs - rs)) - 1)

    def unpack(self, words):
        """``cycle, router, vc, flit, delay`` of packed words: the rows of
        a block, or one event's words."""
        vs, rs, cs = self.shifts
        word = words[0]
        router, vc = (word >> rs) & ((1 << (cs - rs)) - 1), (word >> vs) & ((1 << (rs - vs)) - 1)
        return word >> cs, router, vc, words[1], word & ((1 << vs) - 1)


def queue_storage_layout(cfg: RouterConfig) -> StructLayout:
    """Section "Input queues" of Table 1."""
    return StructLayout(
        "input_queues",
        [
            ArrayField(
                "queues",
                ArrayField("entries", Field("flit", cfg.flit_width), cfg.queue_depth),
                cfg.n_queues,
            )
        ],
    )


def control_layout(cfg: RouterConfig) -> StructLayout:
    """Section "Router control and arbitration" of Table 1."""
    pointer = StructLayout(
        "queue_ptrs",
        [
            Field("rd", cfg.pointer_bits),
            Field("wr", cfg.pointer_bits),
            Field("count", cfg.count_bits),
        ],
    )
    alloc_entry = StructLayout(
        "alloc_entry",
        [Field("valid", 1), Field("src", cfg.queue_index_bits)],
    )
    return StructLayout(
        "control",
        [
            ArrayField("pointers", pointer, cfg.n_queues),
            ArrayField("alloc", alloc_entry, cfg.n_ports * cfg.n_vcs),
            ArrayField("arb_ptr", Field("ptr", cfg.queue_index_bits), cfg.n_ports),
            Field("alloc_ptr", cfg.queue_index_bits),
            Field("flags", 2),
        ],
    )


def links_layout(cfg: RouterConfig) -> StructLayout:
    """Section "Links" of Table 1: forward words at the router's ports."""
    return StructLayout(
        "links",
        [
            ArrayField("fwd_in", Field("word", cfg.link_width), cfg.n_ports),
            ArrayField("fwd_out", Field("word", cfg.link_width), cfg.n_ports),
        ],
    )


def stimuli_layout(cfg: RouterConfig) -> StructLayout:
    """Section "Stimuli interfaces" of Table 1."""
    return StructLayout(
        "stimuli",
        [
            ArrayField("inj_word", Field("flit", cfg.flit_width), cfg.n_vcs),
            ArrayField("inj_valid", Field("v", 1), cfg.n_vcs),
            Field("rr_ptr", cfg.vc_bits),
            ArrayField("delay", Field("count", ACCESS_DELAY_BITS), cfg.n_vcs),
            Field("eject_word", cfg.link_width),
            Field("eject_valid", 1),
            Field("stalled", 1),
        ],
    )


def state_word_layout(cfg: RouterConfig) -> StructLayout:
    """The full per-router memory word of Table 1."""
    return StructLayout(
        "router_state_word",
        [
            queue_storage_layout(cfg),
            control_layout(cfg),
            links_layout(cfg),
            stimuli_layout(cfg),
        ],
    )


def table1(cfg: RouterConfig) -> Dict[str, int]:
    """The rows of Table 1, derived from the configuration."""
    rows = {
        "Input queues": queue_storage_layout(cfg).total_width,
        "Router control and arbitration": control_layout(cfg).total_width,
        "Links": links_layout(cfg).total_width,
        "Stimuli interfaces": stimuli_layout(cfg).total_width,
    }
    rows["Total"] = sum(rows.values())
    return rows


# -- pack / unpack between state objects and memory words ----------------------


def pack_router_core(cfg: RouterConfig, state: RouterState) -> BitVector:
    """Pack queues + control (the registered state proper) into one word."""
    layout = StructLayout(
        "core", [queue_storage_layout(cfg), control_layout(cfg)]
    )
    return layout.pack(
        {
            "input_queues": {"queues": _queue_values(state)},
            "control": _control_values(cfg, state),
        }
    )


def unpack_router_core(cfg: RouterConfig, word: BitVector) -> RouterState:
    layout = StructLayout(
        "core", [queue_storage_layout(cfg), control_layout(cfg)]
    )
    values = layout.unpack(word)
    return _state_from_values(cfg, values["input_queues"]["queues"], values["control"])


def pack_stimuli(cfg: RouterConfig, state: StimuliState) -> BitVector:
    return stimuli_layout(cfg).pack(
        {
            "inj_word": list(state.inj_word),
            "inj_valid": list(state.inj_valid),
            "rr_ptr": state.rr_ptr,
            "delay": list(state.delay),
            "eject_word": state.eject_word,
            "eject_valid": state.eject_valid,
            "stalled": state.stalled,
        }
    )


def unpack_stimuli(cfg: RouterConfig, word: BitVector) -> StimuliState:
    values = stimuli_layout(cfg).unpack(word)
    state = StimuliState(cfg.n_vcs)
    state.inj_word = list(values["inj_word"])
    state.inj_valid = list(values["inj_valid"])
    state.rr_ptr = values["rr_ptr"]
    state.delay = list(values["delay"])
    state.eject_word = values["eject_word"]
    state.eject_valid = values["eject_valid"]
    state.stalled = values["stalled"]
    return state


def _queue_values(state: RouterState) -> List[List[int]]:
    return [list(q.mem) for q in state.queues]


def _control_values(cfg: RouterConfig, state: RouterState) -> Dict:
    return {
        "pointers": [
            {"rd": q.rd, "wr": q.wr, "count": q.count} for q in state.queues
        ],
        "alloc": [
            {"valid": 1, "src": src} if src >= 0 else {"valid": 0, "src": 0}
            for src in state.alloc
        ],
        "arb_ptr": list(state.arb_ptr),
        "alloc_ptr": state.alloc_ptr,
        "flags": state.flags,
    }


def _state_from_values(cfg: RouterConfig, queue_values, control) -> RouterState:
    state = RouterState(cfg)
    for q, mem, ptrs in zip(state.queues, queue_values, control["pointers"]):
        q.mem = list(mem)
        q.rd = ptrs["rd"]
        q.wr = ptrs["wr"]
        q.count = ptrs["count"]
    state.alloc = [
        entry["src"] if entry["valid"] else -1 for entry in control["alloc"]
    ]
    # Rebuild the inverse map from the allocation table.
    state.queue_alloc = [-1] * cfg.n_queues
    for ovc, src in enumerate(state.alloc):
        if src >= 0:
            state.queue_alloc[src] = ovc
    state.arb_ptr = list(control["arb_ptr"])
    state.alloc_ptr = control["alloc_ptr"]
    state.flags = control["flags"]
    return state
