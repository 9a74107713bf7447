"""Bit-exact simulation checkpointing.

The sequential simulator's premise — all architectural state lives in
packed memory words — makes checkpointing trivial: dump the words, later
write them back.  This is exactly what the ARM can do through the
memory interface between simulation periods ("all registers and memory
of the FPGA design [...] are available in the address map").

A checkpoint captures every router core word, every stimuli-interface
word and the cycle counter.  Restoring into *any* engine (even a
different engine type than the one that saved it) resumes the identical
simulation — the cross-engine restore test is the strongest form of the
bit-accuracy claim.  A batch engine (the compiled sequential engine
included) is read and written through its lane 0, whichever body runs
it; link-memory contents — the Python model's, the compiled pass's wire
plane — are simulator state and travel in no checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

from repro.bits import BitVector
from repro.noc.layout import (
    pack_router_core,
    pack_stimuli,
    unpack_router_core,
    unpack_stimuli,
)


class CheckpointError(RuntimeError):
    """Checkpoint does not fit the target network."""


@dataclass(frozen=True)
class Checkpoint:
    """A frozen architectural snapshot."""

    cycle: int
    width: int
    height: int
    topology: str
    core_words: tuple  # (width, value) per router
    iface_words: tuple  # (width, value) per router

    # -- serialisation ------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "cycle": self.cycle,
                "width": self.width,
                "height": self.height,
                "topology": self.topology,
                "core_words": [[w, f"{v:x}"] for w, v in self.core_words],
                "iface_words": [[w, f"{v:x}"] for w, v in self.iface_words],
            }
        )

    @staticmethod
    def from_json(text: str) -> "Checkpoint":
        try:
            data = json.loads(text)
            return Checkpoint(
                cycle=data["cycle"],
                width=data["width"],
                height=data["height"],
                topology=data["topology"],
                core_words=tuple((w, int(v, 16)) for w, v in data["core_words"]),
                iface_words=tuple((w, int(v, 16)) for w, v in data["iface_words"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            # json.JSONDecodeError is a ValueError: truncated or garbled
            # text, missing keys and malformed words all surface as the
            # one checkpoint-domain error.
            raise CheckpointError(f"unreadable checkpoint: {exc}") from exc


def _object_state(engine):
    """``(router states, stimuli states)`` of ``engine``: a Network's
    own lists, or lane 0 of a batch engine as objects."""
    if hasattr(engine, "states"):
        return engine.states, engine.iface_states
    return engine.lane_objects(0)


def save_checkpoint(engine) -> Checkpoint:
    """Snapshot an engine's architectural state."""
    cfg = engine.cfg
    states, iface_states = _object_state(engine)
    cores: List = []
    ifaces: List = []
    for r in range(cfg.n_routers):
        rc = cfg.router_at(r)
        core = pack_router_core(rc, states[r])
        stim = pack_stimuli(rc, iface_states[r])
        cores.append((core.width, core.value))
        ifaces.append((stim.width, stim.value))
    return Checkpoint(
        cycle=engine.cycle,
        width=cfg.width,
        height=cfg.height,
        topology=cfg.topology,
        core_words=tuple(cores),
        iface_words=tuple(ifaces),
    )


def restore_checkpoint(engine, checkpoint: Checkpoint) -> None:
    """Write a checkpoint into an engine.

    The target must have the same fabric shape and per-router word
    widths (i.e. the same configuration); the engine *type* is free.
    """
    cfg = engine.cfg
    if (cfg.width, cfg.height, cfg.topology) != (
        checkpoint.width,
        checkpoint.height,
        checkpoint.topology,
    ):
        raise CheckpointError(
            f"checkpoint is for a {checkpoint.width}x{checkpoint.height} "
            f"{checkpoint.topology}, target is {cfg.width}x{cfg.height} {cfg.topology}"
        )
    if len(checkpoint.core_words) != cfg.n_routers:
        raise CheckpointError("router count mismatch")
    states, iface_states = _object_state(engine)
    for r in range(cfg.n_routers):
        rc = cfg.router_at(r)
        core_width, core_value = checkpoint.core_words[r]
        stim_width, stim_value = checkpoint.iface_words[r]
        probe = pack_router_core(rc, states[r])
        if probe.width != core_width:
            raise CheckpointError(
                f"router {r}: word width {core_width} != target {probe.width} "
                "(different RouterConfig)"
            )
        states[r] = unpack_router_core(rc, BitVector(core_width, core_value))
        iface_states[r] = unpack_stimuli(rc, BitVector(stim_width, stim_value))
    if not hasattr(engine, "states"):
        engine.load_lane(0, states, iface_states)
    engine.cycle = checkpoint.cycle
    # Sequential engines keep packed shadows of the committed state.
    # `initialize` writes *both* banks (with fresh parity), so a restore
    # also heals any corrupted word a fault left behind in either bank.
    if getattr(engine, "packed", False):
        for r in range(cfg.n_routers):
            engine.statemem.initialize(r, engine._pack_unit(r))
