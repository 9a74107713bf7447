"""Direct cycle-accurate simulation of the circuit-switched network.

One system cycle: every router's output registers capture the value of
their configured input channel — the neighbour's registered output for
link ports, the injection register for the local port.  Data therefore
advances exactly one hop per cycle: a word injected at cycle t on a
circuit of h hops ejects at cycle t + h + 1 (h link traversals plus the
destination's local output register).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.circuit.router import CircuitConfig, CircuitRouterState
from repro.noc.config import NetworkConfig, Port
from repro.noc.topology import Topology


@dataclass(frozen=True)
class CircuitEjection:
    """A word leaving the network at a local output lane."""

    cycle: int
    router: int
    lane: int
    word: int


class CircuitNetwork:
    """The golden model of the circuit-switched fabric."""

    def __init__(self, cfg: CircuitConfig) -> None:
        self.cfg = cfg
        # Reuse the packet-network topology helper (same 2-D fabric).
        self._net_shim = NetworkConfig(cfg.width, cfg.height, topology=cfg.topology)
        self.topology = Topology(self._net_shim)
        self.states: List[CircuitRouterState] = [
            CircuitRouterState(cfg) for _ in range(cfg.n_routers)
        ]
        # Injection registers: the local *input* channels of each router.
        self.inj_word: List[List[int]] = [[0] * cfg.n_lanes for _ in range(cfg.n_routers)]
        self.inj_valid: List[List[int]] = [[0] * cfg.n_lanes for _ in range(cfg.n_routers)]
        self.cycle = 0
        self.ejections: List[CircuitEjection] = []
        self._neighbor = [
            [self.topology.neighbor(r, Port(p)) for p in range(cfg.n_ports)]
            for r in range(cfg.n_routers)
        ]

    # -- streaming API ---------------------------------------------------------
    def inject(self, router: int, lane: int, word: int) -> None:
        """Present a word on a local input lane for the coming cycle."""
        if word >> self.cfg.data_width:
            raise ValueError(f"word {word:#x} exceeds {self.cfg.data_width} bits")
        self.inj_word[router][lane] = word
        self.inj_valid[router][lane] = 1

    # -- one system cycle -------------------------------------------------------
    def _input_channel_value(self, router: int, in_channel: int) -> Tuple[int, int]:
        """(word, valid) currently on an input channel of ``router``."""
        cfg = self.cfg
        in_port, in_lane = divmod(in_channel, cfg.n_lanes)
        if in_port == Port.LOCAL:
            return self.inj_word[router][in_lane], self.inj_valid[router][in_lane]
        neighbor = self._neighbor[router][in_port]
        if neighbor is None:
            return 0, 0
        # The wire at our input port p carries the neighbour's registered
        # output at its opposite port, same lane.
        src = self.states[neighbor]
        ch = cfg.channel(Port(in_port).opposite, in_lane)
        return src.out_reg[ch], src.out_valid[ch]

    def step(self) -> None:
        cfg = self.cfg
        new_states = [s.copy() for s in self.states]
        for r in range(cfg.n_routers):
            state = self.states[r]
            new = new_states[r]
            for out_ch in range(cfg.n_channels):
                src_ch = state.source[out_ch]
                if src_ch < 0:
                    continue
                word, valid = self._input_channel_value(r, src_ch)
                new.out_reg[out_ch] = word
                new.out_valid[out_ch] = valid
        self.states = new_states
        # Ejections: local output registers that captured valid data.
        for r in range(cfg.n_routers):
            base = int(Port.LOCAL) * cfg.n_lanes
            for lane in range(cfg.n_lanes):
                if self.states[r].out_valid[base + lane]:
                    self.ejections.append(
                        CircuitEjection(self.cycle, r, lane, self.states[r].out_reg[base + lane])
                    )
        # Injection registers are single-cycle: consumed every cycle.
        for r in range(cfg.n_routers):
            for lane in range(cfg.n_lanes):
                self.inj_word[r][lane] = 0
                self.inj_valid[r][lane] = 0
        self.cycle += 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def snapshot(self) -> Tuple:
        return tuple(s.state_tuple() for s in self.states)
