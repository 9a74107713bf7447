"""The ARM-visible address map of the FPGA design (Figs. 6/7).

"All registers and memory of the FPGA design, via the memory interface,
are available in the address map of the ARM9 processor."  The interface
is 32 bits of data and 17 bits of address (section 5.1), i.e. a 128K-word
window — this module lays the design's memories into that window and
counts the bus words an entry takes to cross it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.fpga.resources import (
    BUFFER_ENTRY_BITS,
    OUTPUT_BUFFER_DEPTH,
    VC_STIMULI_BUFFER_DEPTH,
)
from repro.noc.config import NetworkConfig

#: memory interface geometry (section 5.1)
ADDRESS_BITS = 17
DATA_BITS = 32


@dataclass(frozen=True)
class Region:
    """One address-map region."""

    name: str
    base: int
    words: int

    @property
    def end(self) -> int:
        return self.base + self.words

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class MemoryMap:
    """Address map of the simulator design for a given network size."""

    def __init__(self, net: NetworkConfig, max_routers: Optional[int] = None) -> None:
        self.net = net
        n = max_routers if max_routers is not None else NetworkConfig.MAX_ROUTERS
        rc = net.router
        words_per_entry = -(-BUFFER_ENTRY_BITS // DATA_BITS)  # 36 b -> 2 words
        regions: List[Region] = []
        base = 0

        def region(name: str, words: int) -> Region:
            nonlocal base
            r = Region(name, base, words)
            regions.append(r)
            base += words
            return r

        self.control = region("control registers", 16)
        self.rng = region("random number generator", 1)
        self.status = region("status / delta counters", 8)
        self.stimuli = region(
            "VC stimuli buffers", n * rc.n_vcs * VC_STIMULI_BUFFER_DEPTH * words_per_entry
        )
        self.output = region("output buffers", n * OUTPUT_BUFFER_DEPTH * words_per_entry)
        self.link_log = region("link traffic log", 512)
        self.delay_log = region("access delay log", 512)
        self.routing = region("routing tables", (n * n * 3 + DATA_BITS - 1) // DATA_BITS)
        self.regions = regions
        self.words_per_entry = words_per_entry
        if base > (1 << ADDRESS_BITS):
            raise ValueError(
                f"address map needs {base} words; the 17-bit interface "
                f"offers {1 << ADDRESS_BITS}"
            )

    @property
    def words_used(self) -> int:
        return self.regions[-1].end

    def region_of(self, address: int) -> Region:
        for region in self.regions:
            if region.contains(address):
                return region
        raise IndexError(f"address {address:#x} unmapped")

    def stimuli_entry_address(self, router: int, vc: int, slot: int) -> int:
        """Word address of one stimuli-buffer entry."""
        rc = self.net.router
        if not (0 <= vc < rc.n_vcs and 0 <= slot < VC_STIMULI_BUFFER_DEPTH):
            raise IndexError("vc/slot out of range")
        index = (router * rc.n_vcs + vc) * VC_STIMULI_BUFFER_DEPTH + slot
        return self.stimuli.base + index * self.words_per_entry

    def output_entry_address(self, router: int, slot: int) -> int:
        if not 0 <= slot < OUTPUT_BUFFER_DEPTH:
            raise IndexError("slot out of range")
        index = router * OUTPUT_BUFFER_DEPTH + slot
        return self.output.base + index * self.words_per_entry

    def transfer_words(self, payload_bits: int) -> int:
        """32-bit bus words needed to move ``payload_bits`` across the
        memory interface (the unit the Table 3/4 costs are counted in)."""
        return -(-payload_bits // DATA_BITS)

    def render(self) -> str:
        lines = [f"{'region':<28} {'base':>8} {'words':>8}"]
        for region in self.regions:
            lines.append(f"{region.name:<28} {region.base:>#8x} {region.words:>8}")
        lines.append(
            f"{'(used / available)':<28} {self.words_used:>8} / {1 << ADDRESS_BITS}"
        )
        return "\n".join(lines)
