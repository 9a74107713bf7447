"""Xilinx Virtex-II device capacity data.

Table 2 quotes utilisation percentages; combined with the absolute
numbers (7053 "CLB" = 15 %, 139 RAM = 82 %) they pin the capacity units:
the "CLB" column counts *slices* (XC2V8000: 46 592 slices -> 7053/46592
= 15.1 %) and the RAM column counts 18-Kbit BlockRAMs (168 -> 139/168 =
82.7 %).  The device model keeps both conventions explicit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FpgaDevice:
    """Capacity of one FPGA device."""

    name: str
    slices: int
    bram_blocks: int  # 18-Kbit BlockRAMs
    tbufs: int  # internal tri-state buffers (a section-4 bottleneck)
    multipliers: int = 0

    #: usable bits per BlockRAM including the parity bits (512 x 36 mode).
    BRAM_BITS = 18 * 1024

    @property
    def clbs(self) -> int:
        """Virtex-II: one CLB = four slices."""
        return self.slices // 4

#: The paper's platform FPGA.
VIRTEX2_8000 = FpgaDevice(
    name="XC2V8000",
    slices=46_592,
    bram_blocks=168,
    tbufs=23_296,  # 2 per slice pair, Virtex-II routing fabric
    multipliers=168,
)

#: Smaller family members, for the section-6 "smaller FPGAs" discussion.
VIRTEX2_6000 = FpgaDevice(
    name="XC2V6000",
    slices=33_792,
    bram_blocks=144,
    tbufs=16_896,
    multipliers=144,
)

VIRTEX2_4000 = FpgaDevice(
    name="XC2V4000",
    slices=23_040,
    bram_blocks=120,
    tbufs=11_520,
    multipliers=120,
)
