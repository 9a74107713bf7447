"""Models of the FPGA platform (paper sections 5 and 6).

* :mod:`repro.fpga.device` — Virtex-II family capacity data,
* :mod:`repro.fpga.resources` — the Table-2 resource estimators and the
  section-4 direct-instantiation limit,
* :mod:`repro.fpga.memory_map` — the ARM-visible address map of the
  design (Figs. 6/7),
* :mod:`repro.fpga.timing` — the Table-3/Table-4 performance model.
"""

from repro.fpga.device import VIRTEX2_6000, VIRTEX2_8000, FpgaDevice
from repro.fpga.resources import (
    BlockUsage,
    ResourceReport,
    direct_instantiation_limit,
    simulator_resources,
)
from repro.fpga.memory_map import MemoryMap
from repro.fpga.timing import ArmSoftwareModel, FpgaTimingModel, PlatformModel

__all__ = [
    "ArmSoftwareModel",
    "BlockUsage",
    "FpgaDevice",
    "FpgaTimingModel",
    "MemoryMap",
    "PlatformModel",
    "ResourceReport",
    "VIRTEX2_6000",
    "VIRTEX2_8000",
    "direct_instantiation_limit",
    "simulator_resources",
]
