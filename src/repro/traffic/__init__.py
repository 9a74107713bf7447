"""Traffic generation: stimuli for the network under test.

The paper generates stimuli in ARM software backed by an FPGA random
number generator (section 5.3); this package provides both pieces:

* :mod:`repro.traffic.rng` — the 32-bit hardware LFSR (and the software
  fallback it was benchmarked against);
* :mod:`repro.traffic.generators` — destination patterns and per-class
  packet generators (Bernoulli best-effort load, periodic GT streams);
* :mod:`repro.traffic.stimuli` — timestamped stimuli tables and the
  software-side per-VC queues feeding the injection registers, with
  overload detection ("if the network is overloaded ... this is reported
  to the user and simulation is stopped").
"""

from repro.traffic.rng import HardwareLfsr, SoftwareRand, lfsr_jump
from repro.traffic.generators import (
    BernoulliBeTraffic,
    DestinationPattern,
    GtStreamTraffic,
    bit_complement,
    hotspot,
    neighbor_shift,
    transpose,
    uniform_random,
)
from repro.traffic.stimuli import NetworkOverloadError, TrafficDriver

__all__ = [
    "BernoulliBeTraffic",
    "DestinationPattern",
    "GtStreamTraffic",
    "HardwareLfsr",
    "NetworkOverloadError",
    "SoftwareRand",
    "TrafficDriver",
    "bit_complement",
    "hotspot",
    "lfsr_jump",
    "neighbor_shift",
    "transpose",
    "uniform_random",
]
