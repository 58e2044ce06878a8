"""Desk-scale simulator and analysis toolkit for an on-demand, duty-cycled
sensor network collected by a mobile sink.

The pieces: a preamble-sampling MAC with metric-proportional ACK contention
(`mac`), depth-first geographic routing over physical or virtual coordinates
(`routing`), backoff-based blind flooding (`flood`), the six-phase collection
scenario tying them together (`scenario`), and closed-form energy/real-time
calculators (`energy`).
"""

from .core import DEFAULT_CONSTANTS, ProtocolConstants, validate_constants
from .flood import simulate_flood
from .radio import Topology, build_udg, grid_topology
from .routing import init_virtual_coords, route
from .scenario import ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONSTANTS",
    "ProtocolConstants",
    "validate_constants",
    "Topology",
    "build_udg",
    "grid_topology",
    "simulate_flood",
    "route",
    "init_virtual_coords",
    "ScenarioConfig",
    "run_scenario",
    "__version__",
]
