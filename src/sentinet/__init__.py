"""sentinet: deterministic simulator for self-managing security-agent swarms.

The library models autonomous checker cells patrolling a network, two local
information protocols that steer them (deficiency notifications and traversal
trails), and the uninformed and centralized baselines to compare them against.
"""

from .engine import ConfigError, Engine, MovementParams, SimulationConfig, plan_rebalance
from .metrics import MetricsReport
from .notify import NotifyParams, flood_trace
from .threat import TrafficConfig, TrafficSource
from .topology import (
    Connection,
    NodeRole,
    Topology,
    TopologyConfig,
    TopologyError,
    generate_topology,
    load_topology,
    save_topology,
)
from .trails import TrailParams, TrailState

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Connection",
    "Engine",
    "MetricsReport",
    "MovementParams",
    "NodeRole",
    "NotifyParams",
    "SimulationConfig",
    "Topology",
    "TopologyConfig",
    "TopologyError",
    "TrafficConfig",
    "TrafficSource",
    "TrailParams",
    "TrailState",
    "flood_trace",
    "generate_topology",
    "load_topology",
    "plan_rebalance",
    "save_topology",
]
