"""sentinet: deterministic simulator for self-managing security-agent swarms.

The library models autonomous checker cells patrolling a network, two local
information protocols that steer them (deficiency notifications and traversal
trails), and the uninformed and centralized baselines to compare them against.
"""

from .cells import (
    Cell,
    CellKind,
    MovementParams,
    NotificationView,
    decide_move,
    movement_probability,
    node_security,
)
from .engine import (
    ConfigError,
    Engine,
    SimulationConfig,
    plan_rebalance,
    run,
)
from .metrics import MetricsReport
from .notify import (
    NotificationInbox,
    NotificationPacket,
    NotifyParams,
    decay,
    emit_deficiency,
    flood_trace,
    forward_step,
)
from .threat import (
    Infection,
    TrafficConfig,
    TrafficPacket,
    TrafficSource,
    check_node,
    inspect_packet,
    packet_delivery_outcome,
)
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
from .trails import TrailParams, TrailState, trail_decay, trail_increase

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "CellKind",
    "ConfigError",
    "Connection",
    "Engine",
    "Infection",
    "MetricsReport",
    "MovementParams",
    "NodeRole",
    "NotificationInbox",
    "NotificationPacket",
    "NotificationView",
    "NotifyParams",
    "SimulationConfig",
    "Topology",
    "TopologyConfig",
    "TopologyError",
    "TrafficConfig",
    "TrafficPacket",
    "TrafficSource",
    "TrailParams",
    "TrailState",
    "check_node",
    "decay",
    "decide_move",
    "emit_deficiency",
    "flood_trace",
    "forward_step",
    "generate_topology",
    "inspect_packet",
    "load_topology",
    "movement_probability",
    "node_security",
    "packet_delivery_outcome",
    "plan_rebalance",
    "run",
    "save_topology",
    "trail_decay",
    "trail_increase",
]
