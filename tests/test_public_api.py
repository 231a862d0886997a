"""The exported names, pinned: growing or shrinking the API edits this list."""

import sentinet

PUBLIC_API = [
    "ConfigError", "Connection", "Engine", "MetricsReport", "MovementParams",
    "NodeRole", "NotifyParams", "SimulationConfig", "Topology", "TopologyConfig",
    "TopologyError", "TrafficConfig", "TrafficSource", "TrailParams", "TrailState",
    "flood_trace", "generate_topology", "load_topology", "plan_rebalance", "save_topology",
]


def test_all_pins_the_public_api():
    assert sorted(sentinet.__all__) == PUBLIC_API
