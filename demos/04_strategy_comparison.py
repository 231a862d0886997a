"""All five management strategies on one desk-scale scenario.

A 60-node network, 12 cell types, internal attacks dominating the traffic.
Uninformed cells drift toward the hubs and leave endpoints exposed; the
centralized manager fixes every shortfall by decree but pays for it in
control bandwidth; the notification protocol closes most of the detection
gap for a fraction of the messages; trails keep the sweep coverage regular.
"""

from sentinet import (
    MovementParams,
    SimulationConfig,
    TopologyConfig,
    TrafficConfig,
    Engine,
)
from sentinet.trails import TrailParams


def build(strategy_name):
    return SimulationConfig(
        topology=TopologyConfig(node_count=60, backbone_redundancy=0.5, seed=None),
        cell_types=12,
        packet_checkers_per_type=30,
        node_checkers_per_type=1,
        min_security=4.0,
        min_security_by_role={},
        movement=MovementParams(0.3, 0.1, 0.8),
        trail_params=TrailParams(increase_base=120.0, increase_scale=0.001, decay_step=0.5, value_cap=150.0),
        traffic=TrafficConfig(packets_per_step=1, infection_probability=0.5, internal_attack_rate=4),
        strategy=strategy_name,
        duration=1500,
        seed=5,
    )


print(f"{'strategy':<14}{'detection':>10}{'coverage':>10}{'bandwidth':>12}{'deficient@end':>15}")
for name in ("uninformed", "centralized", "notification", "trails", "protocols"):
    report = Engine(build(name)).run()
    half = (report.duration // 2, report.duration)
    coverage = report.checked_fraction(report.coverage_window, half)
    print(
        f"{name:<14}{report.detection_rate:>10.3f}{coverage:>10.3f}"
        f"{report.control_bandwidth:>12.0f}{int(report.deficiency_series[-1]):>15}"
    )
print("\ncoverage = fraction of (node, intrusion type, window) slots swept in the final half")
