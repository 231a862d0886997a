"""Trail-guided patrol versus an uninformed walker.

One checker sweeps a 50-node network for 2000 steps, once guided by the
traversal trails (prefer the direction least recently taken) and once moving
uniformly at random with the resting probability. The trail walk spreads its
attention: shorter worst-case gaps between visits, far fewer rapid re-checks.
"""

import numpy as np

from sentinet import (
    MovementParams,
    SimulationConfig,
    TopologyConfig,
    TrafficConfig,
    Engine,
)
from sentinet.trails import TrailParams

BASE = dict(
    topology=TopologyConfig(node_count=50, seed=3),
    cell_types=1,
    packet_checkers_per_type=0,
    node_checkers_per_type=1,
    min_security=0.0,
    movement=MovementParams(0.3, 0.1, 0.8),
    trail_params=TrailParams(increase_base=120.0, increase_scale=0.001, decay_step=0.5, value_cap=150.0),
    traffic=TrafficConfig(),
    duration=2000,
    seed=1,
)


def visit_gaps(report, n_nodes):
    gaps = []
    for node in range(n_nodes):
        times = report.check_times[report.check_nodes == node]
        if len(times) < 2:
            gaps.append(report.duration)
        else:
            gaps.append(int(np.diff(times).max()))
    return np.array(gaps)


for name in ("trails", "uninformed"):
    config = SimulationConfig(strategy=name, **BASE)
    engine = Engine(config)
    report = engine.run()
    n = engine.topology.node_count
    visited = len(np.unique(report.check_nodes))
    gaps = visit_gaps(report, n)
    rapid = report.redundant_check_count(min_gap=10)
    print(f"== single {name} checker, 2000 steps on {n} nodes ==")
    print(f"  nodes ever checked: {visited}/{n}")
    print(f"  worst gap between visits: median {int(np.median(gaps))}, max {int(gaps.max())}")
    print(f"  re-checks within 10 steps of the previous: {rapid}")
    print()
