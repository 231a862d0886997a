"""Output checks run after each timed round, outside the timed region.

Every check compares the program's output with something the benchmark works
out for itself from the scenario and the topology (cell counts, requirements,
BFS hops), or with a property the method must have (conservation, accounting,
the one-packet-per-link-direction bound, independence of the random streams).
None compares with a stored copy of earlier output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Expected:
    """Facts the benchmark derives from the scenario sections it wrote."""

    cell_types: int
    pc_per_type: int
    nc_per_type: int
    duration: int
    security_value: float
    min_security: dict[str, float]  # node role value -> requirement

    @classmethod
    def from_sections(cls, sections: dict[str, dict[str, str]]) -> "Expected":
        cells, security = sections.get("cells", {}), sections.get("security", {})
        base = float(security.get("min_security", "20"))
        return cls(
            cell_types=int(cells.get("cell_types", "60")),
            pc_per_type=int(cells.get("packet_checkers_per_type", "3")),
            nc_per_type=int(cells.get("node_checkers_per_type", "1")),
            duration=int(sections["run"]["duration"]),
            security_value=float(cells.get("security_value", "1")),
            min_security={
                role: float(security.get(f"min_security_{role}", base))
                for role in ("workstation", "server", "router", "gateway")
            },
        )

    @property
    def n_pc(self) -> int:
        return self.cell_types * self.pc_per_type

    @property
    def n_nc(self) -> int:
        return self.cell_types * self.nc_per_type


def bfs_hops(node_count: int, edges: list[tuple[int, int]], source: int) -> list[int]:
    """Hop counts from source over an undirected edge list; -1 if unreachable."""
    adjacency: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    hops = [-1] * node_count
    hops[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if hops[w] < 0:
                hops[w] = hops[v] + 1
                queue.append(w)
    return hops


class TopologyFacts:
    """The benchmark's own view of a generated topology."""

    def __init__(self, topology) -> None:
        self.roles = [role.value for role in topology.roles]
        self.gateway = self.roles.index("gateway")
        self.edges = {(min(c.u, c.v), max(c.u, c.v)) for c in topology.edges}
        self.hops = bfs_hops(len(self.roles), sorted(self.edges), self.gateway)


def check_run(
    strategy: str,
    engine,
    report,
    expected: Expected,
    facts: TopologyFacts,
    plans: list[list[tuple[int, int, int]]] | None = None,
) -> list[str]:
    """Failures of one strategy run; an empty list means every check held."""
    failures: list[str] = []

    def need(ok, message: str) -> None:
        if not ok:
            failures.append(f"{strategy}: {message}")

    n_cells = expected.n_pc + expected.n_nc
    row_sums = report.entity_counts.sum(axis=1)
    need(len(row_sums) == expected.duration, f"{len(row_sums)} entity rows, expected {expected.duration}")
    need(bool(np.all(row_sums == n_cells)), f"entity counts do not sum to {n_cells} cells")
    need(report.max_link_load <= 1, f"max_link_load {report.max_link_load} > 1")

    in_flight_infected = sum(p.payload is not None for p in engine.in_flight)
    accounted = report.detected_packets + report.delivered_infected + in_flight_infected
    need(
        accounted == report.introduced_packets,
        f"detected+delivered+in flight {accounted} != introduced {report.introduced_packets}",
    )
    need(
        report.infections_created - report.infections_cleared == report.infections_active,
        "infections created - cleared != active",
    )
    total = report.notification_packets_total
    need(
        total == int(report.notification_series.sum()) == int(report.notification_per_connection.sum()),
        "notification total, per-step sum and per-connection sum differ",
    )
    need(
        len(report.check_times) == expected.n_nc * expected.duration,
        f"{len(report.check_times)} node checks, expected {expected.n_nc * expected.duration}",
    )

    source = engine.traffic_source
    paths = list(getattr(source, "_gateway_paths", {}).values())
    paths += [p.path for p in engine.in_flight if p.source == facts.gateway and len(p.path) > 1]
    for path in paths:
        ok = (
            path[0] == facts.gateway
            and len(path) - 1 == facts.hops[path[-1]]
            and all((min(a, b), max(a, b)) in facts.edges for a, b in zip(path, path[1:]))
        )
        if not ok:
            need(False, f"gateway path to {path[-1]} is not a shortest path over existing links")
            break

    if strategy == "centralized":
        counts = np.bincount(engine.loc[: expected.n_pc], minlength=len(facts.roles))
        security = counts * expected.security_value
        short = [v for v, role in enumerate(facts.roles) if security[v] < expected.min_security[role]]
        need(not short, f"{len(short)} nodes below their requirement after the final step")
        if plans is not None:
            priced = sum(2 * amount * facts.hops[src] for plan in plans for src, _, amount in plan)
            need(
                report.control_bandwidth == priced,
                f"control_bandwidth {report.control_bandwidth} != 2 x moved x hops {priced}",
            )
    return failures


def check_pairs(reports: dict, notification_beats_uninformed: bool) -> dict[str, list[str]]:
    """Cross-run checks; failures are charged to the second run of a pair."""
    failures: dict[str, list[str]] = {}
    for base, toggled in (("uninformed", "trails"), ("notification", "protocols")):
        a, b = reports[base], reports[toggled]
        same = (
            a.detected_packets == b.detected_packets
            and a.introduced_packets == b.introduced_packets
            and np.array_equal(a.deficiency_series, b.deficiency_series)
            and a.control_bandwidth == b.control_bandwidth
        )
        if not same:
            failures.setdefault(toggled, []).append(
                f"{toggled}: detections, deficiency or bandwidth differ from {base}"
            )
    if notification_beats_uninformed:
        informed, blind = reports["notification"], reports["uninformed"]
        if not informed.detected_packets > blind.detected_packets:
            failures.setdefault("notification", []).append(
                f"notification: detected {informed.detected_packets} <= uninformed {blind.detected_packets}"
            )
    return failures
