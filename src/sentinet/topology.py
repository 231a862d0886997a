"""Network graph model and deterministic generation of company-like topologies.

A topology is a set of role-tagged nodes (workstations, servers, routers and
one gateway) connected by undirected links. Routers form a connected backbone,
everything else hangs off a router. Optionally the network is generated as
several fragments joined only by a configurable number of bridge links, which
is the degenerate shape some placement protocols struggle with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np


class TopologyError(ValueError):
    """Raised for invalid topology configurations or malformed queries."""


class NodeRole(Enum):
    WORKSTATION = "workstation"
    SERVER = "server"
    ROUTER = "router"
    GATEWAY = "gateway"


@dataclass(frozen=True)
class Connection:
    """An undirected link between two nodes. Endpoints are kept sorted."""

    link_id: int
    u: int
    v: int

    def other(self, node: int) -> int:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise TopologyError(f"node {node} is not an endpoint of link {self.link_id}")

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass
class TopologyConfig:
    node_count: int = 200
    fragment_count: int = 1
    bridges_per_fragment_pair: int = 1
    workstation_fraction: float = 0.70
    server_fraction: float = 0.15
    router_fraction: float = 0.14
    # Extra router-router links per fragment, as a fraction of its router
    # count. 0 keeps the backbone a pure tree.
    backbone_redundancy: float = 0.0
    # None lets the simulation substitute its master seed.
    seed: int | None = None

    def validate(self) -> None:
        if self.node_count < 2:
            raise TopologyError("node_count must be at least 2")
        if self.fragment_count < 1:
            raise TopologyError("fragment_count must be at least 1")
        if self.fragment_count > self.node_count:
            raise TopologyError("fragment_count cannot exceed node_count")
        if self.fragment_count > 1 and self.bridges_per_fragment_pair < 1:
            raise TopologyError("bridges_per_fragment_pair must be at least 1")
        for name in ("workstation_fraction", "server_fraction", "router_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise TopologyError(f"{name} must lie in [0, 1]")
        total = self.workstation_fraction + self.server_fraction + self.router_fraction
        if not 0.99 <= total <= 1.01:
            raise TopologyError("role fractions must sum to 1")
        if not 0.0 <= self.backbone_redundancy < math.inf:
            raise TopologyError("backbone_redundancy must be finite and non-negative")
        if self.seed is not None and self.seed < 0:
            raise TopologyError("seed must be non-negative")
        # Every fragment needs at least a router and one attached node.
        if self.node_count // self.fragment_count < 2:
            raise TopologyError("node_count too small for the requested fragment_count")


@dataclass
class Topology:
    """Immutable after generation; safe to share between concurrent runs."""

    roles: list[NodeRole]
    edges: list[Connection]
    bridge_edges: list[Connection] = field(default_factory=list)
    fragment_of: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.roles)
        adj: list[list[tuple[Connection, int]]] = [[] for _ in range(n)]
        for conn in self.edges:
            if conn.u == conn.v:
                raise TopologyError(f"self-loop on node {conn.u}")
            adj[conn.u].append((conn, conn.v))
            adj[conn.v].append((conn, conn.u))
        for entries in adj:
            entries.sort(key=lambda item: item[1])
        self._adjacency = adj
        seen: set[tuple[int, int]] = set()
        for conn in self.edges:
            if conn.endpoints() in seen:
                raise TopologyError(f"duplicate edge {conn.endpoints()}")
            seen.add(conn.endpoints())
        if not self.fragment_of:
            self.fragment_of = [0] * n
        # CSR view of the adjacency for array-based consumers.
        degrees = np.array([len(adj[v]) for v in range(n)], dtype=np.int64)
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.adj_indptr[1:])
        self.adj_neighbors = np.empty(int(degrees.sum()), dtype=np.int64)
        self.adj_links = np.empty(int(degrees.sum()), dtype=np.int64)
        pos = 0
        for v in range(n):
            for conn, w in adj[v]:
                self.adj_neighbors[pos] = w
                self.adj_links[pos] = conn.link_id
                pos += 1
        self.degrees = degrees

    @property
    def node_count(self) -> int:
        return len(self.roles)

    @property
    def gateway(self) -> int:
        for v, role in enumerate(self.roles):
            if role is NodeRole.GATEWAY:
                return v
        raise TopologyError("topology has no gateway")

    def neighbors(self, node: int) -> list[tuple[Connection, int]]:
        """Adjacent (link, neighbor) pairs, ordered by neighbor id ascending."""
        if not 0 <= node < self.node_count:
            raise TopologyError(f"unknown node {node}")
        return list(self._adjacency[node])

    def degree(self, node: int) -> int:
        if not 0 <= node < self.node_count:
            raise TopologyError(f"unknown node {node}")
        return len(self._adjacency[node])

    def connection_between(self, u: int, v: int) -> Connection:
        for conn, w in self.neighbors(u):
            if w == v:
                return conn
        raise TopologyError(f"no link between {u} and {v}")

    def hop_distances(self, source: int) -> np.ndarray:
        """BFS hop counts from source; unreachable nodes get -1."""
        dist = np.full(self.node_count, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for _, w in self._adjacency[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def shortest_path(self, source: int, target: int) -> list[int]:
        """Shortest path as a node sequence, ties broken toward lower node ids."""
        if source == target:
            return [source]
        dist = self.hop_distances(source)
        if dist[target] < 0:
            raise TopologyError(f"no path from {source} to {target}")
        # Walk back from the target, always through the smallest-id predecessor.
        path = [target]
        current = target
        while current != source:
            predecessor = min(
                w for _, w in self._adjacency[current] if dist[w] == dist[current] - 1
            )
            path.append(predecessor)
            current = predecessor
        path.reverse()
        return path

    def connected_components(self, skip_links: set[int] | None = None) -> list[list[int]]:
        skip = skip_links or set()
        seen = [False] * self.node_count
        components: list[list[int]] = []
        for start in range(self.node_count):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for conn, w in self._adjacency[v]:
                    if conn.link_id in skip or seen[w]:
                        continue
                    seen[w] = True
                    stack.append(w)
            components.append(sorted(comp))
        return components


def _fragment_sizes(total: int, fragments: int) -> list[int]:
    base = total // fragments
    sizes = [base] * fragments
    for i in range(total - base * fragments):
        sizes[i] += 1
    return sizes


def _role_counts(size: int, config: TopologyConfig, with_gateway: bool) -> dict[NodeRole, int]:
    routers = max(1, round(config.router_fraction * size))
    servers = round(config.server_fraction * size)
    gateway = 1 if with_gateway else 0
    workstations = size - routers - servers - gateway
    if workstations < 0:
        raise TopologyError(
            f"node_count {size} too small to satisfy the role mix"
        )
    return {
        NodeRole.ROUTER: routers,
        NodeRole.SERVER: servers,
        NodeRole.GATEWAY: gateway,
        NodeRole.WORKSTATION: workstations,
    }


def generate_topology(config: TopologyConfig) -> Topology:
    """Generate a topology deterministically from the config.

    Each fragment gets a random router tree as its backbone (plus optional
    redundancy links), with servers and workstations attached to uniformly
    chosen routers. The gateway lives in fragment 0. Consecutive fragments
    are joined by exactly `bridges_per_fragment_pair` router-router bridges.
    """
    config.validate()
    if config.seed is None:
        raise TopologyError("seed must be set before generation")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))

    sizes = _fragment_sizes(config.node_count, config.fragment_count)
    roles: list[NodeRole] = []
    fragment_of: list[int] = []
    raw_edges: list[tuple[int, int]] = []
    routers_by_fragment: list[list[int]] = []

    next_id = 0
    for frag, size in enumerate(sizes):
        counts = _role_counts(size, config, with_gateway=(frag == 0))
        routers = list(range(next_id, next_id + counts[NodeRole.ROUTER]))
        leaf_roles = (
            [NodeRole.SERVER] * counts[NodeRole.SERVER]
            + [NodeRole.GATEWAY] * counts[NodeRole.GATEWAY]
            + [NodeRole.WORKSTATION] * counts[NodeRole.WORKSTATION]
        )
        roles.extend([NodeRole.ROUTER] * len(routers))
        fragment_of.extend([frag] * size)
        # Random tree over the routers: node i attaches to a uniform earlier one.
        for i in range(1, len(routers)):
            parent = routers[int(rng.integers(0, i))]
            raw_edges.append((parent, routers[i]))
        leaf_start = next_id + len(routers)
        for offset, role in enumerate(leaf_roles):
            leaf = leaf_start + offset
            roles.append(role)
            raw_edges.append((routers[int(rng.integers(0, len(routers)))], leaf))
        extra = round(config.backbone_redundancy * len(routers))
        attempts = 0
        present = {tuple(sorted(e)) for e in raw_edges}
        while extra > 0 and attempts < 50 * (extra + 1) and len(routers) > 2:
            a, b = (int(x) for x in rng.choice(len(routers), size=2, replace=False))
            candidate = tuple(sorted((routers[a], routers[b])))
            attempts += 1
            if candidate in present:
                continue
            present.add(candidate)
            raw_edges.append(candidate)
            extra -= 1
        routers_by_fragment.append(routers)
        next_id += size

    bridge_pairs: list[tuple[int, int]] = []
    for frag in range(config.fragment_count - 1):
        left = routers_by_fragment[frag]
        right = routers_by_fragment[frag + 1]
        chosen: set[tuple[int, int]] = set()
        while len(chosen) < config.bridges_per_fragment_pair:
            a = left[int(rng.integers(0, len(left)))]
            b = right[int(rng.integers(0, len(right)))]
            chosen.add((a, b))
        for pair in sorted(chosen):
            raw_edges.append(pair)
            bridge_pairs.append(pair)

    ordered = sorted(tuple(sorted(e)) for e in raw_edges)
    connections = [Connection(i, u, v) for i, (u, v) in enumerate(ordered)]
    by_pair = {conn.endpoints(): conn for conn in connections}
    bridges = [by_pair[tuple(sorted(p))] for p in bridge_pairs]
    return Topology(
        roles=roles,
        edges=connections,
        bridge_edges=bridges,
        fragment_of=fragment_of,
    )


def save_topology(topology: Topology, path: str | Path) -> None:
    """Write the structured text form: header, node lines with role and
    fragment, edge lines, then the bridge lines."""
    lines = [f"nodes {topology.node_count}"]
    for node, role in enumerate(topology.roles):
        lines.append(f"node {node} {role.value} {topology.fragment_of[node]}")
    lines += [f"edge {conn.u} {conn.v}" for conn in topology.edges]
    lines += [f"bridge {conn.u} {conn.v}" for conn in topology.bridge_edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_topology(path: str | Path) -> Topology:
    """Read `save_topology`'s form. A node line without a fragment is in
    fragment 0, so files without fragments or bridges load as one fragment."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("nodes "):
        raise TopologyError(f"{path}: missing 'nodes <N>' header")
    count = int(lines[0].split()[1])
    roles: dict[int, NodeRole] = {}
    fragments: dict[int, int] = {}
    pairs: dict[str, list[tuple[int, int]]] = {"edge": [], "bridge": []}
    for line in lines[1:]:
        parts = line.split()
        if parts[0] == "node":
            roles[int(parts[1])] = NodeRole(parts[2])
            fragments[int(parts[1])] = int(parts[3]) if len(parts) > 3 else 0
        elif parts[0] in pairs:
            u, v = int(parts[1]), int(parts[2])
            pairs[parts[0]].append((min(u, v), max(u, v)))
        else:
            raise TopologyError(f"{path}: unrecognised line {line!r}")
    if sorted(roles) != list(range(count)):
        raise TopologyError(f"{path}: node ids are not dense 0..{count - 1}")
    edges = [Connection(i, u, v) for i, (u, v) in enumerate(sorted(pairs["edge"]))]
    by_pair = {conn.endpoints(): conn for conn in edges}
    for pair in pairs["bridge"]:
        if pair not in by_pair:
            raise TopologyError(f"{path}: bridge {pair[0]} {pair[1]} is not an edge")
    return Topology(
        roles=[roles[v] for v in range(count)],
        edges=edges,
        bridge_edges=[by_pair[pair] for pair in pairs["bridge"]],
        fragment_of=[fragments[v] for v in range(count)],
    )
