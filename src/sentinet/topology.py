"""Network graph model and deterministic generation of company-like topologies.

A topology is a set of role-tagged nodes (workstations, servers, routers and
one gateway) connected by undirected links. Routers form a connected backbone,
everything else hangs off a router. Optionally the network is generated as
several fragments joined only by a configurable number of bridge links, which
is the degenerate shape some placement protocols struggle with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np


class TopologyError(ValueError):
    """Raised for invalid topology configurations or malformed queries."""


def check_integers(params, error: type[ValueError]) -> None:
    """Raise `error` for a field of the dataclass `params` annotated int or
    list[int] (or either `| None`) that holds something else, such as 1.5
    or 2.0; the message starts with the field's name."""
    for f in fields(params):
        kind, value = f.type.removesuffix(" | None"), getattr(params, f.name)
        if value is None or kind not in ("int", "list[int]"):
            continue
        if not all(isinstance(x, (int, np.integer)) for x in (value if kind == "list[int]" else [value])):
            raise error(f"{f.name}: must be an integer, got {value!r}")


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
        check_integers(self, TopologyError)
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
        sizes = _fragment_sizes(self.node_count, self.fragment_count)
        routers = [_role_counts(size, self, frag == 0)[NodeRole.ROUTER] for frag, size in enumerate(sizes)]
        for frag, (left, right) in enumerate(zip(routers[:-1], routers[1:])):
            if self.bridges_per_fragment_pair > left * right:
                raise TopologyError(
                    f"bridges_per_fragment_pair {self.bridges_per_fragment_pair} exceeds the {left} x {right} "
                    f"router pairs between fragments {frag} and {frag + 1}"
                )


@dataclass
class Topology:
    """Immutable after generation; safe to share between concurrent runs."""

    roles: list[NodeRole]
    edges: list[Connection]
    bridge_edges: list[Connection] = field(default_factory=list)
    fragment_of: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = len(self.roles)
        gateways = [v for v, role in enumerate(self.roles) if role is NodeRole.GATEWAY]
        if len(gateways) > 1:
            raise TopologyError(f"more than one gateway: nodes {gateways[0]} and {gateways[1]}")
        for position, conn in enumerate(self.edges):
            if conn.link_id != position:
                raise TopologyError(f"link {conn.link_id} is edge {position}: link ids must be edge positions")
            if not (0 <= conn.u < n and 0 <= conn.v < n):
                raise TopologyError(f"link {position} joins {conn.u} and {conn.v}, outside nodes 0..{n - 1}")
            if conn.u == conn.v:
                raise TopologyError(f"self-loop on node {conn.u}")
        bridge_links: set[int] = set()
        for conn in self.bridge_edges:
            if not 0 <= conn.link_id < len(self.edges) or self.edges[conn.link_id] != conn:
                raise TopologyError(f"bridge {conn.u} {conn.v} is not an edge")
            if conn.link_id in bridge_links:
                raise TopologyError(f"duplicate bridge {conn.u} {conn.v}")
            bridge_links.add(conn.link_id)
        if not self.fragment_of:
            self.fragment_of = [0] * n
        if len(self.fragment_of) != n:
            raise TopologyError(f"fragment_of has {len(self.fragment_of)} entries for {n} nodes")
        # The adjacency, in CSR form: node v's directed links are the slots
        # adj_indptr[v]:adj_indptr[v + 1], ordered by neighbor id; adj_nodes
        # holds the row (v) of each slot.
        ends = np.array([conn.endpoints() for conn in self.edges], dtype=np.int64).reshape(-1, 2)
        nodes = np.concatenate([ends[:, 0], ends[:, 1]])
        others = np.concatenate([ends[:, 1], ends[:, 0]])
        order = np.lexsort((others, nodes))
        nodes, others = nodes[order], others[order]
        repeats = np.flatnonzero((nodes[1:] == nodes[:-1]) & (others[1:] == others[:-1]))
        if len(repeats):
            first = repeats[0]
            raise TopologyError(f"duplicate edge {(int(nodes[first]), int(others[first]))}")
        self.adj_nodes = nodes
        self.adj_neighbors = others
        self.adj_links = np.tile(np.arange(len(self.edges), dtype=np.int64), 2)[order]
        self.degrees = np.bincount(nodes, minlength=n)
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.adj_indptr[1:])

    @property
    def node_count(self) -> int:
        return len(self.roles)

    @property
    def gateway(self) -> int:
        for v, role in enumerate(self.roles):
            if role is NodeRole.GATEWAY:
                return v
        raise TopologyError("topology has no gateway")

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise TopologyError(f"unknown node {node}")

    def search(self, source: int) -> tuple[np.ndarray, list[int]]:
        """Breadth-first search from source: hop counts (-1 where unreachable)
        and each node's predecessor (-1 at the source and where unreachable).

        Each level is scanned in node-id order, so a node's predecessor is its
        lowest-id neighbor one hop closer to the source.
        """
        self._check_node(source)
        indptr, neighbors = self.adj_indptr.tolist(), self.adj_neighbors.tolist()
        dist = [-1] * self.node_count
        predecessor = [-1] * self.node_count
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt: list[int] = []
            for v in frontier:
                for w in neighbors[indptr[v] : indptr[v + 1]]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        predecessor[w] = v
                        nxt.append(w)
            frontier = sorted(nxt)
        return np.array(dist, dtype=np.int64), predecessor

    def hop_distances(self, source: int) -> np.ndarray:
        """BFS hop counts from source; unreachable nodes get -1."""
        return self.search(source)[0]

    def shortest_path(self, source: int, target: int) -> list[int]:
        """Shortest path as a node sequence, ties broken toward lower node ids."""
        self._check_node(target)  # the search checks source
        return walk_back(self.search(source)[1], source, target)

    def connected_components(self, skip_links: set[int] | None = None) -> list[list[int]]:
        skip = skip_links or set()
        indptr = self.adj_indptr.tolist()
        neighbors, links = self.adj_neighbors.tolist(), self.adj_links.tolist()
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
                for k in range(indptr[v], indptr[v + 1]):
                    w = neighbors[k]
                    if links[k] in skip or seen[w]:
                        continue
                    seen[w] = True
                    stack.append(w)
            components.append(sorted(comp))
        return components


def walk_back(predecessor: list[int], source: int, target: int) -> list[int]:
    """The path from source to target along a search's predecessors."""
    if target != source and predecessor[target] < 0:
        raise TopologyError(f"no path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        path.append(predecessor[path[-1]])
    return path[::-1]


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
            f"node_count too small for the role mix: a fragment of {size} nodes "
            f"needs {routers + servers + gateway} routers, servers and gateway"
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
    fragment 0, so files without fragments or bridges load as one fragment.
    A line that does not parse, has the wrong number of fields, gives a node
    count below 1, names a node outside the header's count, repeats a node,
    makes a self-loop, or repeats an edge or a bridge (in either
    orientation) is a `TopologyError` naming the file and the line; any
    other invalid topology, such as a second gateway, is one naming the
    file."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("nodes "):
        raise TopologyError(f"{path}: missing 'nodes <N>' header")
    count = 0
    roles: dict[int, NodeRole] = {}
    fragments: dict[int, int] = {}
    pairs: dict[str, list[tuple[int, int]]] = {"edge": [], "bridge": []}
    seen: dict[str, set[tuple[int, int]]] = {"edge": set(), "bridge": set()}
    field_counts = {"nodes": (1,), "node": (2, 3), "edge": (2,), "bridge": (2,)}
    for index, line in enumerate(lines):
        kind, *fields = line.split()
        try:
            if kind in field_counts and len(fields) not in field_counts[kind]:
                raise ValueError(f"wrong number of fields for {kind!r}")
            if index == 0:
                count = int(fields[0])
                if count < 1:
                    raise ValueError("a topology needs at least one node")
            elif kind == "node":
                node = int(fields[0])
                if node in roles:
                    raise ValueError("repeated node")
                roles[node] = NodeRole(fields[1])
                fragments[node] = int(fields[2]) if len(fields) > 2 else 0
            elif kind in pairs:
                u, v = int(fields[0]), int(fields[1])
                if not (0 <= u < count and 0 <= v < count):
                    raise ValueError(f"node outside 0..{count - 1}")
                pair = (min(u, v), max(u, v))
                if kind == "edge" and u == v:
                    raise ValueError("self-loop")
                if pair in seen[kind]:
                    raise ValueError(f"duplicate {kind}")
                seen[kind].add(pair)
                pairs[kind].append(pair)
            else:
                raise ValueError("unknown line kind")
        except (ValueError, IndexError) as exc:
            raise TopologyError(f"{path}: bad line {line!r}: {exc}") from exc
    if sorted(roles) != list(range(count)):
        raise TopologyError(f"{path}: node ids are not dense 0..{count - 1}")
    edges = [Connection(i, u, v) for i, (u, v) in enumerate(sorted(pairs["edge"]))]
    by_pair = {conn.endpoints(): conn for conn in edges}
    for pair in pairs["bridge"]:
        if pair not in by_pair:
            raise TopologyError(f"{path}: bridge {pair[0]} {pair[1]} is not an edge")
    try:
        return Topology(
            roles=[roles[v] for v in range(count)],
            edges=edges,
            bridge_edges=[by_pair[pair] for pair in pairs["bridge"]],
            fragment_of=[fragments[v] for v in range(count)],
        )
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
