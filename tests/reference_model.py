"""Plain-Python reference model of a whole run: the oracle for `Engine`.

Cells live in per-node lists, notifications in per-node inboxes, packets in
a list, trails and infections in dicts. The adjacency and the gateway hop
counts are built from the topology's edge list, with the model's own
breadth-first search, and traffic comes from the model's own generator, which
walks each gateway path back from its destination over those hop counts. Each
rule is one small scalar function; `ReferenceModel` steps them one object at
a time in the engine's phase order, on the engine's three RNG substreams in
its draw order. It shares no law, adjacency or search with the package:
only the config and report dataclasses and the seed-to-substream rule.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from sentinet import Connection, MetricsReport, NodeRole, NotifyParams, Topology
from sentinet.engine import _substream

PACKET_CHECKER, NODE_CHECKER = "packet_checker", "node_checker"


@dataclass(eq=False)
class Cell:
    cell_id: int
    cell_type: int
    kind: str
    location: int


def node_security(cells, security_value: float = 1.0) -> float:
    """Packet checkers present times their value; node checkers do not count."""
    return sum(c.kind == PACKET_CHECKER for c in cells) * security_value


def movement_probability(params, lacking: float) -> float:
    """min(base + gain * lacking, max); monotone in lacking, capped."""
    if lacking < 0:
        raise ValueError("lacking security must be non-negative")
    return min(params.base_probability + params.gain * lacking, params.max_probability)


def decide_move(cell, params, here_lacking, neighbors, best, trail_pick, uniform) -> Connection | None:
    """The link to follow, or None to stay. `uniform()` is the next draw.

    A packet checker stays at a node lacking security, else moves at the rate
    the strongest notification here asks for (the resting rate without one):
    back along its arrival link, or with none to a uniform neighbor. A node
    checker follows `trail_pick()` when given, else wanders at the resting rate.
    """
    if not neighbors:
        return None
    if cell.kind == PACKET_CHECKER:
        if here_lacking > 0:
            return None
        value = best.value if best is not None else 0.0
        if uniform() >= movement_probability(params, value):
            return None
        if best is not None:
            return best.arrival
    elif trail_pick is not None:
        return trail_pick()
    elif uniform() >= params.base_probability:
        return None
    # floor(u * n) maps one uniform draw onto the neighbor index.
    return neighbors[int(uniform() * len(neighbors))][0]


@dataclass
class Packet:
    packet_id: int
    source: int
    destination: int
    path: list[int]
    payload: int | None
    position: int = 0

    @property
    def current_node(self) -> int:
        return self.path[self.position]

    @property
    def at_destination(self) -> bool:
        return self.position == len(self.path) - 1


@dataclass(frozen=True)
class Infection:
    node: int
    intrusion: int
    installed_at: int


class ReferenceTraffic:
    """Each step: `packets_per_step` packets from the gateway, each drawing its
    destination (the next node id instead of the gateway itself) and then its
    payload; the internal attacks the carried rate has earned, each drawing an
    endpoint node and then its payload; then the direct infections earned,
    each drawing a node and then an intrusion type."""

    def __init__(self, config, topology, neighbors, gateway_hops, cell_types):
        self.config, self.neighbors, self.hops, self.cell_types = config, neighbors, gateway_hops, cell_types
        self.n, self.gateway = topology.node_count, topology.gateway
        endpoints = (NodeRole.WORKSTATION, NodeRole.SERVER)
        self.endpoints = [v for v, role in enumerate(topology.roles) if role in endpoints] or list(range(self.n))
        self.next_id, self.internal_carry, self.infection_carry = 0, 0.0, 0.0

    def gateway_path(self, destination):
        """Walked back from the destination, each time to the lowest-id
        neighbor one hop closer to the gateway."""
        path = [destination]
        while path[-1] != self.gateway:
            here = path[-1]
            path.append(min(w for _, w in self.neighbors[here] if self.hops[w] == self.hops[here] - 1))
        return path[::-1]

    def payload(self, rng):
        if rng.random() < self.config.infection_probability:
            return int(rng.integers(1, self.cell_types + 1))
        return None

    def packet(self, source, destination, path, rng):
        self.next_id += 1
        return Packet(self.next_id - 1, source, destination, path, self.payload(rng))

    def generate(self, rng):
        """This step's packets and direct (node, intrusion) infections."""
        packets = []
        for _ in range(self.config.packets_per_step):
            destination = int(rng.integers(0, self.n))
            if destination == self.gateway:
                destination = (destination + 1) % self.n
            packets.append(self.packet(self.gateway, destination, self.gateway_path(destination), rng))
        self.internal_carry += self.config.internal_attack_rate
        while self.internal_carry >= 1.0:
            self.internal_carry -= 1.0
            node = self.endpoints[int(rng.integers(0, len(self.endpoints)))]
            packets.append(self.packet(node, node, [node], rng))
        direct = []
        self.infection_carry += self.config.infections_per_step
        while self.infection_carry >= 1.0:
            self.infection_carry -= 1.0
            node = int(rng.integers(0, self.n))
            direct.append((node, int(rng.integers(1, self.cell_types + 1))))
        return packets, direct


@dataclass(frozen=True)
class NotificationPacket:
    origin: int
    value: float
    arrival: Connection | None = None  # None: the sender's own fresh emission


def best(inbox: list[NotificationPacket]) -> NotificationPacket | None:
    """The strongest packet of an inbox: highest value, ties to the lower
    origin id, then the lower link id."""
    return min(inbox, key=lambda p: (-p.value, p.origin, p.arrival.link_id), default=None)


def emit_deficiency(node: int, security_level: float, min_security: float) -> NotificationPacket | None:
    """A packet carrying the missing amount, or None when security suffices."""
    if security_level < 0 or min_security < 0:
        raise ValueError("security levels must be non-negative")
    if min_security > security_level:
        return NotificationPacket(node, min_security - security_level)
    return None


def decay(value: float) -> float:
    """Per-hop decrement applied when a packet is relayed."""
    if value <= 0:
        raise ValueError("only positive values are relayed")
    return value - 1.0


def forward_step(node, neighbors, inbox, own_emission, params=None):
    """Sends of one node in one step: at most one packet per link.

    An own emission goes out undecayed on every link, unless `own_emission_wins`
    is off and a stronger packet arrived. A relayed packet goes out decremented
    on every link but the one it arrived on, while it clears the threshold.
    """
    params = params or NotifyParams()
    candidate, relayed = own_emission, best(inbox)
    if candidate is None or (not params.own_emission_wins and relayed and relayed.value > candidate.value):
        candidate = relayed
    if candidate is None:
        return []
    if candidate is own_emission:
        return [(conn, NotificationPacket(candidate.origin, candidate.value, conn)) for conn, _ in neighbors]
    forwarded = decay(candidate.value)
    if forwarded <= params.forward_threshold:
        return []
    return [
        (conn, NotificationPacket(candidate.origin, forwarded, conn))
        for conn, _ in neighbors
        if conn.link_id != candidate.arrival.link_id
    ]


def adjacency(topology):
    """Each node's (link, neighbor) pairs ordered by neighbor id, built from
    the edge list alone."""
    neighbors = [[] for _ in range(topology.node_count)]
    for conn in topology.edges:
        neighbors[conn.u].append((conn, conn.v))
        neighbors[conn.v].append((conn, conn.u))
    return [sorted(pairs, key=lambda pair: pair[1]) for pairs in neighbors]


def with_isolated_node(topology, at):
    """The same graph plus one node of degree 0 with id `at`: the nodes from
    `at` on are renumbered one up."""
    edges = [Connection(c.link_id, c.u + (c.u >= at), c.v + (c.v >= at)) for c in topology.edges]
    roles = list(topology.roles)
    roles.insert(at, NodeRole.WORKSTATION)
    return Topology(roles=roles, edges=edges)


def hop_counts(neighbors, source):
    """Breadth-first hop count from source to every node, -1 where unreachable."""
    hops = [-1] * len(neighbors)
    hops[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for _, other in neighbors[node]:
            if hops[other] < 0:
                hops[other] = hops[node] + 1
                queue.append(other)
    return hops


def relay_step(topology, inboxes, emissions, params):
    """Every node's sends in one step, from inboxes (lists of packets) to the
    next inboxes: returns (next inboxes, [(sender, link, packet)])."""
    neighbors = adjacency(topology)
    sends = [
        (node, conn, packet)
        for node, (inbox, own) in enumerate(zip(inboxes, emissions))
        for conn, packet in forward_step(node, neighbors[node], inbox, own, params)
    ]
    delivered = [[] for _ in range(topology.node_count)]
    for sender, conn, packet in sends:
        delivered[conn.other(sender)].append(packet)
    return delivered, sends


def inspect_packet(packet, resident_cells) -> bool:
    """True when the packet carries an intrusion some local packet checker knows."""
    return packet.payload is not None and any(
        c.kind == PACKET_CHECKER and c.cell_type == packet.payload for c in resident_cells
    )


def packet_delivery_outcome(packet, detected, active_infections, timestep) -> Infection | None:
    """A surviving infected packet installs an infection at its destination,
    unless the same (node, intrusion) pair is already active."""
    if not packet.at_destination:
        raise ValueError("packet has not reached its destination")
    key = (packet.destination, packet.payload)
    if detected or packet.payload is None or key in active_infections:
        return None
    active_infections[key] = Infection(packet.destination, packet.payload, timestep)
    return active_infections[key]


def check_node(cell, node, active_infections) -> list[Infection]:
    """Clear and return the node's infections matching the checker's type."""
    if cell.kind != NODE_CHECKER:
        raise ValueError("only node checkers perform node checks")
    found = active_infections.pop((node, cell.cell_type), None)
    return [found] if found is not None else []


def trail_increase(old: float, params) -> float:
    """A link's trail value after a traversal: base + scale * e^old, with the
    exponent capped and then the result."""
    exponent = min(old, params.exponent_cap)
    return min(params.increase_base + params.increase_scale * math.exp(exponent), params.value_cap)


def roulette_weights(values) -> list[int]:
    """Integer roulette weights over one node's trail values: the stalest
    link gets the biggest share and every link at least 1."""
    top = max(values)
    return [math.ceil(max(1.0, top + 1.0 - v)) for v in values]


def roulette_pick(values, rng) -> int:
    """Index picked by the inverse-weight roulette over one node's trail values."""
    weights = roulette_weights(values)
    pick = int(rng.integers(1, sum(weights) + 1))
    for index, weight in enumerate(weights):
        pick -= weight
        if pick <= 0:
            return index


def reference_plan_rebalance(counts, required):
    """One argmax and one argmin over all nodes per move: the plain greedy."""
    counts = counts.astype(np.int64).copy()
    required = np.ceil(required).astype(np.int64)
    moves = []
    while True:
        balance = counts - required
        src = int(np.argmax(balance))
        dst = int(np.argmin(balance))
        if balance[src] <= 0 or balance[dst] >= 0:
            return moves
        amount = int(min(balance[src], -balance[dst]))
        counts[src] -= amount
        counts[dst] += amount
        moves.append((src, dst, amount))


class ReferenceModel:
    """One run of `config` on `topology`, one object at a time."""

    def __init__(self, config, topology):
        self.config, self.topology, self.t = config, topology, 0
        n = topology.node_count
        self.notification_on = config.strategy in ("notification", "protocols")
        self.trails_on = config.strategy in ("trails", "protocols")
        self.centralized = config.strategy == "centralized"
        self.min_security = [
            config.min_security_by_node.get(v, config.min_security_by_role.get(role, config.min_security))
            for v, role in enumerate(topology.roles)
        ]
        start = config.start_nodes
        if start is None and config.start_fragment is not None:
            start = [v for v in range(n) if topology.fragment_of[v] == config.start_fragment]
        if start is None:
            start = list(range(n))
        # Cell ids: packet checkers type-major, then node checkers.
        types = range(1, config.cell_types + 1)
        specs = [(PACKET_CHECKER, t) for t in types for _ in range(config.packet_checkers_per_type)]
        specs += [(NODE_CHECKER, t) for t in types for _ in range(config.node_checkers_per_type)]
        self.cells = [Cell(i, t, kind, start[i % len(start)]) for i, (kind, t) in enumerate(specs)]
        self.n_pc = config.cell_types * config.packet_checkers_per_type
        self.cells_at = [[] for _ in range(n)]
        for cell in self.cells:
            self.cells_at[cell.location].append(cell)

        self.bridge_ends = {v for conn in topology.bridge_edges for v in conn.endpoints()}
        self.trails: dict[tuple[int, int, int], float] = {}  # (node, link, type) -> value
        self.trail_log: list[tuple[int, int, int, int, float]] = []  # (t, node, link, type, value) per bump
        self.inboxes = [[] for _ in range(n)]
        self.infections: dict[tuple[int, int], Infection] = {}
        self.in_flight = []
        streams = (_substream(config.seed, index) for index in (1, 2, 3))  # traffic, movement, selection
        self.rng_traffic, self.rng_movement, self.rng_selection = streams
        self.neighbors = adjacency(topology)
        self.gateway_hops = hop_counts(self.neighbors, topology.gateway)
        self.source = ReferenceTraffic(config.traffic, topology, self.neighbors, self.gateway_hops, config.cell_types)

        self.delivered_infected = self.created = self.cleared = self.max_load = 0
        self.bandwidth = 0.0
        self.per_connection = [0] * len(topology.edges)
        # Per-step records, named as the report fields they become.
        self.series = {name: [] for name in (
            "deficiency_series", "notification_series", "detections_series", "introduced_series",
            "entity_counts", "check_nodes",
        )}

    def _move(self, cell, node):
        self.cells_at[cell.location].remove(cell)
        self.cells_at[node].append(cell)
        cell.location = node

    def _trail_pick(self, node, ctype):
        neighbors, rng = self.neighbors[node], self.rng_selection
        if self.config.bridge_fallback and node in self.bridge_ends:
            return lambda: neighbors[int(rng.integers(0, len(neighbors)))][0]
        values = [self.trails.get((node, conn.link_id, ctype), 0.0) for conn, _ in neighbors]
        return lambda: neighbors[roulette_pick(values, rng)][0]

    def step(self):
        t, config, topo, series = self.t, self.config, self.topology, self.series
        # (1) traffic moves one hop, then is inspected where it stands
        for packet in self.in_flight:
            packet.position += 1
        new, direct = self.source.generate(self.rng_traffic)
        series["introduced_series"].append(sum(p.payload is not None for p in new))
        detected, survivors = 0, []
        for packet in self.in_flight + new:
            if inspect_packet(packet, self.cells_at[packet.current_node]):
                detected += 1
            elif packet.at_destination:
                if packet.payload is not None:
                    self.delivered_infected += 1
                    self.created += packet_delivery_outcome(packet, False, self.infections, t) is not None
            else:
                survivors.append(packet)
        self.in_flight = survivors
        series["detections_series"].append(detected)
        for node, intrusion in direct:
            if (node, intrusion) not in self.infections:
                self.infections[(node, intrusion)] = Infection(node, intrusion, t)
                self.created += 1
        # (2) node checks
        series["check_nodes"].append([cell.location for cell in self.cells[self.n_pc :]])
        for cell in self.cells[self.n_pc :]:
            self.cleared += len(check_node(cell, cell.location, self.infections))
        # (3) security and deficiency
        security = [node_security(cells, config.security_value) for cells in self.cells_at]
        lacking = [max(need - have, 0.0) for need, have in zip(self.min_security, security)]
        series["deficiency_series"].append(sum(x > 0 for x in lacking))
        # (4) notification relay
        sends = []
        if self.notification_on:
            emissions = [emit_deficiency(v, security[v], self.min_security[v]) for v in range(len(security))]
            self.inboxes, sends = relay_step(topo, self.inboxes, emissions, config.notify_params)
        series["notification_series"].append(len(sends))
        for _, conn, _ in sends:
            self.per_connection[conn.link_id] += 1
        self.max_load = max(self.max_load, *Counter((c.link_id, s) for s, c, _ in sends).values(), 0)
        # (5) trail fade
        if self.trails_on:
            for (node, link, ctype), value in self.trails.items():
                fade = config.bridge_decay_step if node in self.bridge_ends else None
                self.trails[(node, link, ctype)] = max(0.0, value - (fade or config.trail_params.decay_step))
        # (6) movement: packet checkers, then node checkers, then the manager
        params = config.movement
        u_move, u_dest = self.rng_movement.random(self.n_pc), self.rng_movement.random(self.n_pc)
        for cell in self.cells[: self.n_pc]:
            here = cell.location
            strongest = best(self.inboxes[here]) if self.notification_on else None
            pinned = lacking[here] if self.notification_on else 0.0
            draws = iter((u_move[cell.cell_id], u_dest[cell.cell_id])).__next__
            conn = decide_move(cell, params, pinned, self.neighbors[here], strongest, None, draws)
            if conn is not None:
                self._move(cell, conn.other(here))
        for cell in self.cells[self.n_pc :]:
            here, ctype = cell.location, cell.cell_type
            pick = self._trail_pick(here, ctype) if self.trails_on else None
            conn = decide_move(cell, params, 0.0, self.neighbors[here], None, pick, self.rng_selection.random)
            if conn is None:
                continue
            if self.trails_on:
                key = (here, conn.link_id, ctype)
                self.trails[key] = trail_increase(self.trails.get(key, 0.0), config.trail_params)
                self.trail_log.append((t, *key, self.trails[key]))
            self._move(cell, conn.other(here))
        if self.centralized:
            pools = [[c for c in cells if c.kind == PACKET_CHECKER] for cells in self.cells_at]
            pools = [sorted(pool, key=lambda c: c.cell_id) for pool in pools]
            required = np.array(self.min_security) / config.security_value
            for src, dst, amount in reference_plan_rebalance(np.array([len(p) for p in pools]), required):
                chosen, pools[src] = pools[src][:amount], pools[src][amount:]
                for cell in chosen:
                    self._move(cell, dst)
                pools[dst] += chosen
                self.bandwidth += amount * 2.0 * self.gateway_hops[src]
        series["entity_counts"].append([len(cells) for cells in self.cells_at])
        self.t += 1

    def report(self) -> MetricsReport:
        series = {name: np.array(values, dtype=np.int64) for name, values in self.series.items()}
        sent = int(series["notification_series"].sum())
        config = self.config
        return MetricsReport(
            duration=config.duration, node_count=self.topology.node_count, cell_types=config.cell_types,
            strategy=config.strategy, seed=config.seed,
            detected_packets=int(series["detections_series"].sum()),
            introduced_packets=int(series["introduced_series"].sum()),
            delivered_infected=self.delivered_infected,
            infections_created=self.created,
            infections_cleared=self.cleared,
            infections_active=len(self.infections),
            control_bandwidth=self.bandwidth if self.centralized else float(sent),
            notification_packets_total=sent,
            max_link_load=self.max_load,
            notification_per_connection=np.array(self.per_connection),
            coverage_window=config.default_coverage_window(self.topology.node_count),
            checker_types=np.array([cell.cell_type for cell in self.cells[self.n_pc :]], dtype=np.int64),
            **series,
        )
