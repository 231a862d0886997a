"""Discrete-time simulation loop with a fixed phase order per step.

Phases: (1) traffic movement and inspection, (2) node checks, (3) security
measurement and deficiency emission, (4) synchronous notification relay,
(5) trail fade, (6) cell movement per the active strategy, (7) metrics.

Strategies: `uninformed` cells wander with their resting probability and no
information; `centralized` cells wander the same way but an omniscient
manager teleports packet checkers onto deficits every step, paying
distance-priced control bandwidth; `notification` and `trails` each enable
one local mechanism that informs movement, and `protocols` enables both.

A run is a pure function of its configuration: one master seed is split into
named, independent substreams (traffic, movement, selection) so toggling one
mechanism never perturbs another's draws.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .metrics import MetricsReport
from .notify import NotifyParams, relay
from .threat import TrafficConfig, TrafficPacket, TrafficSource
from .topology import NodeRole, Topology, TopologyConfig, TopologyError, check_integers, generate_topology
from .trails import TrailParams, TrailState


class ConfigError(ValueError):
    """Invalid simulation configuration; the message names the offending key."""


_STREAM_TRAFFIC = 1
_STREAM_MOVEMENT = 2
_STREAM_SELECTION = 3


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _resting_moves(rng: np.random.Generator, count: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Which of `count` checkers move at `rate`, and each mover's neighbour
    draw, leaving `rng` where one decision per checker would: a move draw
    each, followed by a neighbour draw for those that move.

    The draws come as one block of 2 * count. The draw after a staying one
    always starts a decision, and within a run of moving draws decisions and
    neighbour draws alternate, so where each decision starts is known
    without a walk. The stream is then rewound and the draws used are drawn
    again, which leaves it where they would.
    """
    saved = rng.bit_generator.state
    draws = rng.random(2 * count)
    moves = draws < rate
    index = np.arange(2 * count)
    run_start = np.maximum.accumulate(np.where(moves, -1, index)) + 1
    starts_decision = np.ones(2 * count, dtype=bool)
    starts_decision[1:] = ~moves[:-1] | ((index[:-1] - run_start[:-1]) % 2 == 1)
    decisions = np.flatnonzero(starts_decision)[:count]
    moving = moves[decisions]
    rng.bit_generator.state = saved
    rng.random(int(decisions[-1]) + 1 + int(moving[-1]))
    return moving, draws[decisions[moving] + 1]


STRATEGIES = ("uninformed", "notification", "trails", "protocols", "centralized")


@dataclass
class MovementParams:
    """Clamped-linear response curve for the per-step move probability.

    base_probability is the resting affinity to move, gain scales the response
    to a reported security shortfall, max_probability caps the response so the
    whole population never stampedes at once.
    """

    base_probability: float = 0.1
    gain: float = 0.05
    max_probability: float = 0.8

    def validate(self) -> None:
        check_integers(self, ValueError)
        if not 0.0 <= self.base_probability <= self.max_probability <= 1.0:
            raise ValueError("need 0 <= base_probability <= max_probability <= 1")
        if not 0.0 <= self.gain < math.inf:
            raise ValueError("gain must be finite and non-negative")


@dataclass
class SimulationConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    cell_types: int = 60
    packet_checkers_per_type: int = 3
    node_checkers_per_type: int = 1
    security_value: float = 1.0
    min_security: float = 20.0
    min_security_by_role: dict[NodeRole, float] = field(default_factory=dict)
    min_security_by_node: dict[int, float] = field(default_factory=dict)
    movement: MovementParams = field(default_factory=MovementParams)
    trail_params: TrailParams = field(default_factory=TrailParams)
    notify_params: NotifyParams = field(default_factory=NotifyParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    strategy: str = "uninformed"
    duration: int = 1000
    seed: int = 1
    start_fragment: int | None = None
    start_nodes: list[int] | None = None
    bridge_fallback: bool = False
    bridge_decay_step: float | None = None
    coverage_window: int | None = None

    def validate(self) -> None:
        sections = {
            "movement": self.movement,
            "trails": self.trail_params,
            "notify": self.notify_params,
            "traffic": self.traffic,
            "topology": self.topology,
        }
        check_integers(self, ConfigError)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy: unknown strategy {self.strategy!r}")
        if self.duration < 1:
            raise ConfigError("duration: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")
        if self.cell_types < 1:
            raise ConfigError("cell_types: must be at least 1")
        if self.packet_checkers_per_type < 0:
            raise ConfigError("packet_checkers_per_type: must be non-negative")
        if self.node_checkers_per_type < 0:
            raise ConfigError("node_checkers_per_type: must be non-negative")
        if not 0 < self.security_value < math.inf:
            raise ConfigError("security_value: must be finite and positive")
        for role in self.min_security_by_role:
            if not isinstance(role, NodeRole):
                raise ConfigError(f"min_security_by_role: {role!r} is not a NodeRole")
        for v in self.min_security_by_node:
            if not isinstance(v, (int, np.integer)):
                raise ConfigError(f"min_security_by_node: node {v!r} is not an integer")
        requirements = [("min_security", self.min_security)]
        requirements += [(f"min_security_{r.value}", x) for r, x in self.min_security_by_role.items()]
        requirements += [(f"min_security_by_node[{v}]", x) for v, x in self.min_security_by_node.items()]
        for key, value in requirements:
            if not 0 <= value < math.inf:
                raise ConfigError(f"{key}: must be finite and non-negative")
        for prefix, params in sections.items():
            try:
                params.validate()
            except ValueError as exc:
                raise ConfigError(f"{prefix}: {exc}") from exc
        if self.bridge_decay_step is not None and not 0 < self.bridge_decay_step < math.inf:
            raise ConfigError("bridge_decay_step: must be finite and positive")
        if self.start_nodes is not None and self.start_fragment is not None:
            raise ConfigError("start_nodes and start_fragment: set at most one of them")
        if self.start_nodes is not None and not self.start_nodes:
            raise ConfigError("start_nodes: must name at least one node")
        if self.coverage_window is not None and self.coverage_window < 1:
            raise ConfigError("coverage_window: must be at least 1")

    def default_coverage_window(self, node_count: int) -> int:
        if self.coverage_window is not None:
            return self.coverage_window
        if self.node_checkers_per_type == 0:
            return 0
        return max(1, round(4 * node_count / self.node_checkers_per_type))


def _levels(balance: np.ndarray) -> dict[int, list[int]]:
    """The nodes of positive balance, one list per balance level, each in
    descending id order so that the lowest id is at the end."""
    ids = np.flatnonzero(balance > 0)[::-1]
    ids = ids[np.argsort(balance[ids], kind="stable")]
    level = balance[ids]
    bounds = [0, *(np.flatnonzero(level[1:] != level[:-1]) + 1).tolist(), len(ids)]
    ids, level = ids.tolist(), level.tolist()
    return {level[a]: ids[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a}


def _settle(levels: dict[int, list[int]], tops: list[int], level: int, nodes: list[int]) -> None:
    """Put `nodes` (descending ids) on `level`, if positive, merged in id order."""
    if level > 0:
        held = levels.get(level)
        if held is None:
            levels[level] = nodes
            heapq.heappush(tops, -level)
        else:
            levels[level] = sorted(held + nodes, reverse=True)


def plan_rebalance(counts: np.ndarray, required: np.ndarray) -> np.ndarray:
    """Greedy transfer plan: biggest surplus feeds biggest deficit until one
    side runs dry. Ties resolve to the lower node id. Counts are cell units.
    Returns one row (source, target, amount) per move, in plan order, as an
    (m, 3) object array of Python ints: a sum over its rows stays a Python
    int, which `json` can write (the benchmark's traced runs do).

    The greedy runs a balance level at a time. With S the top surplus and D
    the top deficit, the i-th lowest-id giver at S feeds the i-th lowest-id
    taker at D, min(S, D) cells each, for as many pairs as the smaller of
    the two levels holds: each such move takes one node of its pair off its
    level and leaves the next pair on top, so these are the moves that one
    pick of the largest pair at a time makes, in its order. A node left with
    a smaller balance joins that lower level in id order.
    """
    balance = counts.astype(np.int64) - np.ceil(required).astype(np.int64)
    givers, takers = _levels(balance), _levels(-balance)
    give_tops, take_tops = [-s for s in givers], [-d for d in takers]
    heapq.heapify(give_tops)
    heapq.heapify(take_tops)
    sources: list[int] = []
    targets: list[int] = []
    amounts: list[int] = []
    while give_tops and take_tops:
        give, take = -give_tops[0], -take_tops[0]
        level_givers, level_takers = givers[give], takers[take]
        pairs = min(len(level_givers), len(level_takers))
        amount = min(give, take)
        fed, filled = level_givers[-pairs:], level_takers[-pairs:]
        del level_givers[-pairs:], level_takers[-pairs:]
        sources += reversed(fed)
        targets += reversed(filled)
        amounts += [amount] * pairs
        if not level_givers:
            del givers[give]
            heapq.heappop(give_tops)
        if not level_takers:
            del takers[take]
            heapq.heappop(take_tops)
        _settle(givers, give_tops, give - amount, fed)
        _settle(takers, take_tops, take - amount, filled)
    return np.array([sources, targets, amounts], dtype=object).T


def topology_for(config: SimulationConfig) -> Topology:
    """The topology a run of `config` generates; its seed defaults to the run seed."""
    topo_cfg = config.topology
    if topo_cfg.seed is None:
        topo_cfg = replace(topo_cfg, seed=config.seed)
    return generate_topology(topo_cfg)


class Engine:
    """One simulation run. Construct, then call run(), or step() repeatedly."""

    def __init__(
        self,
        config: SimulationConfig,
        topology: Topology | None = None,
        verbose: bool = False,
    ):
        config.validate()
        self.config = config
        if topology is None:
            topology = topology_for(config)
        self.topology = topology
        n = topology.node_count
        k = config.cell_types
        strategy = config.strategy
        self.notification_on = strategy in ("notification", "protocols")
        self.trails_on = strategy in ("trails", "protocols")
        self.centralized = strategy == "centralized"

        self.min_security_node = np.full(n, config.min_security, dtype=np.float64)
        for v, role in enumerate(topology.roles):
            if role in config.min_security_by_role:
                self.min_security_node[v] = config.min_security_by_role[role]
        for v, value in config.min_security_by_node.items():
            if not 0 <= v < n:
                raise ConfigError(f"min_security_by_node: unknown node {v}")
            self.min_security_node[v] = value

        # Cells are id-ordered: packet checkers type-major, then node checkers.
        n_pc = k * config.packet_checkers_per_type
        n_nc = k * config.node_checkers_per_type
        self.n_pc = n_pc
        types = np.arange(1, k + 1)
        self.cell_type = np.concatenate(
            [np.repeat(types, config.packet_checkers_per_type), np.repeat(types, config.node_checkers_per_type)]
        )

        start_nodes = config.start_nodes
        if config.start_fragment is not None:
            start_nodes = [v for v in range(n) if topology.fragment_of[v] == config.start_fragment]
            if not start_nodes:
                raise ConfigError(
                    f"start_fragment: no node lies in fragment {config.start_fragment} "
                    f"(the topology's fragments are 0..{max(topology.fragment_of)})"
                )
        if start_nodes is None:
            start_nodes = list(range(n))
        for v in start_nodes:
            if not 0 <= v < n:
                raise ConfigError(f"start_nodes: unknown node {v}")
        ids = np.arange(n_pc + n_nc)
        self.loc = np.asarray(start_nodes, dtype=np.int64)[ids % len(start_nodes)]
        # Packet checkers per node. Only the two writers of loc[:n_pc],
        # _move_packet_checkers and _centralized_assign, change it.
        self.pc_count = np.bincount(self.loc[:n_pc], minlength=n)

        self.trail_state: TrailState | None = None
        if self.trails_on:
            self.trail_state = TrailState(topology, config.trail_params, k)
            if config.bridge_fallback or config.bridge_decay_step is not None:
                endpoints = sorted(
                    {v for conn in topology.bridge_edges for v in conn.endpoints()}
                )
                if config.bridge_fallback:
                    self.trail_state.set_bridge_fallback(endpoints)
                if config.bridge_decay_step is not None:
                    for v in endpoints:
                        self.trail_state.set_node_decay_step(v, config.bridge_decay_step)

        self.traffic_source = TrafficSource(config.traffic, topology, k)
        self.in_flight: list[TrafficPacket] = []
        self.infected = np.zeros((n, k + 1), dtype=bool)  # active (node, intrusion) pairs

        self._rng_traffic = _substream(config.seed, _STREAM_TRAFFIC)
        self._rng_movement = _substream(config.seed, _STREAM_MOVEMENT)
        self._rng_selection = _substream(config.seed, _STREAM_SELECTION)

        # Notification state: the strongest packet delivered to each node this
        # step (value 0 marks none). It is what gets relayed next step; nothing
        # persists beyond that.
        self.notif_value = np.zeros(n, dtype=np.float64)
        self.notif_from = np.full(n, -1, dtype=np.int64)
        self._notif_origin = np.zeros(n, dtype=np.int64)
        self._notif_link = np.full(n, -1, dtype=np.int64)

        self._dist_from_gateway = self.traffic_source.gateway_hops
        if config.traffic.packets_per_step > 0 or self.centralized:
            unreachable = np.flatnonzero(self._dist_from_gateway < 0)
            if len(unreachable):
                raise TopologyError(
                    f"node {unreachable[0]} is unreachable from the gateway "
                    f"{topology.gateway}: traffic and the centralized manager need a path"
                )
        self._notif_per_connection = np.zeros(len(topology.edges), dtype=np.int64)
        self.lacking = np.zeros(n, dtype=np.float64)
        self.t = 0

        duration = config.duration
        self._deficiency = np.zeros(duration, dtype=np.int64)
        self._notif_sent = np.zeros(duration, dtype=np.int64)
        self._detections = np.zeros(duration, dtype=np.int64)
        self._introduced = np.zeros(duration, dtype=np.int64)
        self._entity_counts = np.zeros((duration, n), dtype=np.int32)
        # Every node checker checks every step: row t holds where each one was.
        self._check_nodes = np.zeros((duration, n_nc), dtype=np.int32)
        self.delivered_packets = 0
        self.delivered_infected = 0
        self.infections_created = 0
        self.infections_cleared = 0
        self.control_bandwidth = 0.0
        self.max_link_load = 0

        # Verbose runs log each packet's fate and each trail bump.
        self.verbose = verbose
        self.traffic_log: list[tuple[int, int, int, int, int, str, int]] = []
        self.trail_log: list[tuple[int, int, int, int, float]] = []

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _phase_traffic(self) -> None:
        t, config = self.t, self.config
        # Row p - 1 holds where the packet checkers of type p stand.
        guards = self.loc[: self.n_pc].reshape(config.cell_types, config.packet_checkers_per_type)
        for packet in self.in_flight:
            packet.position += 1
        new_packets, landed = self.traffic_source.generate(self._rng_traffic)
        self._introduced[t] = sum(packet.payload is not None for packet in new_packets)
        self.in_flight.extend(new_packets)

        survivors: list[TrafficPacket] = []
        for packet in self.in_flight:
            node, payload = packet.current_node, packet.payload
            # `in` on an array row costs microseconds; with no packet checkers skip it.
            if payload is not None and self.n_pc and node in guards[payload - 1]:
                fate = "detected"
                self._detections[t] += 1
            elif packet.at_destination:
                fate = "delivered" if payload is None else "installed"
                self.delivered_packets += 1
                if payload is not None:
                    self.delivered_infected += 1
                    landed.append((node, payload))
            else:
                survivors.append(packet)
                continue
            if self.verbose:
                self.traffic_log.append(
                    (t, packet.packet_id, packet.source, packet.destination, payload or 0, fate, node)
                )
        self.in_flight = survivors
        for key in landed:
            if not self.infected[key]:
                self.infected[key] = True
                self.infections_created += 1

    def _phase_node_checks(self) -> None:
        nodes = self.loc[self.n_pc :]
        self._check_nodes[self.t] = nodes
        types = self.cell_type[self.n_pc :]
        found = self.infected[nodes, types]
        if found.any():
            nodes, types = nodes[found], types[found]
            self.infected[nodes, types] = False
            # A (node, type) checked by several checkers is cleared once.
            self.infections_cleared += len(set(zip(nodes.tolist(), types.tolist())))

    def _phase_security(self) -> np.ndarray:
        security = self.pc_count * self.config.security_value
        np.maximum(self.min_security_node - security, 0.0, out=self.lacking)
        self._deficiency[self.t] = int(np.count_nonzero(self.lacking))
        return self.lacking

    def _phase_relay(self) -> None:
        """Forward last step's packets plus fresh emissions, deliver at once."""
        if not self.notification_on:
            return
        self.notif_value, self._notif_origin, self._notif_link, self.notif_from, sent, load = relay(
            self.topology, self.config.notify_params, self.lacking, self.notif_value,
            self._notif_origin, self._notif_link, self._notif_per_connection,
        )
        self._notif_sent[self.t] = sent
        self.max_link_load = max(self.max_link_load, load)

    def _phase_trail_fade(self) -> None:
        if self.trail_state is not None:
            self.trail_state.decay_all()

    def _phase_movement(self) -> None:
        self._move_packet_checkers()
        self._move_node_checkers()
        if self.centralized:
            self._centralized_assign()

    def _move_packet_checkers(self) -> None:
        """Each packet checker with a link moves at its rate: toward the
        notification it heard, else to a uniform neighbour."""
        topo, params, n_pc = self.topology, self.config.movement, self.n_pc
        if n_pc == 0:
            return
        locs = self.loc[:n_pc]
        u_move, u_dest = self._rng_movement.random(2 * n_pc).reshape(2, n_pc)
        # Each node's move probability, gathered once per checker. No draw
        # falls below 0, so checkers at a lacking or linkless node stay.
        node_prob = np.full(topo.node_count, params.base_probability)
        if self.notification_on:
            node_prob = np.minimum(node_prob + params.gain * self.notif_value, params.max_probability)
            node_prob[self.lacking > 0] = 0.0
        node_prob[topo.degrees == 0] = 0.0
        movers = np.flatnonzero(u_move < node_prob[locs])
        at = locs[movers]
        offsets = (u_dest[movers] * topo.degrees[at]).astype(np.int64)
        dest = topo.adj_neighbors[topo.adj_indptr[at] + offsets]
        if self.notification_on:
            lead = self.notif_from[at]
            dest = np.where(lead < 0, dest, lead)
        locs[movers] = dest
        n = topo.node_count
        self.pc_count += np.bincount(dest, minlength=n) - np.bincount(at, minlength=n)

    def _move_node_checkers(self) -> None:
        """Every node checker with a link decides in id order, drawing from the
        selection stream exactly as one decision per checker would."""
        topo, rng, state = self.topology, self._rng_selection, self.trail_state
        locs = self.loc[self.n_pc :]
        movers = np.flatnonzero(topo.degrees[locs] > 0)
        if len(movers) == 0:
            return
        nodes, types = locs[movers], self.cell_type[self.n_pc :][movers]
        if state is None:
            moving, draws = _resting_moves(rng, len(movers), self.config.movement.base_probability)
            movers, nodes = movers[moving], nodes[moving]
            slots = topo.adj_indptr[nodes] + (draws * topo.degrees[nodes]).astype(np.int64)
        else:
            slots, bumped = state.move(nodes, types, rng)
            if self.verbose:
                rows = zip(nodes.tolist(), topo.adj_links[slots].tolist(), types.tolist(), bumped.tolist())
                self.trail_log.extend((self.t, *row) for row in rows)
        locs[movers] = topo.adj_neighbors[slots]

    def _centralized_assign(self) -> None:
        """Teleport packet checkers onto deficits; pay 2 * hops to the gateway
        per moved cell (status report plus command through the management
        point). Runs after the autonomous wander each step.
        """
        n = self.topology.node_count
        n_pc = self.n_pc
        if n_pc == 0:
            return
        locs = self.loc[:n_pc]
        required = self.min_security_node / self.config.security_value
        counts = self.pc_count
        moves = plan_rebalance(counts, required)
        if not len(moves):
            return
        moves = moves.astype(np.int64)
        # Sources only give, so each hands out its first cells in id order,
        # in plan order: with the moves sorted stably by source, a move's
        # cells follow those of its source's earlier moves in the pool.
        src, dst, amount = moves[np.argsort(moves[:, 0], kind="stable")].T
        is_source = np.zeros(n, dtype=bool)
        is_source[src] = True
        pool = np.flatnonzero(is_source[locs])
        # The pool in (node, id) order: the keys are unique, so one plain sort.
        keys = np.sort(locs[pool] * n_pc + pool)
        on_source = np.where(is_source, counts, 0)
        pool_start = np.cumsum(on_source) - on_source
        cell_end = np.cumsum(amount)
        cell_start = cell_end - amount
        # A source's moved cells are consecutive; its k-th takes its k-th pool slot.
        group_start = cell_start[np.searchsorted(src, src)]
        slot = np.repeat(pool_start[src] - group_start, amount) + np.arange(cell_end[-1])
        chosen = keys[slot] % n_pc
        self.loc[chosen] = np.repeat(dst, amount)
        np.subtract.at(counts, src, amount)
        np.add.at(counts, dst, amount)
        self.control_bandwidth += 2.0 * int(self._dist_from_gateway[src] @ amount)

    # ------------------------------------------------------------------

    def step(self) -> None:
        if self.t >= self.config.duration:
            raise RuntimeError("run already complete")
        self._phase_traffic()
        self._phase_node_checks()
        self._phase_security()
        self._phase_relay()
        self._phase_trail_fade()
        self._phase_movement()
        self._entity_counts[self.t] = self.pc_count + np.bincount(
            self.loc[self.n_pc :], minlength=self.topology.node_count
        )
        self.t += 1

    def run(self) -> MetricsReport:
        while self.t < self.config.duration:
            self.step()
        return self.report()

    @property
    def notification_packets_total(self) -> int:
        """Notification packets sent so far (the benchmark harness reads it)."""
        return int(self._notif_sent[: self.t].sum())

    def report(self) -> MetricsReport:
        sent = self.notification_packets_total
        return MetricsReport(
            duration=self.t,
            node_count=self.topology.node_count,
            cell_types=self.config.cell_types,
            strategy=self.config.strategy,
            seed=self.config.seed,
            detected_packets=int(self._detections[: self.t].sum()),
            introduced_packets=int(self._introduced[: self.t].sum()),
            delivered_infected=self.delivered_infected,
            infections_created=self.infections_created,
            infections_cleared=self.infections_cleared,
            infections_active=int(np.count_nonzero(self.infected)),
            control_bandwidth=self.control_bandwidth if self.centralized else float(sent),
            notification_packets_total=sent,
            max_link_load=self.max_link_load,
            # Rows before t are never written again, so views of them stay
            # valid; later steps still add to the per-connection counts.
            deficiency_series=self._deficiency[: self.t],
            notification_series=self._notif_sent[: self.t],
            notification_per_connection=self._notif_per_connection.copy(),
            detections_series=self._detections[: self.t],
            introduced_series=self._introduced[: self.t],
            entity_counts=self._entity_counts[: self.t],
            check_nodes=self._check_nodes[: self.t],
            checker_types=self.cell_type[self.n_pc :],
            coverage_window=self.config.default_coverage_window(self.topology.node_count),
        )
