"""Traffic and intrusion model: packets that may carry intrusions, node
infections, and detection by type-matched checkers.

External packets enter at the gateway and walk a shortest path to a uniform
destination, one hop per step, inspected at every node on the way including
both ends. Internal attacks are introduced directly at a uniformly chosen
endpoint node (its own single-node path). An infected packet that survives
inspection all the way installs an infection at its destination; infections
sit on the node until a node checker of the matching type clears them.
Detection is exact type matching with no false positives or negatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import NodeRole, Topology, check_integers, walk_back


@dataclass
class TrafficConfig:
    packets_per_step: int = 0
    infection_probability: float = 0.0
    internal_attack_rate: float = 0.0
    infections_per_step: float = 0.0

    def validate(self) -> None:
        check_integers(self, ValueError)
        if self.packets_per_step < 0:
            raise ValueError("packets_per_step must be non-negative")
        if not 0.0 <= self.infection_probability <= 1.0:
            raise ValueError("infection_probability must lie in [0, 1]")
        for name in ("internal_attack_rate", "infections_per_step"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass
class TrafficPacket:
    packet_id: int
    source: int
    destination: int
    path: list[int]
    position: int = 0
    payload: int | None = None

    @property
    def current_node(self) -> int:
        return self.path[self.position]

    @property
    def at_destination(self) -> bool:
        return self.position == len(self.path) - 1


class TrafficSource:
    """Deterministic per-step generator for packets and direct infections.

    Fractional rates are realised with carry-over accumulators, so e.g. a rate
    of 0.25 yields one event every fourth step exactly.
    """

    def __init__(self, config: TrafficConfig, topology: Topology, cell_types: int):
        config.validate()
        self.config = config
        self.topology = topology
        self.cell_types = cell_types
        self._next_packet_id = 0
        self._internal_carry = 0.0
        self._infection_carry = 0.0
        self._gateway = topology.gateway
        # One search from the gateway serves every destination's path and
        # the engine's gateway hop counts.
        self.gateway_hops, self._predecessor = topology.search(self._gateway)
        self._gateway_paths: dict[int, list[int]] = {}
        self._endpoints = [
            v
            for v, role in enumerate(topology.roles)
            if role in (NodeRole.WORKSTATION, NodeRole.SERVER)
        ]
        if not self._endpoints:
            self._endpoints = list(range(topology.node_count))

    def _path_from_gateway(self, destination: int) -> list[int]:
        if destination not in self._gateway_paths:
            self._gateway_paths[destination] = walk_back(self._predecessor, self._gateway, destination)
        return self._gateway_paths[destination]

    def _draw_payload(self, rng: np.random.Generator) -> int | None:
        if rng.random() < self.config.infection_probability:
            return int(rng.integers(1, self.cell_types + 1))
        return None

    def generate(self, rng: np.random.Generator) -> tuple[list[TrafficPacket], list[tuple[int, int]]]:
        """This step's packets, and its direct infections as (node, intrusion) pairs."""
        packets: list[TrafficPacket] = []
        n = self.topology.node_count
        for _ in range(self.config.packets_per_step):
            destination = int(rng.integers(0, n))
            if destination == self._gateway:
                destination = (destination + 1) % n
            packets.append(
                TrafficPacket(
                    packet_id=self._next_packet_id,
                    source=self._gateway,
                    destination=destination,
                    path=self._path_from_gateway(destination),
                    payload=self._draw_payload(rng),
                )
            )
            self._next_packet_id += 1

        self._internal_carry += self.config.internal_attack_rate
        while self._internal_carry >= 1.0:
            self._internal_carry -= 1.0
            node = self._endpoints[int(rng.integers(0, len(self._endpoints)))]
            packets.append(
                TrafficPacket(
                    packet_id=self._next_packet_id,
                    source=node,
                    destination=node,
                    path=[node],
                    payload=self._draw_payload(rng),
                )
            )
            self._next_packet_id += 1

        direct: list[tuple[int, int]] = []
        self._infection_carry += self.config.infections_per_step
        while self._infection_carry >= 1.0:
            self._infection_carry -= 1.0
            node = int(rng.integers(0, n))
            direct.append((node, int(rng.integers(1, self.cell_types + 1))))
        return packets, direct

