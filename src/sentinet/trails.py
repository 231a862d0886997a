"""Traversal trails: per-(link, cell-type) recency marks guiding node checkers.

Every node keeps one value per outgoing link per cell type. A checker leaving
a node bumps the value on the link it takes; the node fades all values a
little each step. High value means "someone like me went that way recently",
so next-hop selection favours the stalest direction via an inverse-weight
roulette. Nodes can be put in a fallback mode (uniform choice) where trails
misbehave, e.g. at bridge endpoints in fragmented networks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .topology import Topology


@dataclass
class TrailParams:
    increase_base: float = 10.0
    increase_scale: float = 0.001
    decay_step: float = 2.0
    # Clamps that keep the exponential update finite; ordering is all the
    # roulette needs, so clamping does not change selection behaviour.
    value_cap: float = 1000.0
    exponent_cap: float = 30.0

    def validate(self) -> None:
        for name in ("increase_base", "increase_scale", "decay_step", "value_cap", "exponent_cap"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


def trail_increase(old: float, params: TrailParams) -> float:
    """New mark after a traversal: base + scale * e^old, capped."""
    if old < 0:
        raise ValueError("trail values are non-negative")
    arg = min(old, params.exponent_cap)
    return min(params.increase_base + params.increase_scale * math.exp(arg), params.value_cap)


def trail_decay(old: float, params: TrailParams, decay_step: float | None = None) -> float:
    """Linear fade per step, floored at zero."""
    if old < 0:
        raise ValueError("trail values are non-negative")
    step = params.decay_step if decay_step is None else decay_step
    return max(0.0, old - step)


def roulette_weights(values: np.ndarray) -> np.ndarray:
    """Integer roulette weights: stalest direction gets the biggest slice.

    weight_i = ceil(max(1, max_j(v_j) + 1 - v_i)), so every link keeps a
    positive share and ordering by trail value is inverted exactly.
    """
    top = float(values.max()) if len(values) else 0.0
    raw = np.maximum(1.0, top + 1.0 - values)
    return np.ceil(raw).astype(np.int64)


class TrailState:
    """All trail storage for one topology, laid out per directed link slot.

    A slot is an index into the topology's CSR adjacency: node v owns slots
    adj_indptr[v]:adj_indptr[v + 1], one per link in neighbor order, and
    values are indexed [slot, cell_type]. The reverse direction of a link is
    a different slot owned by the other endpoint.
    """

    def __init__(self, topology: Topology, params: TrailParams, cell_types: int):
        params.validate()
        self.topology = topology
        self.params = params
        self.cell_types = cell_types
        # select_next_hop reads it once per checker per step, and list items
        # are cheaper to read than numpy scalars.
        self._indptr = topology.adj_indptr.tolist()
        slots = self._indptr[-1]
        self.values = np.zeros((slots, cell_types + 1), dtype=np.float64)
        self._decay_steps = np.full(slots, params.decay_step, dtype=np.float64)
        self.bridge_fallback = np.zeros(topology.node_count, dtype=bool)

    def set_bridge_fallback(self, nodes: list[int], enabled: bool = True) -> None:
        for node in nodes:
            self.bridge_fallback[node] = enabled

    def set_node_decay_step(self, node: int, decay_step: float) -> None:
        """Per-node override: a steeper fade is the other bridge remedy."""
        if decay_step <= 0:
            raise ValueError("decay_step must be positive")
        self._decay_steps[self._indptr[node] : self._indptr[node + 1]] = decay_step

    def record_traversal(self, slot: int, cell_type: int) -> None:
        """Bump exactly the (slot, type) entry: the link taken, at the departure node."""
        if not 1 <= cell_type <= self.cell_types:
            raise ValueError(f"cell_type {cell_type} out of range")
        if not 0 <= slot < len(self.values):
            raise ValueError(f"slot {slot} out of range 0..{len(self.values) - 1}")
        self.values[slot, cell_type] = trail_increase(float(self.values[slot, cell_type]), self.params)

    def decay_all(self) -> None:
        """One step of linear fade on every entry of every node."""
        np.subtract(self.values, self._decay_steps[:, None], out=self.values)
        np.maximum(self.values, 0.0, out=self.values)

    def select_next_hop(self, node: int, cell_type: int, rng: np.random.Generator) -> int:
        """Roulette pick among the node's links for this cell type; returns the slot.

        Fallback nodes choose uniformly. Elsewhere a uniform integer from
        [1, total weight] is mapped onto the cumulative weight intervals, in
        neighbor order, so lower trail values get proportionally more mass.
        """
        start, end = self._indptr[node], self._indptr[node + 1]
        if start == end:
            raise ValueError(f"node {node} has no neighbors")
        if self.bridge_fallback[node]:
            return start + int(rng.integers(0, end - start))
        cumulative = list(accumulate(roulette_weights(self.values[start:end, cell_type]).tolist()))
        return start + bisect_left(cumulative, int(rng.integers(1, cumulative[-1] + 1)))


def selection_probabilities(values: np.ndarray) -> np.ndarray:
    """Analytic pick probabilities implied by the roulette weights."""
    weights = roulette_weights(np.asarray(values, dtype=np.float64))
    return weights / weights.sum()
