"""Traversal trails: per-(link, cell-type) recency marks guiding node checkers.

Every node keeps one value per outgoing link per cell type. A checker leaving
a node bumps the value on the link it takes to base + scale * e^old (the
exponent and the result capped); the node fades all values by a fixed step
each step, floored at zero. High value means "someone like me went that way
recently", so next-hop selection favours the stalest direction via an
inverse-weight roulette: link i of a node gets the integer weight
ceil(max(1, max_j(v_j) + 1 - v_i)). Nodes can be put in a fallback mode
(uniform choice) where trails misbehave, e.g. at bridge endpoints in
fragmented networks.

Selection and the bump take arrays. `move` moves many checkers per call,
with the same draws and values as one pick and one bump per checker in input
order:

- A bump changes the weights only of a later checker with the same
  (node, type), so `move` takes checkers in rounds by rank, the number of
  earlier movers with the same key: one roulette and one bump a round. A
  call whose keys are all distinct is one round, drawn with one
  `rng.integers(1, totals + 1)` call.
- Rounds run out of input order, so `move` reads their draws ahead with
  one `rng.integers(0, 2**32, size=m, dtype=np.uint64)`: the next m 32-bit
  values, in the order numpy's bounded draws take them. A checker whose
  total is above 1 takes the next value x and picks 1 + (x * total >> 32),
  numpy's Lemire draw (a total of exactly 2^32 too); a total of 1 draws
  nothing. When all m values are used, the generator is already where m
  draws leave it; otherwise it is restored and the values used are drawn
  again.
- Two draws take other than one accepted value: a rejected one (the
  product's low half below 2^32 mod total, with probability below
  total / 2^32), and a total above 2^32, which numpy draws from a whole
  64-bit word. `move` runs every round, then takes the lowest position
  flagged as the first such draw: a checker before it sees the total and
  value of one pick at a time, so none is flagged wrongly. It rolls back
  the bumps of the checkers from that one on, in reverse order, rewinds the
  stream to it and takes that draw from the generator.
- A checker draws iff its total is above 1: always at degree 2 or more, and
  at a leaf when its float weight ceil(max(1, v + 1 - v)) comes out as 2
  (v = 1.03 does). A leaf's move is forced, so `move` settles its bump
  chains first, and with them which leaf checkers draw.
- A fallback node has unit weights. Its draw from [1, degree] consumes the
  stream as a uniform draw from [0, degree) would, and none at degree 1.
- The bump takes e^old with `math.exp` per value: `np.exp` differs from it
  in the last bit on some inputs below the exponent cap, which would change
  the trail values and then the picks.
- One call bumps each (slot, type) pair at most once; a fancy assignment
  would drop the second bump of a repeated pair.

The fade visits only the entries that may be nonzero. An entry at 0 stays at
0 under max(0, 0 - step), so skipping it leaves the same bytes as a pass over
the whole matrix; every other entry gets that same float operation. The
first fade finds the nonzero entries with one scan, so values written
directly before it fade exactly. From then on the state tracks them, which
holds only if nothing but `record_traversal` and `move`'s rollback of its own
bumps writes `values`; both touch only entries a bump has tracked. A
gather and scatter costs several times a pass in place per entry, so once
the tracked entries reach a fixed share of the matrix the fade falls back to
the full pass for the rest of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import Topology, check_integers

# Share of the matrix at which the fade stops tracking entries. Per fade, a
# tracked entry costs 7-16 ns (gather, subtract, floor, scatter, drop) and an
# entry of the pass in place 1.4-1.6 ns, on matrices of 26k and 520k entries
# (numpy 2.4, one core of a 2-vCPU x86 VM): the two break even at a share
# between 1/10 and 1/5.
_FULL_PASS_SHARE = 1 / 8

_LOW_HALF = np.uint64(0xFFFFFFFF)


def _lemire_picks(values: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw from [1, total] on one accepted 32-bit value
    each: 1 + (value * total >> 32). Also flags the draws that take more
    than `values` gives them: a rejected value (the low half of the product
    below 2^32 mod total), or a total above 2^32, drawn from a 64-bit word."""
    wide = totals.astype(np.uint64)
    product = values * wide
    exceptional = (totals > 1 << 32) | ((product & _LOW_HALF) < np.uint64(1 << 32) % wide)
    return (product >> np.uint64(32)).astype(np.int64) + 1, exceptional


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
        check_integers(self, ValueError)
        for name in ("increase_base", "increase_scale", "decay_step", "value_cap", "exponent_cap"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


class TrailState:
    """All trail storage for one topology, laid out per directed link slot.

    A slot is an index into the topology's CSR adjacency: node v owns slots
    adj_indptr[v]:adj_indptr[v + 1], one per link in neighbor order, and
    values are indexed [slot, cell_type]. The reverse direction of a link is
    a different slot owned by the other endpoint.

    From the first fade on, `values` may be changed only by
    `record_traversal` and by `move` rolling back a bump to the value it
    replaced: the fade visits only the entries those calls have tracked.
    """

    def __init__(self, topology: Topology, params: TrailParams, cell_types: int):
        params.validate()
        self.topology = topology
        self.params = params
        self.cell_types = cell_types
        slots = int(topology.adj_indptr[-1])
        self.values = np.zeros((slots, cell_types + 1), dtype=np.float64)
        self._decay_steps = np.full(slots, params.decay_step, dtype=np.float64)
        self.bridge_fallback = np.zeros(topology.node_count, dtype=bool)
        # The fade's tracking: a mark per flat entry (slot * (k+1) + type)
        # that may be nonzero, set from the first fade until the fallback;
        # the marked entries as of the last fade, and those bumped since.
        self._marked: np.ndarray | None = None
        self._live = np.empty(0, dtype=np.int64)
        self._bumped: list[np.ndarray] = []
        self.full_pass = False

    def set_bridge_fallback(self, nodes: list[int]) -> None:
        for node in nodes:
            self.topology._check_node(node)
        self.bridge_fallback[nodes] = True

    def set_node_decay_step(self, node: int, decay_step: float) -> None:
        """Per-node override: a steeper fade is the other bridge remedy."""
        self.topology._check_node(node)
        if not 0 < decay_step < math.inf:
            raise ValueError("decay_step must be finite and positive")
        indptr = self.topology.adj_indptr
        self._decay_steps[indptr[node] : indptr[node + 1]] = decay_step

    def record_traversal(self, slots, cell_types) -> np.ndarray:
        """Bump each (slot, type) entry: the link taken, at the departure node.

        Takes one pair or arrays of pairs; a pair may appear once per call.
        Each new value is min(base + scale * e^min(old, exponent_cap),
        value_cap): e^old is taken with `math.exp`, the rest of the law is
        exact in array arithmetic. Returns the new values, in input order.
        """
        slots, cell_types = np.atleast_1d(slots), np.atleast_1d(cell_types)
        if ((cell_types < 1) | (cell_types > self.cell_types)).any():
            raise ValueError(f"cell_type out of range 1..{self.cell_types}")
        if ((slots < 0) | (slots >= len(self.values))).any():
            raise ValueError(f"slot out of range 0..{len(self.values) - 1}")
        pairs = np.sort(slots * (self.cell_types + 1) + cell_types)
        if (pairs[1:] == pairs[:-1]).any():
            raise ValueError("a (slot, type) pair is bumped at most once per call")
        params = self.params
        old = np.minimum(self.values[slots, cell_types], params.exponent_cap)
        grown = np.fromiter(map(math.exp, old.tolist()), dtype=np.float64, count=len(old))
        new = np.minimum(params.increase_base + params.increase_scale * grown, params.value_cap)
        self.values[slots, cell_types] = new
        if self._marked is not None:
            fresh = pairs[~self._marked[pairs]]
            self._marked[fresh] = True
            self._bumped.append(fresh)
        return new

    def decay_all(self) -> None:
        """One step of linear fade: max(0, old - step) on every entry, with
        the node's own step where one is set.

        Only the entries that may be nonzero are visited: those found by one
        scan at the first fade and those bumped since, less those that have
        reached 0. Once they make up `_FULL_PASS_SHARE` of the matrix, every
        later fade is one pass in place over the whole matrix.
        """
        if not self.full_pass:
            flat = self.values.reshape(-1)
            if self._marked is None:
                live = np.flatnonzero(flat)
                self._marked = np.zeros(len(flat), dtype=bool)
                self._marked[live] = True
            else:
                live = np.concatenate([self._live, *self._bumped])
            self._bumped = []
            if len(live) < _FULL_PASS_SHARE * len(flat):
                faded = flat[live]
                faded -= self._decay_steps[live // (self.cell_types + 1)]
                np.maximum(faded, 0.0, out=faded)
                flat[live] = faded
                gone = faded == 0.0
                self._marked[live[gone]] = False
                self._live = live[~gone]
                return
            self.full_pass = True
            self._marked = None
        np.subtract(self.values, self._decay_steps[:, None], out=self.values)
        np.maximum(self.values, 0.0, out=self.values)

    def _roulette(self, nodes: np.ndarray, cell_types: np.ndarray):
        """Each node's total link weight for its cell type, and the map from
        one draw per node in [1, total] to the slot of the link it picks.

        Link i of a node weighs ceil(max(1, max_j(v_j) + 1 - v_i)) over the
        node's values v for the type, or 1 at a fallback node. A draw is
        mapped onto the cumulative weight intervals in neighbor order, so
        lower trail values get proportionally more mass.
        """
        degrees = self.topology.degrees[nodes]
        if not degrees.all():
            raise ValueError(f"node {nodes[degrees == 0][0]} has no neighbors")
        ends = degrees.cumsum()
        firsts = ends - degrees
        slots = np.repeat(self.topology.adj_indptr[nodes] - firsts, degrees)
        slots += np.arange(ends[-1])
        values = self.values[slots, np.repeat(cell_types, degrees)]
        top = np.maximum.reduceat(values, firsts)
        weights = np.ceil(np.maximum(1.0, np.repeat(top + 1.0, degrees) - values)).astype(np.int64)
        fallback = self.bridge_fallback[nodes]
        if fallback.any():
            weights[np.repeat(fallback, degrees)] = 1
        cumulative = weights.cumsum()
        totals = np.add.reduceat(weights, firsts)
        before = cumulative[ends - 1] - totals
        return totals, lambda picks: slots[cumulative.searchsorted(before + picks)]

    def select_next_hop(self, nodes: np.ndarray, cell_types: np.ndarray, rng: np.random.Generator):
        """Roulette pick among each node's links for its cell type; returns
        slots. One draw per node from [1, total weight], in input order. The
        picks equal one call per node only if no two nodes share a
        (node, type) key that a bump in between would change.
        """
        totals, to_slots = self._roulette(nodes, cell_types)
        return to_slots(rng.integers(1, totals + 1))

    def move(self, nodes: np.ndarray, cell_types: np.ndarray, rng: np.random.Generator):
        """The slot each mover takes and the value its bump leaves, as one
        roulette pick and one bump per mover in input order would leave
        them, the selection stream too. The module docstring says how."""
        n = len(nodes)
        keys = nodes * (self.cell_types + 1) + cell_types
        order = np.argsort(keys, kind="stable")
        first = np.ones(n, dtype=bool)
        first[1:] = keys[order[1:]] != keys[order[:-1]]
        if first.all():
            slots = self.select_next_hop(nodes, cell_types, rng)
            return slots, self.record_traversal(slots, cell_types)
        slots = np.empty(n, dtype=np.int64)
        bumped = np.empty(n, dtype=np.float64)

        def bump(movers: np.ndarray) -> None:
            bumped[movers] = self.record_traversal(slots[movers], cell_types[movers])

        index = np.arange(n)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = index - np.maximum.accumulate(np.where(first, index, 0))
        by_rank = np.argsort(rank, kind="stable")
        rounds = np.split(by_rank, np.flatnonzero(np.diff(rank[by_rank])) + 1)
        # A leaf's move is forced, but whether it draws depends on the
        # value its bump chain has reached, so its chains go first.
        leaf = self.topology.degrees[nodes] == 1
        draws = ~leaf
        for movers in rounds:
            movers = movers[leaf[movers]]
            if len(movers) == 0:
                continue
            draws[movers] = self._roulette(nodes[movers], cell_types[movers])[0] > 1
            slots[movers] = self.topology.adj_indptr[nodes[movers]]
            bump(movers)
        position = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(draws, out=position[1:])
        start = 0
        while True:
            saved = rng.bit_generator.state
            values = rng.integers(0, 1 << 32, size=int(position[n] - position[start]), dtype=np.uint64)
            # The movers from `end` on wait for the first draw flagged.
            end, done = n, []
            for movers in rounds:
                movers = movers[~leaf[movers] & (movers >= start)]
                if len(movers) == 0:
                    continue
                totals, to_slots = self._roulette(nodes[movers], cell_types[movers])
                picks, exceptional = _lemire_picks(values[position[movers] - position[start]], totals)
                slots[movers] = to_slots(picks)
                if exceptional.any():
                    end = min(end, int(movers[exceptional][0]))
                done.append((movers, self.values[slots[movers], cell_types[movers]]))
                bump(movers)
            if end == n:
                return slots, bumped
            for undo, old in reversed(done):
                back = undo >= end
                self.values[slots[undo[back]], cell_types[undo[back]]] = old[back]
            rng.bit_generator.state = saved
            rng.integers(0, 1 << 32, size=int(position[end] - position[start]), dtype=np.uint64)
            taken = index[end : end + 1]
            slots[taken] = self.select_next_hop(nodes[taken], cell_types[taken], rng)
            bump(taken)
            start = end + 1
