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
  values, in the order numpy's bounded draws take them, one per mover off a
  leaf. Such a mover's total is 2 or more, and it takes the next value x
  and picks 1 + (x * total >> 32), numpy's Lemire draw. A leaf mover picks
  its one link and, at a total of 1, draws nothing.
- The read-ahead is wrong from the first draw that takes other than one
  accepted value (a rejected one, the product's low half below
  2^32 mod total, with probability below total / 2^32; or a total above
  2^32, which numpy draws from a whole 64-bit word), and from the first
  leaf whose total is above 1, as when its float weight
  ceil(max(1, v + 1 - v)) comes out as 2 (v = 1.03 does). A round that
  meets either stops `move`: it rolls back the call's bumps in reverse
  order, restores the stream and replays the call as one `select_next_hop`
  and one bump per mover, the definition itself.
- A fallback node has unit weights. Its draw from [1, degree] consumes the
  stream as a uniform draw from [0, degree) would, and none at degree 1.
- The bump takes e^old with `math.exp`: `np.exp` differs from it in the
  last bit on some inputs below the exponent cap, which would change the
  trail values and then the picks. Only an old value other than 0 and below
  the cap needs a call; e^0 is 1, and every value at or above the cap takes
  the one e^cap.
- One bump takes each (slot, type) pair at most once; a fancy assignment
  would drop the second bump of a repeated pair. A round's pairs are
  distinct, since its (node, type) keys are and a slot belongs to one node,
  so `move` bumps without `record_traversal`'s input checks.

The fade visits only the entries that may be nonzero. An entry at 0 stays at
0 under max(0, 0 - step), so skipping it leaves the same bytes as a pass over
the whole matrix; every other entry gets that same float operation. The
first fade finds the nonzero entries with one scan, so values written
directly before it fade exactly. From then on the state tracks them, which
holds only if nothing but the bump and `move`'s rollback of its own bumps
writes `values`; both touch only entries a bump has tracked. A
gather and scatter costs several times a pass in place per entry, so once
the tracked entries reach a fixed share of the matrix the fade falls back to
the full pass for the rest of the run.
"""

from __future__ import annotations

import math
import sys
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
# The largest x whose e^x `math.exp` returns as a float.
_MAX_EXPONENT = math.log(sys.float_info.max)


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
        if self.exponent_cap > _MAX_EXPONENT:
            raise ValueError(f"exponent_cap must be at most {_MAX_EXPONENT:.4f}, where e^cap is finite")
        # A roulette call sums int64 weights of up to the top value + 1 over
        # all the links it reads: exact below 2^40 on under 2^22 link slots.
        reach = min(self.value_cap, self.increase_base + self.increase_scale * math.exp(self.exponent_cap))
        if reach > 2.0**40:
            raise ValueError(f"value_cap must keep trail values at most 2^40; they reach {reach:.3g}")


class TrailState:
    """All trail storage for one topology, laid out per directed link slot.

    A slot is an index into the topology's CSR adjacency: node v owns slots
    adj_indptr[v]:adj_indptr[v + 1], one per link in neighbor order, and
    values are indexed [slot, cell_type]. The reverse direction of a link is
    a different slot owned by the other endpoint.

    From the first fade on, `values` may be changed only by a bump
    (`record_traversal`, `move`) and by `move` rolling back a bump to the
    value it replaced: the fade visits only the entries bumps have tracked.
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
        return self._bump(slots, cell_types)

    def _bump(self, slots: np.ndarray, cell_types: np.ndarray) -> np.ndarray:
        """`record_traversal` on distinct, in-range pairs, unchecked."""
        params = self.params
        cap = params.exponent_cap
        old = self.values[slots, cell_types]
        grown = np.where(old >= cap, math.exp(cap), 1.0)
        rest = np.flatnonzero((old != 0.0) & (old < cap))
        grown[rest] = np.fromiter(map(math.exp, old[rest].tolist()), dtype=np.float64, count=len(rest))
        new = np.minimum(params.increase_base + params.increase_scale * grown, params.value_cap)
        self.values[slots, cell_types] = new
        if self._marked is not None:
            pairs = slots * (self.cell_types + 1) + cell_types
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
            return slots, self._bump(slots, cell_types)
        index = np.arange(n)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = index - np.maximum.accumulate(np.where(first, index, 0))
        by_rank = np.argsort(rank, kind="stable")
        leaf = self.topology.degrees[nodes] == 1
        position = np.cumsum(~leaf) - 1
        saved = rng.bit_generator.state
        # A leaf mover reads a value it does not use: an earlier mover's, or
        # the trailing 0 when none has drawn; a total of 1 picks 1 on any.
        values = np.append(rng.integers(0, 1 << 32, size=position[-1] + 1, dtype=np.uint64), np.uint64(0))
        slots = np.empty(n, dtype=np.int64)
        bumped = np.empty(n, dtype=np.float64)
        done = []
        for movers in np.split(by_rank, np.flatnonzero(np.diff(rank[by_rank])) + 1):
            totals, to_slots = self._roulette(nodes[movers], cell_types[movers])
            picks, exceptional = _lemire_picks(values[position[movers]], totals)
            if (exceptional | (leaf[movers] & (totals > 1))).any():
                break
            taken, types = to_slots(picks), cell_types[movers]
            done.append((taken, types, self.values[taken, types]))
            slots[movers] = taken
            bumped[movers] = self._bump(taken, types)
        else:
            return slots, bumped
        for taken, types, old in reversed(done):
            self.values[taken, types] = old
        rng.bit_generator.state = saved
        for i in range(n):
            one = slice(i, i + 1)
            slots[one] = self.select_next_hop(nodes[one], cell_types[one], rng)
            bumped[one] = self._bump(slots[one], cell_types[one])
        return slots, bumped
