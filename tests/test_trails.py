"""Trail update laws and the inverse-weight roulette selection.

The laws are read from `TrailState`'s own methods: its bump is checked
against a 50-digit Decimal evaluation of the closed form, its fade against
the exact linear step, and its empirical selection frequencies against the
reference model's analytic weights at three standard deviations over a
million draws.
The engine's batched node-checker moves are checked against one decision per
checker on arbitrary states, and the numpy behaviour they rely on is pinned.
"""

import copy
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_model import roulette_pick, roulette_weights, trail_increase
from test_notify import random_connected_graph

from sentinet import (
    Connection,
    Engine,
    MovementParams,
    NodeRole,
    SimulationConfig,
    Topology,
    TopologyConfig,
    TopologyError,
    TrailParams,
    TrailState,
)
from sentinet.trails import _FULL_PASS_SHARE, _lemire_picks

PARAMS = TrailParams()  # increase_base 10, increase_scale 1/1000, decay_step 2
SHIPPED = TrailParams(increase_base=400.0, increase_scale=0.001, decay_step=0.5, value_cap=450.0)
LARGE = TrailParams(value_cap=1e15)  # a bump from 30 on reaches 10 + e^30 / 1000, about 1.07e10


def decimal_increase(old: float, params: TrailParams) -> float:
    """High-precision oracle for the increase law, below the clamps."""
    getcontext().prec = 50
    value = Decimal(params.increase_base) + Decimal(params.increase_scale) * Decimal(old).exp()
    return float(value)


def star_topology(leaves: int) -> Topology:
    edges = [Connection(i, 0, leaf) for i, leaf in enumerate(range(1, leaves + 1))]
    return Topology(roles=[NodeRole.ROUTER] + [NodeRole.WORKSTATION] * leaves, edges=edges)


def star_state(values, cell_type=1, params=None) -> TrailState:
    topo = star_topology(len(values))
    state = TrailState(topo, params or TrailParams(), cell_types=3)
    for idx, value in enumerate(values):
        state.values[idx, cell_type] = value  # node 0 owns slots 0..len-1, leaf idx + 1 at slot idx
    return state


def bump(old: float, params: TrailParams = PARAMS) -> float:
    """The increase law as the engine applies it: one traversal of a link holding `old`."""
    state = star_state([old], params=params)
    state.record_traversal(0, 1)
    return float(state.values[0, 1])


def fade(old: float, params: TrailParams = PARAMS) -> float:
    """The decay law as the engine applies it: one step of fade on a link holding `old`."""
    state = star_state([old], params=params)
    state.decay_all()
    return float(state.values[0, 1])


def selection_probabilities(values) -> np.ndarray:
    """Analytic pick probabilities implied by the reference roulette weights."""
    weights = np.array(roulette_weights(values))
    return weights / weights.sum()


class TestIncrease:
    def test_fresh_entry(self):
        assert bump(0.0, PARAMS) == pytest.approx(10.001, abs=1e-12)

    def test_second_visit_matches_decimal_oracle(self):
        first = bump(0.0, PARAMS)
        second = bump(first, PARAMS)
        assert second == pytest.approx(decimal_increase(first, PARAMS), rel=1e-6)
        assert 32.0 < second < 32.1

    def test_matches_closed_form_below_clamp_to_1e9(self):
        rng = np.random.default_rng(1)
        for old in rng.uniform(0.0, 29.0, size=500):
            got = bump(float(old), PARAMS)
            if got < PARAMS.value_cap:
                want = decimal_increase(float(old), PARAMS)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_exponent_clamp_engages(self):
        capped = bump(PARAMS.exponent_cap + 100.0, PARAMS)
        expected = min(
            PARAMS.increase_base + PARAMS.increase_scale * math.exp(PARAMS.exponent_cap),
            PARAMS.value_cap,
        )
        assert capped == expected

    def test_value_cap_engages(self):
        params = TrailParams(value_cap=20.0)
        assert bump(29.0, params) == 20.0

    @given(a=st.floats(0, 29), b=st.floats(0, 29))
    @settings(max_examples=100)
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert bump(lo, PARAMS) <= bump(hi, PARAMS)

    def test_convex_increasing_on_a_grid(self):
        # Below the value cap, which engages near ln((cap - base) / scale).
        top = math.log((PARAMS.value_cap - PARAMS.increase_base) / PARAMS.increase_scale)
        grid = np.linspace(0.0, top - 0.1, 200)
        values = [bump(float(x), PARAMS) for x in grid]
        diffs = np.diff(values)
        assert (diffs > 0).all()
        assert (np.diff(diffs) > -1e-12).all()


class TestDecay:
    def test_plain_step(self):
        assert fade(10.0, PARAMS) == 8.0

    def test_clamps_at_zero(self):
        assert fade(1.0, PARAMS) == 0.0

    def test_zero_is_a_fixed_point(self):
        assert fade(0.0, PARAMS) == 0.0

    def test_affine_with_unit_slope_above_clamp(self):
        for v in np.linspace(2.0, 50.0, 25):
            assert fade(float(v) + 1.0, PARAMS) - fade(float(v), PARAMS) == pytest.approx(1.0)

    def test_fresh_mark_fades_in_the_expected_number_of_steps(self):
        value = bump(0.0, PARAMS)
        steps = 0
        while value > 0:
            value = fade(value, PARAMS)
            steps += 1
        assert steps == math.ceil(bump(0.0, PARAMS) / PARAMS.decay_step)

    @given(v=st.floats(0, 1e6))
    @settings(max_examples=200)
    def test_never_negative_never_changes_zero(self, v):
        out = fade(v, PARAMS)
        assert out >= 0.0
        if v == 0.0:
            assert out == 0.0


@st.composite
def fade_programs(draw):
    """A topology and trail state with values seeded before the first fade,
    then a run of bumps, rolled-back bumps, fades and decay overrides; big
    bump batches cross into the full pass."""
    graph_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    topology, _ = random_connected_graph(graph_rng, max_nodes=16)
    cell_types = draw(st.integers(1, 3))
    params = draw(st.sampled_from([PARAMS, SHIPPED, TrailParams(decay_step=0.3)]))
    entries = int(topology.adj_indptr[-1]) * cell_types
    pair = st.tuples(st.integers(0, int(topology.adj_indptr[-1]) - 1), st.integers(1, cell_types))
    value = st.sampled_from([0.0, 0.25, 1.0, 2.0, 3.7, 12.5, 450.0, 1e6])
    seeded = draw(st.lists(st.tuples(pair, value), max_size=entries))
    op = st.one_of(
        st.tuples(st.just("bump"), st.lists(pair, unique=True, max_size=entries)),
        st.tuples(st.just("undo"), st.lists(pair, unique=True, min_size=1, max_size=4)),
        st.tuples(st.just("fade")),
        st.tuples(st.just("override"), st.integers(0, topology.node_count - 1), st.sampled_from([0.05, 0.7, 9.0])),
    )
    ops = draw(st.lists(op, max_size=30)) + [("fade",)]
    return topology, cell_types, params, seeded, ops


class TestTrackedFade:
    @given(program=fade_programs())
    @settings(max_examples=300, deadline=None)
    def test_tracked_fade_equals_the_full_pass(self, program):
        topology, cell_types, params, seeded, ops = program
        state = TrailState(topology, params, cell_types)
        for (slot, ctype), value in seeded:
            state.values[slot, ctype] = value
        steps = np.full(len(state.values), params.decay_step)
        indptr = topology.adj_indptr
        for op, *args in ops:
            if op == "fade":
                want = np.maximum(state.values - steps[:, None], 0.0)
                state.decay_all()
                assert np.array_equal(state.values, want)
            elif op == "override":
                node, step = args
                state.set_node_decay_step(node, step)
                steps[indptr[node] : indptr[node + 1]] = step
            else:
                slots, types = np.array(args[0], dtype=np.int64).reshape(-1, 2).T
                old = state.values[slots, types]
                state.record_traversal(slots, types)
                if op == "undo":  # the engine's rollback of its own bumps
                    state.values[slots, types] = old

    def test_falls_back_to_the_full_pass_for_good(self):
        state = star_state([0.0] * 8)
        share = math.ceil(_FULL_PASS_SHARE * state.values.size)
        state.record_traversal(np.arange(share - 1), 1)
        state.decay_all()
        assert not state.full_pass
        state.record_traversal(share - 1, 1)
        state.decay_all()
        assert state.full_pass
        for _ in range(10):
            state.decay_all()
        assert state.full_pass and not state.values.any()


class TestRecordTraversal:
    def test_single_traversal_sets_exactly_one_entry(self):
        state = star_state([0, 0, 0])
        slot = 1  # node 0 to leaf 2
        state.record_traversal(slot, cell_types=1)
        assert state.values[slot, 1] == pytest.approx(trail_increase(0.0, PARAMS))
        nonzero = np.nonzero(state.values)
        assert len(nonzero[0]) == 1

    def test_double_traversal_composes_the_increase(self):
        state = star_state([0, 0])
        slot = 0  # node 0 to leaf 1
        state.record_traversal(slot, 1)
        state.record_traversal(slot, 1)
        assert state.values[slot, 1] == pytest.approx(
            trail_increase(trail_increase(0.0, PARAMS), PARAMS)
        )

    def test_types_are_isolated(self):
        state = star_state([0, 0])
        slot = 0  # node 0 to leaf 1
        state.record_traversal(slot, cell_types=2)
        assert state.values[slot, 1] == 0.0
        assert state.values[slot, 3] == 0.0

    def test_foreign_connection_rejected(self):
        state = star_state([0, 0])
        for foreign in (-1, len(state.values), 99):  # slots outside 0..slots-1
            with pytest.raises(ValueError):
                state.record_traversal(foreign, 1)

    def test_decay_all_touches_every_entry_and_respects_overrides(self):
        state = star_state([10.0, 5.0, 0.5])
        state.set_node_decay_step(0, 4.0)
        state.decay_all()
        assert list(state.values[:3, 1]) == [6.0, 1.0, 0.0]  # node 0 owns slots 0-2

    def test_setters_reject_unknown_nodes_and_bad_steps(self):
        state = star_state([0.0, 0.0])  # nodes 0..2
        for set_unknown in (
            lambda: state.set_node_decay_step(-1, 2.0),
            lambda: state.set_node_decay_step(3, 2.0),
            lambda: state.set_bridge_fallback([-1]),
            lambda: state.set_bridge_fallback([0, 3]),
        ):
            with pytest.raises(TopologyError, match="unknown node"):
                set_unknown()
        for step in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="decay_step"):
                state.set_node_decay_step(0, step)
        assert not state.bridge_fallback.any()
        state.values[0, 1] = 5.0
        state.decay_all()
        assert state.values[0, 1] == 5.0 - PARAMS.decay_step

    def test_values_stay_within_bounds_under_random_operation_sequences(self):
        params = TrailParams(value_cap=50.0)
        state = star_state([0, 0, 0, 0], params=params)
        rng = np.random.default_rng(17)
        for _ in range(3000):
            if rng.random() < 0.7:
                leaf = int(rng.integers(1, 5))
                state.record_traversal(leaf - 1, int(rng.integers(1, 4)))
            else:
                state.decay_all()
            assert (state.values >= 0.0).all()
            assert (state.values <= params.value_cap).all()


def draw_from_node_0(state: TrailState, trials: int, rng) -> np.ndarray:
    """`trials` type-1 picks at node 0 in one call: the same draws, in order,
    as one call per pick, since no bump happens in between."""
    return state.select_next_hop(np.zeros(trials, dtype=np.int64), np.ones(trials, dtype=np.int64), rng)


class TestSelection:
    def test_worked_weight_partition(self):
        # Trail values (1, 5, 10, 100) produce integer weights (100, 96, 91, 1)
        # over a total of 288: the stalest link dominates and the hottest link
        # keeps exactly one slot.
        weights = roulette_weights([1.0, 5.0, 10.0, 100.0])
        assert list(weights) == [100, 96, 91, 1]
        assert sum(weights) == 288
        probabilities = selection_probabilities([1.0, 5.0, 10.0, 100.0])
        assert probabilities[0] > probabilities[1] > probabilities[2] > probabilities[3]
        assert probabilities[3] == pytest.approx(1 / 288)

    def test_equal_values_select_uniformly(self):
        state = star_state([7.0, 7.0, 7.0])
        rng = np.random.default_rng(11)
        trials = 90_000
        counts = np.bincount(state.topology.adj_neighbors[draw_from_node_0(state, trials, rng)], minlength=4)
        for leaf in (1, 2, 3):
            assert abs(counts[leaf] / trials - 1 / 3) < 0.01

    def test_selection_monotone_in_trail_value(self):
        probabilities = selection_probabilities([0.0, 3.0, 3.0, 9.0])
        assert probabilities[0] >= probabilities[1] == probabilities[2] >= probabilities[3]

    def test_empirical_frequencies_match_analytic_weights_within_3_sigma(self):
        values = [1.0, 5.0, 10.0, 100.0]
        state = star_state(values)
        expected = selection_probabilities(values)
        rng = np.random.default_rng(42)
        trials = 1_000_000
        counts = np.bincount(state.topology.adj_neighbors[draw_from_node_0(state, trials, rng)], minlength=5)
        for idx, p in enumerate(expected):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[idx + 1] / trials - p) <= 3 * sigma

    def test_bridge_fallback_is_uniform_regardless_of_values(self):
        state = star_state([0.0, 50.0, 900.0])
        state.set_bridge_fallback([0])
        rng = np.random.default_rng(3)
        trials = 90_000
        counts = np.bincount(state.topology.adj_neighbors[draw_from_node_0(state, trials, rng)], minlength=4)
        for leaf in (1, 2, 3):
            assert abs(counts[leaf] / trials - 1 / 3) < 0.01

    def test_isolated_node_rejected(self):
        topo = Topology(
            roles=[NodeRole.ROUTER, NodeRole.ROUTER, NodeRole.WORKSTATION],
            edges=[Connection(0, 0, 1)],
        )
        state = TrailState(topo, TrailParams(), cell_types=1)
        with pytest.raises(ValueError):
            state.select_next_hop(np.array([2]), np.array([1]), np.random.default_rng(0))

    def test_selection_interval_enumeration(self):
        # Walk the entire integer roulette range through a stub rng and check
        # that each link gets exactly its weight's worth of outcomes.
        values = [1.0, 5.0, 10.0, 100.0]
        state = star_state(values)
        weights = roulette_weights(values)

        class StubRng:
            def __init__(self, pick):
                self.pick = pick

            def integers(self, low, high):
                assert low == 1 and high.tolist() == [sum(weights) + 1]
                return np.array([self.pick])

        tally = np.zeros(5, dtype=int)
        one = np.array([0]), np.array([1])  # a type-1 pick at node 0
        for pick in range(1, sum(weights) + 1):
            tally[state.topology.adj_neighbors[state.select_next_hop(*one, StubRng(pick))]] += 1
        assert list(tally[1:]) == list(weights)


def replayed_picks(rng, totals: np.ndarray) -> np.ndarray:
    """Draws from [1, total], in order, from `_lemire_picks` where it flags
    nothing: one 32-bit value read ahead per total above 1, and a draw
    flagged exceptional taken from `rng` itself, once the stream is rewound
    and the values before it are drawn again."""
    picks = np.ones(len(totals), dtype=np.int64)
    start = 0
    while True:
        drawing = start + np.flatnonzero(totals[start:] > 1)
        saved = rng.bit_generator.state
        values = rng.integers(0, 1 << 32, size=len(drawing), dtype=np.uint64)
        got, exceptional = _lemire_picks(values, totals[drawing])
        settled = int(exceptional.argmax()) if exceptional.any() else len(drawing)
        picks[drawing[:settled]] = got[:settled]
        if settled == len(drawing):
            return picks
        rng.bit_generator.state = saved
        rng.integers(0, 1 << 32, size=settled, dtype=np.uint64)
        end = int(drawing[settled])
        picks[end] = rng.integers(1, totals[end : end + 1] + 1)[0]
        start = end + 1


class TestBatchedDrawFacts:
    """What the batched node-checker moves rely on, pinned for this numpy."""

    def test_array_integers_equal_the_scalar_sequence(self):
        highs = np.random.default_rng(5).integers(1, 400, size=500)
        batch, scalar = np.random.default_rng(8), np.random.default_rng(8)
        drawn = batch.integers(1, highs + 1)
        assert drawn.tolist() == [int(scalar.integers(1, high + 1)) for high in highs.tolist()]
        assert batch.bit_generator.state == scalar.bit_generator.state

    def test_one_based_draw_consumes_as_the_zero_based_one(self):
        for degree in range(1, 30):
            zero, one = np.random.default_rng(degree), np.random.default_rng(degree)
            before = zero.bit_generator.state
            assert int(one.integers(1, degree + 1)) == int(zero.integers(0, degree)) + 1
            assert one.bit_generator.state == zero.bit_generator.state
            if degree == 1:
                assert zero.bit_generator.state == before

    def test_block_rewound_and_redrawn_equals_scalar_draws(self):
        for used in (0, 1, 7, 13, 20):
            block, scalar = np.random.default_rng(21), np.random.default_rng(21)
            saved = block.bit_generator.state
            draws = block.random(20)
            block.bit_generator.state = saved
            block.random(used)
            assert draws[:used].tolist() == [scalar.random() for _ in range(used)]
            assert block.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("params", [PARAMS, SHIPPED, LARGE])
    def test_array_bump_equals_trail_increase(self, params):
        old = np.random.default_rng(13).uniform(0.0, params.exponent_cap, size=10_000)
        state = TrailState(star_topology(len(old)), params, cell_types=1)
        slots = np.arange(len(old))  # node 0's links
        state.values[slots, 1] = old
        new = state.record_traversal(slots, np.ones(len(old), dtype=np.int64))
        assert state.values[slots, 1].tolist() == [trail_increase(v, params) for v in old.tolist()]
        assert np.array_equal(new, state.values[slots, 1])

    @pytest.mark.parametrize("params", [PARAMS, SHIPPED, LARGE])
    def test_bump_at_the_exp_bounds_equals_trail_increase(self, params):
        # Only old values strictly between 0 and the exponent cap call math.exp.
        cap = params.exponent_cap
        old = [0.0, 5e-324, math.nextafter(cap, 0.0), cap, cap + 1.0, params.value_cap]
        state = TrailState(star_topology(len(old)), params, cell_types=1)
        slots = np.arange(len(old))
        state.values[slots, 1] = old
        new = state.record_traversal(slots, np.ones(len(old), dtype=np.int64))
        expected = np.array([trail_increase(v, params) for v in old])
        assert new.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert state.values[slots, 1].tolist() == new.tolist()

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "totals",
        [
            lambda rng: rng.integers(1, 61, size=400),
            lambda rng: rng.integers(1, 4_000_000_000, size=400),  # rejections are common
            lambda rng: rng.choice([1, 2, 59, 2**32 - 1, 2**32, 2**32 + 1], size=400),
            lambda rng: rng.integers(1, 10**15, size=400),  # the 64-bit branch
        ],
        ids=["small", "below-2^32", "around-2^32", "up-to-1e15"],
    )
    def test_replayed_draws_equal_array_integers(self, totals, buffered):
        for seed in range(5):
            totals_now = totals(np.random.default_rng(100 + seed))
            replay, direct = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:
                replay.integers(0, 7)
                direct.integers(0, 7)
            assert replay.bit_generator.state["has_uint32"] == buffered
            assert replayed_picks(replay, totals_now).tolist() == direct.integers(1, totals_now + 1).tolist()
            assert replay.bit_generator.state == direct.bit_generator.state

    def test_repeated_pair_rejected(self):
        state = star_state([0, 0])
        with pytest.raises(ValueError):
            state.record_traversal(np.array([0, 1, 0]), np.array([1, 1, 1]))
        state.record_traversal(np.array([0, 0]), np.array([1, 2]))


def with_leaf_and_hole(pairs, n) -> Topology:
    """The graph of `pairs` on nodes 0..n-1, plus node n, a leaf of node 0,
    and node n + 1, which has no links."""
    return Topology(
        roles=[NodeRole.GATEWAY] + [NodeRole.WORKSTATION] * (n + 1),
        edges=[Connection(i, u, v) for i, (u, v) in enumerate(pairs + [(0, n)])],
    )


@st.composite
def node_checker_states(draw):
    """An engine topology with a degree-1 leaf and an isolated node, and node
    checkers placed on a few nodes so that (node, type) keys repeat in id order."""
    graph_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree, pairs = random_connected_graph(graph_rng, max_nodes=12)
    n = tree.node_count
    topology = with_leaf_and_hole(pairs, n)
    cell_types = draw(st.integers(1, 3))
    per_type = draw(st.integers(1, 6))
    crowd = draw(st.lists(st.integers(0, n + 1), min_size=1, max_size=4))
    count = cell_types * per_type
    locs = draw(st.lists(st.sampled_from(crowd), min_size=count, max_size=count))
    fallback = draw(st.lists(st.integers(0, n + 1), max_size=4))
    return topology, cell_types, per_type, locs, fallback


def node_checker_engine(topology, cell_types, per_type, locs, **overrides) -> Engine:
    config = SimulationConfig(
        topology=TopologyConfig(node_count=topology.node_count),
        cell_types=cell_types,
        packet_checkers_per_type=0,
        node_checkers_per_type=per_type,
        **overrides,
    )
    engine = Engine(config, topology=topology)
    engine.loc[engine.n_pc :] = locs
    return engine


def trail_engine(setup, params, value_seed, seed, leaf_value) -> Engine:
    """A trails engine on a `node_checker_states` setup, its trail values on
    both sides of the exponent cap, with ties and zeros. Under LARGE, values
    near 1e9 and 1e10 make totals near and above 2^32: rejected 32-bit values
    and 64-bit draws. A `leaf_value` is put on the leaf's link."""
    topology, cell_types, per_type, locs, fallback = setup
    engine = node_checker_engine(
        topology, cell_types, per_type, locs, strategy="trails", trail_params=params, seed=seed
    )
    state = engine.trail_state
    state.set_bridge_fallback(fallback)
    marks = [0.0, 1.0, 12.5, 29.0, 31.0, 400.0, 450.0]
    if params is LARGE:
        marks += [1e9, 1.2e9, 1.5e9, 2e9, 3e9, 1e10]
    value_rng = np.random.default_rng(value_seed)
    shape = state.values.shape
    picked = value_rng.choice(marks, size=shape)
    state.values[:] = np.where(value_rng.random(shape) < 0.5, picked, value_rng.uniform(0, 40, shape))
    if leaf_value is not None:
        state.values[topology.adj_indptr[topology.node_count - 2]] = leaf_value
    return engine


def sequential_trail_moves(topology, state, locs, types, rng):
    """One roulette pick and one bump per checker, in id order. Also returns
    the ids of the checkers whose draw took other than one 32-bit value."""
    values, locs, exceptional = state.values.copy(), list(locs), []
    indptr = topology.adj_indptr.tolist()
    for i, (node, ctype) in enumerate(zip(locs, types)):
        start, end = indptr[node], indptr[node + 1]
        if start == end:
            continue
        before, one_value = rng.bit_generator.state, copy.deepcopy(rng)
        one_value.integers(0, 1 << 32, dtype=np.uint64)
        if state.bridge_fallback[node]:
            slot = start + int(rng.integers(0, end - start))
        else:
            slot = start + roulette_pick(values[start:end, ctype].tolist(), rng)
        if rng.bit_generator.state not in (before, one_value.bit_generator.state):
            exceptional.append(i)
        values[slot, ctype] = trail_increase(float(values[slot, ctype]), state.params)
        locs[i] = int(topology.adj_neighbors[slot])
    return locs, values, exceptional


def sequential_uninformed_moves(topology, locs, base, rng):
    """The resting-rate wander: a move draw, then a neighbour draw if it moves."""
    locs = list(locs)
    indptr = topology.adj_indptr.tolist()
    for i, node in enumerate(locs):
        start, end = indptr[node], indptr[node + 1]
        if start == end or rng.random() >= base:
            continue
        locs[i] = int(topology.adj_neighbors[start + int(rng.random() * (end - start))])
    return locs


# Checkers 0 and 1 share node 0 of a triangle, checker 2 stands on node 1.
# Checker 0's bump takes a link from 29 to about 3.9e9, so checker 1, of
# rank 1, draws from a total above 2^32: the first exceptional draw, found
# after checker 2, of rank 0, has been bumped, so that bump must be rolled
# back.
CROSSING = dict(
    setup=(with_leaf_and_hole([(0, 1), (0, 2), (1, 2)], 3), 1, 3, [0, 0, 1], []),
    params=LARGE,
    value_seed=2,
    seed=1,
    leaf_value=None,
)


class TestNodeCheckerMovesMatchSequentialLoop:
    @given(
        setup=node_checker_states(),
        params=st.sampled_from([PARAMS, SHIPPED, LARGE]),
        value_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 99),
        leaf_value=st.sampled_from([None, 1.03]),
    )
    # Same-type checkers stacked on the leaf (node 2), where 1.03 weighs 2,
    # so the first of them draws, with a draw at node 0 after them.
    @example(
        setup=(with_leaf_and_hole([(0, 1)], 2), 1, 5, [2, 2, 0, 2, 0], []),
        params=PARAMS,
        value_seed=0,
        seed=0,
        leaf_value=1.03,
    )
    @example(**CROSSING)
    @settings(max_examples=150, deadline=None)
    def test_trail_moves_equal_one_pick_per_checker(self, setup, params, value_seed, seed, leaf_value):
        engine = trail_engine(setup, params, value_seed, seed, leaf_value)
        topology, state = engine.topology, engine.trail_state
        types = engine.cell_type[engine.n_pc :].tolist()
        for _ in range(3):
            rng = copy.deepcopy(engine._rng_selection)
            before = engine.loc[engine.n_pc :].tolist()
            want_locs, want_values, _ = sequential_trail_moves(topology, state, before, types, rng)
            engine._move_node_checkers()
            assert engine.loc[engine.n_pc :].tolist() == want_locs
            assert np.array_equal(state.values, want_values)
            assert engine._rng_selection.bit_generator.state == rng.bit_generator.state
            state.decay_all()

    def test_crossing_example_rolls_back_a_bump_of_an_earlier_round(self):
        engine = trail_engine(**CROSSING)
        locs, types = engine.loc[engine.n_pc :].tolist(), engine.cell_type[engine.n_pc :].tolist()
        rng = copy.deepcopy(engine._rng_selection)
        _, _, exceptional = sequential_trail_moves(engine.topology, engine.trail_state, locs, types, rng)
        keys = list(zip(locs, types))
        first = exceptional[0]
        assert keys[:first].count(keys[first]) == 1
        degrees = engine.topology.degrees
        assert any(keys[:j].count(keys[j]) == 0 and degrees[locs[j]] > 1 for j in range(first + 1, len(keys)))

    def test_repeated_keys_move_in_rounds_without_the_replay(self, monkeypatch):
        # Repeated keys at the hub and on leaf 1, no leaf total above 1 and
        # no exceptional draw: `move` must not fall back to `select_next_hop`.
        topology = star_topology(4)
        state = TrailState(topology, SHIPPED, cell_types=2)
        state.values[:4, 1:] = np.random.default_rng(3).uniform(0.0, 450.0, size=(4, 2))
        nodes = np.array([0, 1, 0, 0, 2, 0, 1, 0, 3, 0, 1])
        types = np.array([1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 1])
        rng = np.random.default_rng(4)
        want = copy.deepcopy(rng)
        want_locs, want_values, exceptional = sequential_trail_moves(topology, state, nodes, types, want)
        assert exceptional == []

        def refuse(*args):
            raise AssertionError("move replayed the call one mover at a time")

        monkeypatch.setattr(state, "select_next_hop", refuse)
        slots, bumped = state.move(nodes, types, rng)
        assert topology.adj_neighbors[slots].tolist() == want_locs
        assert np.array_equal(state.values, want_values)
        assert rng.bit_generator.state == want.bit_generator.state
        # Each pair's last bump leaves the value the pair ends with.
        last = len(slots) - 1 - np.unique((slots * 3 + types)[::-1], return_index=True)[1]
        assert bumped[last].tolist() == want_values[slots[last], types[last]].tolist()

    @given(setup=node_checker_states(), base=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_uninformed_moves_equal_one_decision_per_checker(self, setup, base, seed):
        topology, cell_types, per_type, locs, _ = setup
        engine = node_checker_engine(
            topology, cell_types, per_type, locs, movement=MovementParams(base, 0.05, 1.0), seed=seed
        )
        for _ in range(3):
            rng = copy.deepcopy(engine._rng_selection)
            before = engine.loc[engine.n_pc :].tolist()
            want_locs = sequential_uninformed_moves(topology, before, base, rng)
            engine._move_node_checkers()
            assert engine.loc[engine.n_pc :].tolist() == want_locs
            assert engine._rng_selection.bit_generator.state == rng.bit_generator.state
