"""Cell security accounting and the per-cell movement decision of the
reference model (tests/reference_model.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_model import (
    NODE_CHECKER,
    PACKET_CHECKER,
    Cell,
    NotificationPacket,
    decide_move,
    movement_probability,
    node_security,
)

from sentinet import Connection, MovementParams


def _pc(cell_id=0):
    return Cell(cell_id, 1, PACKET_CHECKER, 0)


def _nc(cell_id=0):
    return Cell(cell_id, 1, NODE_CHECKER, 0)


NEIGHBORS = [
    (Connection(0, 0, 1), 1),
    (Connection(1, 0, 2), 2),
    (Connection(2, 0, 3), 3),
    (Connection(3, 0, 4), 4),
]


class TestNodeSecurity:
    def test_three_unit_cells_sum_to_three(self):
        cells = [_pc(i) for i in range(3)]
        assert node_security(cells) == 3.0

    def test_empty_node_has_zero_security(self):
        assert node_security([]) == 0.0

    def test_twenty_five_cells_meet_a_requirement_of_twenty(self):
        cells = [_pc(i) for i in range(25)]
        assert node_security(cells) >= 20.0

    def test_node_checkers_do_not_count(self):
        cells = [_pc(0), _nc(1), _nc(2)]
        assert node_security(cells) == 1.0

    def test_heterogeneous_contributions(self):
        cells = [_pc(0), _pc(1), _nc(2)]
        assert node_security(cells, security_value=1.5) == 3.0


class TestMovementProbability:
    def test_zero_lacking_gives_base(self):
        params = MovementParams(0.1, 0.05, 0.8)
        assert movement_probability(params, 0.0) == 0.1

    def test_cap_reached(self):
        params = MovementParams(0.1, 0.05, 0.8)
        assert movement_probability(params, 20.0) == 0.8

    def test_huge_lacking_saturates_exactly(self):
        params = MovementParams(0.1, 0.05, 0.8)
        assert movement_probability(params, 1e9) == 0.8

    def test_linear_region(self):
        params = MovementParams(0.1, 0.05, 0.8)
        assert movement_probability(params, 4.0) == pytest.approx(0.3)

    def test_negative_lacking_rejected(self):
        with pytest.raises(ValueError):
            movement_probability(MovementParams(), -1.0)

    @given(
        base=st.floats(0, 1),
        spread=st.floats(0, 1),
        gain=st.floats(0, 10),
        a=st.floats(0, 1e6),
        b=st.floats(0, 1e6),
    )
    @settings(max_examples=200)
    def test_monotone_and_clamped(self, base, spread, gain, a, b):
        top = base + (1 - base) * spread
        params = MovementParams(base, gain, top)
        lo, hi = sorted((a, b))
        p_lo, p_hi = movement_probability(params, lo), movement_probability(params, hi)
        assert base <= p_lo <= p_hi <= top


class TestDecideMove:
    def test_pinned_at_deficient_node_for_any_rng(self):
        params = MovementParams(1.0, 0.0, 1.0)  # would always move
        for seed in range(50):
            rng = np.random.default_rng(seed)
            note = NotificationPacket(7, 5.0, NEIGHBORS[0][0])
            assert decide_move(_pc(), params, 5.0, NEIGHBORS, note, None, rng.random) is None

    def test_notified_mover_follows_the_arrival_link(self):
        params = MovementParams(0.0, 1.0, 1.0)  # moves iff notified
        note = NotificationPacket(7, 3.0, NEIGHBORS[2][0])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            chosen = decide_move(_pc(), params, 0.0, NEIGHBORS, note, None, rng.random)
            assert chosen is NEIGHBORS[2][0]

    def test_unnotified_fallback_is_uniform(self):
        params = MovementParams(1.0, 0.0, 1.0)
        rng = np.random.default_rng(123)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        trials = 100_000
        for _ in range(trials):
            conn = decide_move(_pc(), params, 0.0, NEIGHBORS, None, None, rng.random)
            counts[conn.other(0)] += 1
        for nbr in counts:
            assert abs(counts[nbr] / trials - 0.25) < 0.01

    def test_resting_rate_when_unnotified(self):
        # Off trails, node checkers wander at the resting rate too.
        params = MovementParams(0.25, 0.05, 0.8)
        for cell in (_pc(), _nc()):
            rng = np.random.default_rng(7)
            moved = sum(
                decide_move(cell, params, 0.0, NEIGHBORS, None, None, rng.random) is not None
                for _ in range(40_000)
            )
            assert abs(moved / 40_000 - 0.25) < 0.01

    def test_isolated_node_always_stays(self):
        rng = np.random.default_rng(0)
        assert decide_move(_pc(), MovementParams(1.0, 1.0, 1.0), 0.0, [], None, None, rng.random) is None

    def test_node_checker_always_moves(self):
        # On trails a node checker leaves every step, whatever the resting rate.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            pick = lambda: NEIGHBORS[int(rng.integers(0, 4))][0]  # noqa: E731
            still = MovementParams(0.0, 0.0, 0.0)
            assert decide_move(_nc(), still, 0.0, NEIGHBORS, None, pick, rng.random) is not None

    def test_node_checker_uses_trail_selector(self):
        rng = np.random.default_rng(0)
        pick = lambda: NEIGHBORS[3][0]  # noqa: E731
        assert decide_move(_nc(), MovementParams(), 0.0, NEIGHBORS, None, pick, rng.random) is NEIGHBORS[3][0]

    def test_node_checker_ignores_pinning(self):
        rng = np.random.default_rng(0)
        restless = MovementParams(1.0, 0.0, 1.0)
        assert decide_move(_nc(), restless, 9.0, NEIGHBORS, None, None, rng.random) is not None
