"""Engine behavior: phase order, determinism, conservation, baselines."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinet import (
    Cell,
    CellKind,
    ConfigError,
    Connection,
    Engine,
    MovementParams,
    NodeRole,
    NotificationView,
    NotifyParams,
    SimulationConfig,
    Topology,
    TopologyConfig,
    TopologyError,
    TrafficConfig,
    TrailParams,
    decide_move,
    plan_rebalance,
)


def small_config(**overrides) -> SimulationConfig:
    base = dict(
        topology=TopologyConfig(node_count=30, seed=7),
        cell_types=4,
        packet_checkers_per_type=8,
        node_checkers_per_type=1,
        min_security=2.0,
        movement=MovementParams(0.2, 0.1, 0.8),
        traffic=TrafficConfig(
            packets_per_step=2, infection_probability=0.5, internal_attack_rate=1.0
        ),
        strategy="protocols",
        duration=60,
        seed=3,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def single_node_topology() -> Topology:
    return Topology(roles=[NodeRole.GATEWAY], edges=[])


def path_topology() -> Topology:
    roles = [NodeRole.GATEWAY, NodeRole.ROUTER, NodeRole.WORKSTATION]
    return Topology(roles=roles, edges=[Connection(0, 0, 1), Connection(1, 1, 2)])


def island_topology() -> Topology:
    """A path from the gateway plus node 3, which has no link at all."""
    roles = [NodeRole.GATEWAY, NodeRole.ROUTER, NodeRole.WORKSTATION, NodeRole.WORKSTATION]
    return Topology(roles=roles, edges=[Connection(0, 0, 1), Connection(1, 1, 2)])


class TestConfigValidation:
    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration"):
            Engine(small_config(duration=0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigError, match="packet_checkers_per_type"):
            Engine(small_config(packet_checkers_per_type=-1))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (dict(min_security=float("nan")), "min_security"),
            (dict(min_security_by_role={NodeRole.SERVER: float("inf")}), "min_security_server"),
            (dict(min_security_by_node={3: float("nan")}), "min_security_by_node"),
            (dict(notify_params=NotifyParams(forward_threshold=-3.0)), "notify: forward_threshold"),
            (dict(seed=-1), "seed"),
            (dict(traffic=TrafficConfig(internal_attack_rate=float("nan"))), "traffic: internal_attack_rate"),
            (dict(traffic=TrafficConfig(infections_per_step=float("inf"))), "traffic: infections_per_step"),
            (dict(movement=MovementParams(gain=float("inf"))), "movement: gain"),
            (dict(trail_params=TrailParams(decay_step=float("nan"))), "trails: decay_step"),
            (dict(trail_params=TrailParams(value_cap=float("inf"))), "trails: value_cap"),
            (
                dict(topology=TopologyConfig(node_count=30, seed=7, backbone_redundancy=float("nan"))),
                "topology: backbone_redundancy",
            ),
            (dict(security_value=float("nan")), "security_value"),
            (dict(bridge_decay_step=float("inf")), "bridge_decay_step"),
            (dict(start_fragment=1), "start_fragment"),
        ],
    )
    def test_non_finite_and_out_of_range_rejected(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            Engine(small_config(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(strategy="uninformed"),
            dict(strategy="centralized", traffic=TrafficConfig()),
        ],
    )
    def test_node_unreachable_from_gateway_rejected(self, overrides):
        config = small_config(**overrides)
        with pytest.raises(TopologyError, match="node 3 is unreachable"):
            Engine(config, topology=island_topology())

    def test_island_allowed_without_traffic_or_manager(self):
        traffic = TrafficConfig(infection_probability=1.0, internal_attack_rate=1.0)
        report = Engine(small_config(traffic=traffic), topology=island_topology()).run()
        assert report.introduced_packets > 0

    def test_strategy_names(self):
        expected = {
            "uninformed": (False, False, False),
            "notification": (True, False, False),
            "trails": (False, True, False),
            "protocols": (True, True, False),
            "centralized": (False, False, True),
        }
        for name, flags in expected.items():
            engine = Engine(small_config(strategy=name))
            assert (engine.notification_on, engine.trails_on, engine.centralized) == flags
        with pytest.raises(ConfigError, match="strategy"):
            Engine(small_config(strategy="bogus"))

    def test_duration_one_produces_one_metrics_row(self):
        report = Engine(small_config(duration=1)).run()
        assert len(report.deficiency_series) == 1
        assert report.entity_counts.shape[0] == 1


class TestDeterminism:
    def test_identical_configs_give_identical_reports(self):
        a = Engine(small_config()).run()
        b = Engine(small_config()).run()
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(b.summary(), sort_keys=True)
        assert np.array_equal(a.deficiency_series, b.deficiency_series)
        assert np.array_equal(a.entity_counts, b.entity_counts)
        assert np.array_equal(a.check_times, b.check_times)

    def test_different_seeds_differ(self):
        a = Engine(small_config(seed=1)).run()
        b = Engine(small_config(seed=2)).run()
        assert not np.array_equal(a.entity_counts, b.entity_counts)

    def test_csv_and_json_bytes_identical(self, tmp_path):
        for tag in ("x", "y"):
            report = Engine(small_config()).run()
            report.write_json(tmp_path / f"{tag}.json")
            report.write_csv(tmp_path / f"{tag}.csv")
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


class TestSingleNode:
    def test_isolated_deficient_node_emits_nothing(self):
        config = SimulationConfig(
            cell_types=1,
            packet_checkers_per_type=5,
            node_checkers_per_type=0,
            min_security=20.0,
            strategy="notification",
            duration=10,
            seed=1,
        )
        report = Engine(config, topology=single_node_topology()).run()
        # Five cells against a requirement of twenty: deficient every step,
        # but with no links there is nowhere to send notifications.
        assert (report.deficiency_series == 1).all()
        assert report.notification_packets_total == 0
        assert (report.entity_counts.sum(axis=1) == 5).all()


class TestPhaseOrdering:
    def test_first_hop_same_step_second_hop_next_step(self):
        config = SimulationConfig(
            cell_types=1,
            packet_checkers_per_type=0,
            node_checkers_per_type=0,
            min_security=0.0,
            min_security_by_node={0: 5.0},
            strategy="notification",
            duration=5,
            seed=1,
        )
        engine = Engine(config, topology=path_topology())
        engine.step()
        # Emission in phase 3 of step 0 is on the wire in phase 4 of step 0.
        assert engine.notif_value[1] == 5.0
        assert engine.notif_value[2] == 0.0
        engine.step()
        assert engine.notif_value[1] == 5.0  # re-emitted every deficient step
        assert engine.notif_value[2] == 4.0  # relayed once, decremented once

    def test_notification_reach_stops_at_decayed_zero(self):
        config = SimulationConfig(
            cell_types=1,
            packet_checkers_per_type=0,
            node_checkers_per_type=0,
            min_security=0.0,
            min_security_by_node={0: 1.0},
            strategy="notification",
            duration=4,
            seed=1,
        )
        engine = Engine(config, topology=path_topology())
        for _ in range(4):
            engine.step()
        assert engine.notif_value[1] == 1.0
        assert engine.notif_value[2] == 0.0  # 1 decays to 0, never forwarded


class TestConservation:
    def test_cell_population_is_conserved(self):
        report = Engine(small_config()).run()
        totals = report.entity_counts.sum(axis=1)
        assert (totals == totals[0]).all()

    def test_packet_accounting_balances(self):
        engine = Engine(small_config(duration=40))
        engine.run()
        generated = engine.traffic_source._next_packet_id
        assert generated == engine.detected_packets + engine.delivered_packets + len(
            engine.in_flight
        )

    def test_infection_accounting_balances(self):
        engine = Engine(small_config(duration=80))
        report = engine.run()
        assert report.infections_created == report.infections_cleared + report.infections_active

    def test_detection_rate_in_unit_interval(self):
        report = Engine(small_config()).run()
        assert 0.0 <= report.detection_rate <= 1.0
        assert report.detected_packets + report.delivered_infected <= report.introduced_packets


class TestBandwidthInvariant:
    def test_per_link_direction_per_step_at_most_one(self):
        config = small_config(
            duration=120,
            min_security=3.0,
            strategy="notification",
        )
        report = Engine(config).run()
        assert report.notification_packets_total > 0
        assert report.max_link_load <= 1

    def test_uninformed_run_sends_no_notifications(self):
        report = Engine(small_config(strategy="uninformed")).run()
        assert report.notification_packets_total == 0
        assert report.control_bandwidth == 0


class TestPinning:
    def test_packet_checkers_freeze_at_deficient_nodes(self):
        # Every node is deficient forever: nobody may ever move.
        config = small_config(
            packet_checkers_per_type=2,
            node_checkers_per_type=0,
            min_security=50.0,
            strategy="notification",
            duration=30,
        )
        report = Engine(config).run()
        assert (report.entity_counts == report.entity_counts[0]).all()


class TestCentralized:
    def test_balanced_state_needs_no_moves(self):
        assert plan_rebalance(np.array([20, 20]), np.array([20.0, 20.0])) == []

    def test_simple_surplus_to_deficit(self):
        moves = plan_rebalance(np.array([30, 10]), np.array([20.0, 20.0]))
        assert moves == [(0, 1, 10)]

    def test_greedy_reaches_the_unavoidable_deficit_floor(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            counts = rng.integers(0, 40, size=n)
            required = rng.integers(0, 40, size=n).astype(float)
            moves = plan_rebalance(counts, required)
            final = counts.astype(int).copy()
            for src, dst, amount in moves:
                assert amount > 0
                final[src] -= amount
                final[dst] += amount
            assert (final >= 0).all()
            assert final.sum() == counts.sum()
            deficit = np.maximum(required - final, 0).sum()
            total_deficit = np.maximum(required - counts, 0).sum()
            total_surplus = np.maximum(counts - required, 0).sum()
            unavoidable = max(0.0, total_deficit - total_surplus)
            assert deficit == pytest.approx(unavoidable)

    def test_centralized_run_pays_distance_priced_bandwidth(self):
        config = small_config(
            strategy="centralized",
            min_security=3.0,
            duration=50,
        )
        report = Engine(config).run()
        assert report.control_bandwidth > 0
        assert report.notification_packets_total == 0

    def test_centralized_eliminates_reachable_deficits_each_step(self):
        config = small_config(
            strategy="centralized",
            min_security=3.0,
            duration=30,
        )
        engine = Engine(config)
        engine.run()
        counts = np.bincount(engine.loc[: engine.n_pc], minlength=engine.topology.node_count)
        security = counts * config.security_value
        total_deficit = np.maximum(engine.min_security_node - security, 0).sum()
        total_supply = engine.n_pc * config.security_value
        required = engine.min_security_node.sum()
        if total_supply >= required:
            assert total_deficit == 0


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


def reference_centralized_assign(engine):
    """Per-node pools of cell ids, moved one cell at a time."""
    n = engine.topology.node_count
    n_pc = engine.n_pc
    if n_pc == 0:
        return
    counts = np.bincount(engine.loc[:n_pc], minlength=n)
    required = engine.min_security_node / engine.config.security_value
    moves = reference_plan_rebalance(counts, required)
    by_node = {}
    for cid in np.argsort(engine.loc[:n_pc], kind="stable"):
        by_node.setdefault(int(engine.loc[cid]), []).append(int(cid))
    for src, dst, amount in moves:
        pool = by_node.setdefault(src, [])
        chosen = pool[:amount]
        del pool[:amount]
        for cid in chosen:
            engine.loc[cid] = dst
            ctype = int(engine.cell_type[cid])
            engine.pc_counts_by_type[src, ctype] -= 1
            engine.pc_counts_by_type[dst, ctype] += 1
            by_node.setdefault(dst, []).append(cid)
        engine.control_bandwidth += amount * 2.0 * int(engine._dist_from_gateway[src])


_tied_counts = st.one_of(st.integers(0, 40), st.sampled_from([0, 0, 1, 3]))
_tied_required = st.one_of(
    st.integers(0, 160).map(lambda q: q / 4), st.sampled_from([0.0, 1.0, 2.5, 3.0])
)


class TestRebalanceMatchesReference:
    @given(
        pairs=st.lists(st.tuples(_tied_counts, _tied_required), min_size=1, max_size=60)
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_equals_argmax_argmin_greedy(self, pairs):
        counts = np.array([c for c, _ in pairs], dtype=np.int64)
        required = np.array([r for _, r in pairs], dtype=np.float64)
        moves = plan_rebalance(counts, required)
        assert moves == reference_plan_rebalance(counts, required)
        assert all(type(x) is int for move in moves for x in move)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(min_security=3.0),
            dict(min_security=2.5, security_value=0.75),
            dict(min_security=1.0, min_security_by_role={NodeRole.ROUTER: 6.0}),
            dict(
                topology=TopologyConfig(node_count=40, fragment_count=2, seed=4),
                min_security=4.0,
                packet_checkers_per_type=12,
            ),
            dict(min_security=5.0, packet_checkers_per_type=6, start_nodes=[0, 1]),
            # Few crowded sources, each feeding many small deficits per step.
            dict(min_security=2.0, start_nodes=[0, 5, 9]),
            dict(min_security=1.0, start_nodes=[3]),
        ],
    )
    def test_assignment_equals_per_cell_pools(self, overrides):
        config = small_config(strategy="centralized", duration=25, **overrides)
        engine = Engine(config)
        reference = Engine(copy.deepcopy(config))
        reference._centralized_assign = lambda: reference_centralized_assign(reference)
        for _ in range(config.duration):
            engine.step()
            reference.step()
            assert np.array_equal(engine.loc, reference.loc)
        assert np.array_equal(engine.pc_counts_by_type, reference.pc_counts_by_type)
        assert engine.control_bandwidth == reference.control_bandwidth
        assert reference.control_bandwidth > 0


class ReplayRng:
    """Feeds decide_move the exact uniforms the engine consumed."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)

    def integers(self, low, high):  # pragma: no cover - decide_move never calls it here
        raise AssertionError("unexpected draw")


class TestVectorizedMovementMatchesPerCellDecision:
    @pytest.mark.parametrize("strategy", ["uninformed", "notification"])
    def test_engine_movement_equals_decide_move(self, strategy):
        config = small_config(strategy=strategy, duration=30, seed=11)
        engine = Engine(config)
        topo = engine.topology
        for _ in range(12):
            engine._phase_traffic()
            engine._phase_node_checks()
            engine._phase_security()
            engine._phase_relay()
            engine._phase_trail_decay()

            before = engine.loc[: engine.n_pc].copy()
            lacking = engine.lacking.copy()
            notif_value = engine.notif_value.copy()
            notif_from = engine.notif_from.copy()
            rng_copy = copy.deepcopy(engine._rng_movement)

            engine._move_packet_checkers()
            after = engine.loc[: engine.n_pc]

            u_move = rng_copy.random(engine.n_pc)
            u_dest = rng_copy.random(engine.n_pc)
            informed = engine.notification_on
            for cid in range(engine.n_pc):
                here = int(before[cid])
                cell = Cell(
                    cid,
                    int(engine.cell_type[cid]),
                    CellKind.PACKET_CHECKER,
                    here,
                    params=config.movement,
                )
                neighbors = topo.neighbors(here)
                view = None
                if informed and notif_value[here] > 0:
                    arrival = topo.connection_between(here, int(notif_from[here]))
                    view = NotificationView(float(notif_value[here]), arrival)
                chosen = decide_move(
                    cell,
                    float(lacking[here]) if informed else 0.0,
                    neighbors,
                    view,
                    None,
                    ReplayRng([u_move[cid], u_dest[cid]]),
                )
                expected = here if chosen is None else chosen.other(here)
                assert int(after[cid]) == expected, f"cell {cid} diverged"

            engine._entity_counts[engine.t] = np.bincount(
                engine.loc, minlength=topo.node_count
            )
            engine.t += 1


class TestConfigWiring:
    def test_role_based_requirements_apply(self):
        config = small_config(
            min_security=2.0,
            min_security_by_role={NodeRole.SERVER: 9.0, NodeRole.GATEWAY: 7.0},
        )
        engine = Engine(config)
        for node, role in enumerate(engine.topology.roles):
            expected = {NodeRole.SERVER: 9.0, NodeRole.GATEWAY: 7.0}.get(role, 2.0)
            assert engine.min_security_node[node] == expected

    def test_per_node_requirement_overrides_role(self):
        config = small_config(min_security=2.0, min_security_by_node={0: 11.0})
        engine = Engine(config)
        assert engine.min_security_node[0] == 11.0

    def test_start_fragment_places_every_cell_inside_it(self):
        config = small_config(
            topology=TopologyConfig(node_count=30, fragment_count=2, seed=7),
            start_fragment=0,
        )
        engine = Engine(config)
        fragments = engine.topology.fragment_of
        assert all(fragments[int(v)] == 0 for v in engine.loc)

    def test_bridge_fallback_marks_exactly_the_bridge_endpoints(self):
        config = small_config(
            topology=TopologyConfig(node_count=30, fragment_count=2, seed=7),
            strategy="trails",
            bridge_fallback=True,
            bridge_decay_step=5.0,
        )
        engine = Engine(config)
        bridge = engine.topology.bridge_edges[0]
        expected = set(bridge.endpoints())
        flagged = set(np.nonzero(engine.trail_state.bridge_fallback)[0].tolist())
        assert flagged == expected
        for node in expected:
            start = int(engine.topology.adj_indptr[node])
            end = int(engine.topology.adj_indptr[node + 1])
            assert (engine.trail_state._decay_steps[start:end] == 5.0).all()


class TestEngineRelayMatchesProtocolFunctions:
    def test_array_relay_equals_forward_step_delivery(self):
        from sentinet import NotificationInbox, NotificationPacket, forward_step

        config = small_config(
            strategy="notification",
            min_security=3.0,
            duration=25,
            seed=21,
        )
        engine = Engine(config)
        topo = engine.topology
        inboxes = [NotificationInbox() for _ in range(topo.node_count)]
        for _ in range(25):
            engine._phase_traffic()
            engine._phase_node_checks()
            engine._phase_security()

            sends = []
            for node in range(topo.node_count):
                own = None
                if engine.lacking[node] > 0:
                    own = NotificationPacket(node, float(engine.lacking[node]))
                sends.extend(
                    (node, conn, packet)
                    for conn, packet in forward_step(
                        node, topo.neighbors(node), inboxes[node], own, config.notify_params
                    )
                )
            for box in inboxes:
                box.clear()
            for sender, conn, packet in sends:
                inboxes[conn.other(sender)].add(packet)

            engine._phase_relay()
            for node in range(topo.node_count):
                best = inboxes[node].best
                if best is None:
                    assert engine.notif_value[node] == 0.0
                else:
                    assert engine.notif_value[node] == best.value
                    assert engine._notif_origin[node] == best.origin
                    assert engine._notif_link[node] == best.arrival.link_id
                    assert engine.notif_from[node] == best.arrival.other(node)

            engine._phase_trail_decay()
            engine._phase_movement()
            engine._entity_counts[engine.t] = np.bincount(
                engine.loc, minlength=topo.node_count
            )
            engine.t += 1


class TestMovementStreamIsolation:
    def test_toggling_trails_does_not_perturb_packet_checker_draws(self):
        # Node checker behavior differs between the arms, but packet checker
        # trajectories must match draw for draw.
        engine_a = Engine(small_config(strategy="protocols"))
        engine_b = Engine(small_config(strategy="notification"))
        for _ in range(25):
            engine_a.step()
            engine_b.step()
            assert np.array_equal(engine_a.loc[: engine_a.n_pc], engine_b.loc[: engine_b.n_pc])

    def test_toggling_notification_does_not_perturb_node_checker_draws(self):
        engine_a = Engine(small_config(strategy="protocols"))
        engine_b = Engine(small_config(strategy="trails"))
        for _ in range(25):
            engine_a.step()
            engine_b.step()
            assert np.array_equal(engine_a.loc[engine_a.n_pc :], engine_b.loc[engine_b.n_pc :])
