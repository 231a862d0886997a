"""Engine behavior: phase order, determinism, conservation, baselines."""

import copy
import json
import tempfile
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_model import (
    PACKET_CHECKER,
    Cell,
    NotificationPacket,
    ReferenceModel,
    adjacency,
    best,
    decide_move,
    emit_deficiency,
    reference_plan_rebalance,
    relay_step,
    with_isolated_node,
)

from sentinet import (
    ConfigError,
    Connection,
    Engine,
    MetricsReport,
    MovementParams,
    NodeRole,
    NotifyParams,
    SimulationConfig,
    Topology,
    TopologyConfig,
    TopologyError,
    TrafficConfig,
    TrailParams,
    generate_topology,
    plan_rebalance,
)
from sentinet.engine import STRATEGIES


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


@st.composite
def valid_configs(draw) -> SimulationConfig:
    """Small valid configs over every mechanism's knobs and all five strategies."""
    nodes = draw(st.integers(2, 20))
    fragments = draw(st.integers(1, 2)) if nodes >= 4 else 1
    return SimulationConfig(
        topology=TopologyConfig(
            node_count=nodes,
            fragment_count=fragments,
            backbone_redundancy=draw(st.sampled_from([0.0, 0.5, 1.0])),
            seed=draw(st.integers(0, 99)),
        ),
        cell_types=draw(st.integers(1, 4)),
        packet_checkers_per_type=draw(st.integers(0, 6)),
        node_checkers_per_type=draw(st.integers(0, 6)),
        min_security=draw(st.sampled_from([0.0, 1.0, 2.0, 3.5, 5.0])),
        min_security_by_role=draw(st.sampled_from([{}, {NodeRole.ROUTER: 4.0}, {NodeRole.SERVER: 6.0}])),
        movement=MovementParams(*draw(st.sampled_from([(0.1, 0.05, 0.8), (0.3, 0.2, 0.9), (0.0, 1.0, 1.0)]))),
        notify_params=NotifyParams(draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])), draw(st.booleans())),
        traffic=draw(st.sampled_from([TrafficConfig(), TrafficConfig(2, 0.6, 0.5, 0.25)])),
        strategy=draw(st.sampled_from(STRATEGIES)),
        duration=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 99)),
        start_fragment=draw(st.one_of(st.none(), st.integers(0, fragments - 1))),
        bridge_fallback=draw(st.booleans()),
        bridge_decay_step=draw(st.sampled_from([None, 0.5, 5.0])),
    )


def over_random_configs(test):
    """Run `test` on 40 random valid configs as well as on its examples."""
    return settings(max_examples=40, deadline=None)(given(config=valid_configs())(test))


def output_bytes(report: MetricsReport) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        report.write_json(Path(tmp) / "summary.json")
        report.write_csv(Path(tmp) / "timeseries.csv")
        return (Path(tmp) / "summary.json").read_bytes(), (Path(tmp) / "timeseries.csv").read_bytes()


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
            (dict(start_nodes=[]), "start_nodes"),
            (dict(start_nodes=[0], start_fragment=0), "start_nodes and start_fragment"),
            # One router per fragment leaves one possible bridge.
            (
                dict(topology=TopologyConfig(node_count=20, fragment_count=2, bridges_per_fragment_pair=2, seed=7)),
                "topology: bridges_per_fragment_pair",
            ),
            (
                dict(
                    topology=TopologyConfig(
                        node_count=4, workstation_fraction=0.0, server_fraction=0.85, router_fraction=0.15, seed=7
                    )
                ),
                "topology: node_count too small for the role mix",
            ),
            # Integer fields, found by their annotations, hold integers only.
            (dict(traffic=TrafficConfig(packets_per_step=1.5)), "traffic: packets_per_step: must be an integer"),
            (dict(duration=5.5), "duration: must be an integer"),
            (dict(cell_types=2.0), "cell_types: must be an integer"),
            (dict(packet_checkers_per_type=1.5), "packet_checkers_per_type: must be an integer"),
            (dict(topology=TopologyConfig(node_count=30.0, seed=7)), "topology: node_count: must be an integer"),
            (dict(start_nodes=[0, 2.5]), "start_nodes: must be an integer"),
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
        assert np.array_equal(a.check_nodes, b.check_nodes)

    def test_different_seeds_differ(self):
        a = Engine(small_config(seed=1)).run()
        b = Engine(small_config(seed=2)).run()
        assert not np.array_equal(a.entity_counts, b.entity_counts)

    @example(config=small_config())
    @over_random_configs
    def test_csv_and_json_bytes_identical(self, config):
        assert output_bytes(Engine(config).run()) == output_bytes(Engine(config).run())


class TestReport:
    def test_report_taken_mid_run_keeps_its_values(self):
        engine = Engine(small_config(duration=40))
        for _ in range(15):
            engine.step()
        early = engine.report()
        kept = copy.deepcopy(early)
        engine.run()
        for field in fields(MetricsReport):
            assert np.array_equal(getattr(early, field.name), getattr(kept, field.name)), field.name
        assert early.summary() == kept.summary()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_report_taken_mid_run_writes_what_a_shorter_run_writes(self, strategy):
        engine = Engine(small_config(strategy=strategy, duration=40))
        for _ in range(15):
            engine.step()
        shorter = Engine(small_config(strategy=strategy, duration=15)).run()
        assert output_bytes(engine.report()) == output_bytes(shorter)

    def test_a_run_with_traffic_searches_once(self, monkeypatch):
        sources, search = [], Topology.search

        def counted(topo, source):
            sources.append(source)
            return search(topo, source)

        monkeypatch.setattr(Topology, "search", counted)
        engine = Engine(small_config(strategy="centralized", traffic=TrafficConfig(packets_per_step=4)))
        engine.run()
        assert sources == [engine.topology.gateway]
        assert len(engine.traffic_source._gateway_paths) > 1 and engine.control_bandwidth > 0


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
    @example(config=small_config())
    @over_random_configs
    def test_cell_population_is_conserved(self, config):
        engine = Engine(config)
        assert (engine.run().entity_counts.sum(axis=1) == len(engine.loc)).all()

    @example(config=small_config(duration=40))
    @over_random_configs
    def test_packet_accounting_balances(self, config):
        engine = Engine(config)
        report = engine.run()
        generated = engine.traffic_source._next_packet_id
        assert generated == report.detected_packets + engine.delivered_packets + len(engine.in_flight)
        infected_in_flight = sum(p.payload is not None for p in engine.in_flight)
        caught_or_landed = report.detected_packets + report.delivered_infected
        assert report.introduced_packets == caught_or_landed + infected_in_flight

    @example(config=small_config(duration=80))
    @over_random_configs
    def test_infection_accounting_balances(self, config):
        report = Engine(config).run()
        assert report.infections_created == report.infections_cleared + report.infections_active

    def test_detection_rate_in_unit_interval(self):
        report = Engine(small_config()).run()
        assert 0.0 <= report.detection_rate <= 1.0
        assert report.detected_packets + report.delivered_infected <= report.introduced_packets


class TestBandwidthInvariant:
    @example(config=small_config(duration=120, min_security=3.0, strategy="notification"))
    @over_random_configs
    def test_per_link_direction_per_step_at_most_one(self, config):
        report = Engine(config).run()
        # Peak load is one packet per link direction per step once any is sent.
        assert report.max_link_load == min(report.notification_packets_total, 1)

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
        assert plan_rebalance(np.array([20, 20]), np.array([20.0, 20.0])).tolist() == []

    def test_simple_surplus_to_deficit(self):
        moves = plan_rebalance(np.array([30, 10]), np.array([20.0, 20.0]))
        assert moves.tolist() == [[0, 1, 10]]

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


def assert_matches_reference(config: SimulationConfig, topology: Topology | None = None) -> MetricsReport:
    """Step the engine and the reference model side by side: cell locations
    after every step, and every report field at the end."""
    engine = Engine(config, topology)
    model = ReferenceModel(config, engine.topology)
    for _ in range(config.duration):
        engine.step()
        model.step()
        model_loc = [cell.location for cell in model.cells]
        assert np.array_equal(engine.loc, model_loc), f"{config.strategy}: loc differs at t={model.t}"
    report, expected = engine.report(), model.report()
    for name in (f.name for f in fields(MetricsReport)):
        assert np.array_equal(getattr(report, name), getattr(expected, name)), f"{config.strategy}: {name}"
    return report


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
        assert [tuple(r) for r in moves.tolist()] == reference_plan_rebalance(counts, required)
        assert moves.shape == (len(moves), 3) and all(type(x) is int for x in moves.flat)

    @pytest.mark.parametrize("n", [500, 4000])
    @pytest.mark.parametrize("spread", [3, 30])
    def test_tie_heavy_plan_equals_argmax_argmin_greedy(self, n, spread):
        """Many nodes on few balance levels: whole levels pair off and the
        remainders merge back into lower levels."""
        rng = np.random.default_rng(n + spread)
        for _ in range(3):
            required = rng.integers(spread, 3 * spread + 1, size=n).astype(np.float64)
            counts = required.astype(np.int64) + rng.integers(-spread, spread + 1, size=n)
            moves = plan_rebalance(counts, required)
            assert moves.tolist() == [list(move) for move in reference_plan_rebalance(counts, required)]

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
            dict(min_security=2.0, notify_params=NotifyParams(own_emission_wins=False)),
        ],
    )
    def test_assignment_equals_per_cell_pools(self, overrides):
        for strategy in STRATEGIES:
            report = assert_matches_reference(small_config(strategy=strategy, duration=25, **overrides))
        assert report.control_bandwidth > 0


class TestEngineMatchesReferenceModel:
    # Traffic against an empty type slice, and guards of one type sharing a node.
    @example(config=small_config(packet_checkers_per_type=0, duration=20))
    @example(config=small_config(topology=TopologyConfig(node_count=3, seed=1), packet_checkers_per_type=5, duration=20))
    # Several crowded sources, each feeding several deficits in one step.
    @example(config=small_config(strategy="centralized", start_nodes=[0, 4, 11], duration=15))
    @given(config=valid_configs())
    @settings(max_examples=150, deadline=None)
    def test_every_strategy_matches_step_by_step(self, config):
        for strategy in STRATEGIES:
            assert_matches_reference(replace(config, strategy=strategy))

    @pytest.mark.parametrize("hole_lacking", [False, True])
    def test_informed_strategies_match_on_a_topology_with_a_hole(self, hole_lacking):
        """Node 15 has no link; a third of the cells start on it, a third on
        node 3, which always lacks, and a third on node 20."""
        topology = with_isolated_node(generate_topology(TopologyConfig(node_count=30, seed=7)), 15)
        config = small_config(
            traffic=TrafficConfig(),  # no path from the gateway reaches the hole
            start_nodes=[15, 3, 20],
            min_security_by_node={3: 40.0, **({15: 40.0} if hole_lacking else {})},
            duration=30,
        )
        for strategy in ("notification", "protocols"):
            report = assert_matches_reference(replace(config, strategy=strategy), topology)
            assert (report.entity_counts[:, 15] == 12).all()
            assert report.notification_packets_total > 0


def replay_trails(engine: Engine) -> np.ndarray:
    """Trail values rebuilt from the bump log alone: zeros, then each step's
    fade and that step's bumps, with the fade's own float operations."""
    topo, config = engine.topology, engine.config
    steps = np.full(len(topo.adj_neighbors), config.trail_params.decay_step)
    if config.bridge_decay_step is not None:
        for v in {v for conn in topo.bridge_edges for v in conn.endpoints()}:
            steps[topo.adj_indptr[v] : topo.adj_indptr[v + 1]] = config.bridge_decay_step
    owners = np.repeat(np.arange(topo.node_count), topo.degrees)
    slot_of = {(int(v), int(link)): slot for slot, (v, link) in enumerate(zip(owners, topo.adj_links))}
    bumps = {}
    for t, node, link, ctype, value in engine.trail_log:
        bumps.setdefault(t, []).append((slot_of[node, link], ctype, value))
    values = np.zeros((len(steps), config.cell_types + 1))
    for t in range(engine.t):
        values = np.maximum(values - steps[:, None], 0.0)
        for slot, ctype, value in bumps.get(t, []):
            values[slot, ctype] = value
    return values


# All node checkers start on one node, so a step bumps a pair in several batches.
_crowded_trails = dict(strategy="trails", node_checkers_per_type=4, start_nodes=[0], duration=20)
# Many nodes and few node checkers: the fade never falls back to the full pass.
_sparse_trails = dict(strategy="trails", topology=TopologyConfig(node_count=300, seed=5), duration=200)


class TestTrailLog:
    @example(config=small_config(**_crowded_trails))
    @example(
        config=small_config(
            topology=TopologyConfig(node_count=40, fragment_count=2, seed=4), bridge_decay_step=0.7, duration=30
        )
    )
    @given(config=valid_configs())
    @settings(max_examples=60, deadline=None)
    def test_log_equals_the_reference_models_bumps(self, config):
        for strategy in ("trails", "protocols"):
            config = replace(config, strategy=strategy)
            engine = Engine(config, verbose=True)
            model = ReferenceModel(config, engine.topology)
            engine.run()
            for _ in range(config.duration):
                model.step()
            assert engine.trail_log == model.trail_log

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(strategy="trails", duration=80),
            _crowded_trails,
            dict(topology=TopologyConfig(node_count=40, fragment_count=2, seed=4), bridge_decay_step=0.7),
            dict(
                topology=TopologyConfig(node_count=40, fragment_count=2, seed=4),
                bridge_fallback=True,
                trail_params=TrailParams(increase_base=40.0, decay_step=0.5, value_cap=45.0),
            ),
            _sparse_trails,
        ],
    )
    def test_fade_and_bumps_replay_the_trail_values(self, overrides):
        engine = Engine(small_config(**overrides), verbose=True)
        engine.run()
        assert engine.trail_state.values.any()
        if overrides is _sparse_trails:
            # Every fade of the run visits only the tracked entries.
            assert not engine.trail_state.full_pass
        assert np.array_equal(replay_trails(engine), engine.trail_state.values)

    def test_quiet_run_logs_nothing(self):
        engine = Engine(small_config())
        engine.run()
        assert engine.trail_log == [] and engine.traffic_log == []


def plain_checked_fraction(rows, node_count, cell_types, window, span, nodes=None):
    """Covered (window, node, type) slots over all slots of the complete
    windows in span; rows[t] lists the (node, type) each node checker
    checked at step t."""
    start, end = span
    n_windows = (end - start) // window
    node_list = list(range(node_count)) if nodes is None else nodes
    if n_windows == 0 or not node_list or cell_types == 0:
        return 0.0
    covered = {
        ((t - start) // window, node, ctype)
        for t in range(start, start + n_windows * window)
        for node, ctype in rows[t]
        if node in node_list
    }
    return len(covered) / (n_windows * len(node_list) * cell_types)


def plain_redundant_times(rows, min_gap, span):
    """Steps of the checks in span that come sooner than min_gap after the
    previous check in span of the same (node, type)."""
    last, times = {}, []
    for t in range(*span):
        for key in rows[t]:
            if key in last and t - last[key] < min_gap:
                times.append(t)
            last[key] = t
    return times


class TestCoverageMatchesPlainCount:
    @example(config=small_config(strategy="trails"))
    @over_random_configs
    def test_engine_report_equals_a_count_over_checker_locations(self, config):
        """Coverage, repeats and the CSV check columns against plain loops over
        where the reference model's node checkers stood at each step."""
        engine = Engine(config)
        model = ReferenceModel(config, engine.topology)
        rows = []
        for _ in range(config.duration):
            rows.append([(cell.location, cell.cell_type) for cell in model.cells[model.n_pc :]])
            model.step()
        report = engine.run()
        duration, n, k = config.duration, engine.topology.node_count, config.cell_types
        spans = [(0, duration), (duration // 2, duration), (duration // 3, 2 * duration // 3)]
        for span in spans:
            for window in (1, 2, 5, max(1, report.coverage_window)):
                for nodes in (None, list(range(0, n, 2))):
                    expected = plain_checked_fraction(rows, n, k, window, span, nodes)
                    assert report.checked_fraction(window, span, nodes) == expected, (span, window, nodes)
            for min_gap in (1, 2, 4, 9):
                expected = len(plain_redundant_times(rows, min_gap, span))
                assert report.redundant_check_count(min_gap, span) == expected, (span, min_gap)

        min_gap = max(1, report.coverage_window // 4)
        header, *lines = output_bytes(report)[1].decode().splitlines()
        columns = header.split(",")
        table = [dict(zip(columns, map(int, line.split(",")))) for line in lines]
        redundant = Counter(plain_redundant_times(rows, min_gap, (0, duration)))
        assert [row["checks"] for row in table] == [len(checks) for checks in rows]
        assert [row["redundant_checks"] for row in table] == [redundant[t] for t in range(duration)]


def run_phases_before_movement(engine: Engine) -> None:
    engine._phase_traffic()
    engine._phase_node_checks()
    engine._phase_security()
    engine._phase_relay()
    engine._phase_trail_fade()


def finish_step(engine: Engine) -> None:
    engine._entity_counts[engine.t] = np.bincount(engine.loc, minlength=engine.topology.node_count)
    engine.t += 1


class TestVectorizedMovementMatchesPerCellDecision:
    @pytest.mark.parametrize("strategy", ["uninformed", "notification"])
    # With no resting rate and a cap of 1, only checkers that heard a
    # notification move, and those hearing 2 hit the cap.
    @pytest.mark.parametrize("movement", [MovementParams(0.2, 0.1, 0.8), MovementParams(0.0, 1.0, 1.0)])
    def test_engine_movement_equals_decide_move(self, strategy, movement):
        config = small_config(strategy=strategy, duration=30, seed=11, movement=movement)
        engine = Engine(config)
        informed, neighbors = engine.notification_on, adjacency(engine.topology)
        for _ in range(12):
            run_phases_before_movement(engine)
            before, lacking = engine.loc[: engine.n_pc].copy(), engine.lacking.copy()
            notif_value, notif_from = engine.notif_value.copy(), engine.notif_from.copy()
            rng_copy = copy.deepcopy(engine._rng_movement)
            engine._move_packet_checkers()

            u_move, u_dest = rng_copy.random(engine.n_pc), rng_copy.random(engine.n_pc)
            for cid in range(engine.n_pc):
                here = int(before[cid])
                cell = Cell(cid, int(engine.cell_type[cid]), PACKET_CHECKER, here)
                strongest = None
                if informed and notif_value[here] > 0:
                    arrival = next(conn for conn, w in neighbors[here] if w == notif_from[here])
                    strongest = NotificationPacket(-1, float(notif_value[here]), arrival)
                draws = iter((u_move[cid], u_dest[cid])).__next__
                pinned = float(lacking[here]) if informed else 0.0
                chosen = decide_move(cell, config.movement, pinned, neighbors[here], strongest, None, draws)
                expected = here if chosen is None else chosen.other(here)
                assert int(engine.loc[cid]) == expected, f"cell {cid} diverged"
            finish_step(engine)


class TestEngineRelayMatchesProtocolFunctions:
    def test_array_relay_equals_forward_step_delivery(self):
        config = small_config(strategy="notification", min_security=3.0, duration=25, seed=21)
        engine = Engine(config)
        topo = engine.topology
        inboxes = [[] for _ in range(topo.node_count)]
        for _ in range(25):
            engine._phase_traffic()
            engine._phase_node_checks()
            engine._phase_security()
            emissions = [
                emit_deficiency(v, 0.0, float(lacking)) for v, lacking in enumerate(engine.lacking)
            ]
            inboxes, _ = relay_step(topo, inboxes, emissions, config.notify_params)

            engine._phase_relay()
            for node, inbox in enumerate(inboxes):
                strongest = best(inbox)
                if strongest is None:
                    assert engine.notif_value[node] == 0.0
                else:
                    assert engine.notif_value[node] == strongest.value
                    assert engine._notif_origin[node] == strongest.origin
                    assert engine._notif_link[node] == strongest.arrival.link_id
                    assert engine.notif_from[node] == strongest.arrival.other(node)
            engine._phase_trail_fade()
            engine._phase_movement()
            finish_step(engine)


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

    def test_default_coverage_window_follows_the_given_topology(self):
        topology = generate_topology(TopologyConfig(node_count=12, seed=5))
        engine = Engine(SimulationConfig(cell_types=2, duration=5), topology=topology)
        assert engine.run().coverage_window == 4 * 12

    def test_start_fragment_places_every_cell_inside_it(self):
        config = small_config(
            topology=TopologyConfig(node_count=30, fragment_count=2, seed=7),
            start_fragment=0,
        )
        engine = Engine(config)
        fragments = engine.topology.fragment_of
        assert all(fragments[int(v)] == 0 for v in engine.loc)

    def test_start_fragment_is_one_of_the_given_topology(self):
        topology = generate_topology(TopologyConfig(node_count=30, fragment_count=2, seed=7))
        engine = Engine(small_config(start_fragment=1), topology=topology)
        assert all(topology.fragment_of[int(v)] == 1 for v in engine.loc)

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
