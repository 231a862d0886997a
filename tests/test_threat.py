"""Traffic generation, and the reference model's per-packet inspection,
delivery and node-check rules (tests/reference_model.py)."""

import numpy as np
import pytest
from reference_model import NODE_CHECKER, PACKET_CHECKER, Cell, Infection, ReferenceTraffic, adjacency
from reference_model import check_node, hop_counts, inspect_packet, packet_delivery_outcome

from sentinet import Connection, NodeRole, Topology, TopologyConfig, TopologyError, TrafficConfig
from sentinet import generate_topology
from sentinet.threat import TrafficPacket, TrafficSource


def _pc(cell_type, node=0):
    return Cell(0, cell_type, PACKET_CHECKER, node)


def _nc(cell_type, node=0):
    return Cell(0, cell_type, NODE_CHECKER, node)


TOPO = generate_topology(TopologyConfig(node_count=30, seed=8))


class TestGeneration:
    def test_zero_config_generates_nothing(self):
        source = TrafficSource(TrafficConfig(), TOPO, cell_types=5)
        packets, direct = source.generate(np.random.default_rng(0))
        assert packets == [] and direct == []

    def test_certain_infection_probability(self):
        source = TrafficSource(
            TrafficConfig(packets_per_step=50, infection_probability=1.0), TOPO, 5
        )
        packets, _ = source.generate(np.random.default_rng(1))
        assert len(packets) == 50
        assert all(p.payload is not None for p in packets)

    def test_infection_rate_is_calibrated(self):
        source = TrafficSource(
            TrafficConfig(packets_per_step=100_000, infection_probability=0.3), TOPO, 5
        )
        packets, _ = source.generate(np.random.default_rng(2))
        infected = sum(p.payload is not None for p in packets) / len(packets)
        assert abs(infected - 0.3) < 0.01

    def test_generation_is_deterministic_per_seed(self):
        config = TrafficConfig(packets_per_step=5, infection_probability=0.4, internal_attack_rate=1.5)

        def trace(seed):
            source = TrafficSource(config, TOPO, 7)
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(20):
                packets = source.generate(rng)[0]
                out.extend((p.packet_id, p.source, p.destination, p.payload) for p in packets)
            return out

        assert trace(9) == trace(9)
        assert trace(9) != trace(10)

    def test_external_packets_start_at_the_gateway_on_shortest_paths(self):
        source = TrafficSource(TrafficConfig(packets_per_step=40), TOPO, 5)
        packets, _ = source.generate(np.random.default_rng(3))
        gateway = TOPO.gateway
        dist, neighbors = TOPO.hop_distances(gateway), adjacency(TOPO)
        for p in packets:
            assert p.source == gateway
            assert p.path[0] == gateway and p.path[-1] == p.destination
            assert len(p.path) == dist[p.destination] + 1
            for a, b in zip(p.path, p.path[1:]):
                assert b in [w for _, w in neighbors[a]]

    def test_cached_gateway_paths_equal_shortest_paths(self):
        topo = generate_topology(TopologyConfig(node_count=40, backbone_redundancy=1.5, seed=3))
        source = TrafficSource(TrafficConfig(packets_per_step=10), topo, 5)
        rng = np.random.default_rng(12)
        destinations = set(range(topo.node_count)) - {topo.gateway}
        for _ in range(500):
            if set(source._gateway_paths) == destinations:
                break
            source.generate(rng)
        assert set(source._gateway_paths) == destinations
        for node, path in source._gateway_paths.items():
            assert path == topo.shortest_path(topo.gateway, node)

    def test_unreachable_destination_raises(self):
        roles = [NodeRole.GATEWAY, NodeRole.ROUTER, NodeRole.WORKSTATION]
        topo = Topology(roles=roles, edges=[Connection(0, 0, 1)])
        source = TrafficSource(TrafficConfig(packets_per_step=50), topo, 1)
        with pytest.raises(TopologyError, match="no path from 0 to 2"):
            source.generate(np.random.default_rng(0))

    def test_non_integer_packet_count_rejected_at_construction(self):
        with pytest.raises(ValueError, match="packets_per_step: must be an integer, got 1.5"):
            TrafficSource(TrafficConfig(packets_per_step=1.5), TOPO, 2)

    def test_internal_attacks_are_introduced_at_a_single_node(self):
        source = TrafficSource(TrafficConfig(internal_attack_rate=2.0), TOPO, 5)
        packets, _ = source.generate(np.random.default_rng(4))
        assert len(packets) == 2
        for p in packets:
            assert p.path == [p.source] and p.source == p.destination

    def test_internal_attacks_target_endpoint_machines_only(self):
        source = TrafficSource(TrafficConfig(internal_attack_rate=50.0), TOPO, 5)
        packets, _ = source.generate(np.random.default_rng(8))
        roles = {TOPO.roles[p.source] for p in packets}
        assert roles <= {NodeRole.WORKSTATION, NodeRole.SERVER}

    def test_fractional_rates_carry_over(self):
        source = TrafficSource(TrafficConfig(internal_attack_rate=0.25), TOPO, 5)
        rng = np.random.default_rng(5)
        counts = [len(source.generate(rng)[0]) for _ in range(8)]
        assert sum(counts) == 2
        assert counts == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_direct_infection_rate(self):
        source = TrafficSource(TrafficConfig(infections_per_step=0.5), TOPO, 5)
        rng = np.random.default_rng(6)
        total = sum(len(source.generate(rng)[1]) for _ in range(10))
        assert total == 5

    @pytest.mark.parametrize("redundancy", [0.0, 0.5])
    def test_generator_matches_the_reference_traffic(self, redundancy):
        """Same packets, paths and direct infections; redundant backbone links
        give some destinations more than one shortest path."""
        topology = generate_topology(TopologyConfig(node_count=200, backbone_redundancy=redundancy, seed=8))
        config = TrafficConfig(packets_per_step=25, infection_probability=0.4, internal_attack_rate=1.5,
                               infections_per_step=0.75)
        neighbors = adjacency(topology)
        oracle = ReferenceTraffic(config, topology, neighbors, hop_counts(neighbors, topology.gateway), 7)
        source = TrafficSource(config, topology, 7)
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            packets, direct = source.generate(rng)
            expected, expected_direct = oracle.generate(oracle_rng)
            fields = [(p.packet_id, p.source, p.destination, p.path, p.payload) for p in packets]
            assert fields == [(p.packet_id, p.source, p.destination, p.path, p.payload) for p in expected]
            assert direct == expected_direct


class TestInspection:
    def test_matching_type_detects(self):
        packet = TrafficPacket(0, 0, 0, [0], payload=7)
        assert inspect_packet(packet, [_pc(7)])

    def test_all_other_types_miss(self):
        packet = TrafficPacket(0, 0, 0, [0], payload=7)
        cells = [_pc(t) for t in range(1, 61) if t != 7]
        assert not inspect_packet(packet, cells)

    def test_clean_packets_never_alarm(self):
        packet = TrafficPacket(0, 0, 0, [0], payload=None)
        assert not inspect_packet(packet, [_pc(t) for t in range(1, 10)])

    def test_node_checkers_do_not_inspect_packets(self):
        packet = TrafficPacket(0, 0, 0, [0], payload=3)
        assert not inspect_packet(packet, [_nc(3)])


class TestDelivery:
    def test_surviving_infected_packet_installs(self):
        active = {}
        packet = TrafficPacket(0, 0, 4, [0, 2, 4], position=2, payload=9)
        infection = packet_delivery_outcome(packet, detected=False, active_infections=active, timestep=17)
        assert infection == Infection(4, 9, 17)
        assert active[(4, 9)] is infection

    def test_detected_packet_installs_nothing(self):
        active = {}
        packet = TrafficPacket(0, 0, 4, [4], payload=9)
        assert packet_delivery_outcome(packet, True, active, 0) is None
        assert active == {}

    def test_duplicate_infection_keeps_the_first(self):
        original = Infection(4, 9, 3)
        active = {(4, 9): original}
        packet = TrafficPacket(0, 0, 4, [4], payload=9)
        assert packet_delivery_outcome(packet, False, active, 20) is None
        assert active[(4, 9)] is original

    def test_in_transit_packet_rejected(self):
        packet = TrafficPacket(0, 0, 4, [0, 4], position=0, payload=9)
        with pytest.raises(ValueError):
            packet_delivery_outcome(packet, False, {}, 0)


class TestNodeCheck:
    def test_clears_only_matching_type(self):
        active = {(5, 3): Infection(5, 3, 0), (5, 9): Infection(5, 9, 0)}
        cleared = check_node(_nc(3, node=5), 5, active)
        assert [i.intrusion for i in cleared] == [3]
        assert (5, 9) in active and (5, 3) not in active

    def test_clean_node_yields_nothing(self):
        assert check_node(_nc(3), 5, {}) == []

    def test_second_checker_finds_nothing(self):
        active = {(5, 3): Infection(5, 3, 0)}
        assert len(check_node(_nc(3), 5, active)) == 1
        assert check_node(_nc(3), 5, active) == []

    def test_packet_checker_rejected(self):
        with pytest.raises(ValueError):
            check_node(_pc(3), 5, {})
