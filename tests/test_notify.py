"""Notification protocol: emission, decay, forwarding, and the flood shape.

Emission, decay and forwarding are the reference model's per-packet rules;
the engine's array `relay` is checked against them on arbitrary states.
The flood shape of `flood_trace`, which runs the engine's relay, is checked
against an independent breadth-first search: an emission of integer value V
must reach exactly the nodes within V hops, each on the step equal to its hop
distance, using one packet per link direction per step at most.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_model import (
    NotificationPacket,
    best,
    decay,
    emit_deficiency,
    forward_step,
    relay_step,
)

from sentinet import (
    Connection,
    NodeRole,
    NotifyParams,
    Topology,
    TopologyConfig,
    flood_trace,
    generate_topology,
)
from sentinet.notify import relay


def bfs_distances(n_nodes, edge_pairs, origin):
    """Plain BFS oracle, independent of the topology class."""
    adjacency = {v: [] for v in range(n_nodes)}
    for u, v in edge_pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def random_connected_graph(rng, max_nodes=50):
    """Random tree plus a few chords; connected by construction."""
    n = int(rng.integers(2, max_nodes + 1))
    pairs = set()
    for v in range(1, n):
        pairs.add((int(rng.integers(0, v)), v))
    extra = int(rng.integers(0, max(1, n // 3)))
    while extra > 0:
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        pair = (min(a, b), max(a, b))
        if pair in pairs:
            continue
        pairs.add(pair)
        extra -= 1
    ordered = sorted(pairs)
    edges = [Connection(i, u, v) for i, (u, v) in enumerate(ordered)]
    return Topology(roles=[NodeRole.WORKSTATION] * n, edges=edges), ordered


class TestEmission:
    def test_shortfall_of_five(self):
        packet = emit_deficiency(3, security_level=15.0, min_security=20.0)
        assert packet is not None
        assert packet.origin == 3 and packet.value == 5.0

    def test_exact_coverage_emits_nothing(self):
        assert emit_deficiency(0, 20.0, 20.0) is None

    def test_empty_node_emits_full_requirement(self):
        packet = emit_deficiency(0, 0.0, 20.0)
        assert packet.value == 20.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            emit_deficiency(0, -1.0, 20.0)


class TestDecay:
    def test_unit_decrement(self):
        assert decay(5.0) == 4.0

    def test_boundary_drops_to_zero(self):
        assert decay(1.0) == 0.0

    def test_fractional_value_goes_negative(self):
        assert decay(0.5) == -0.5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            decay(0.0)


def _star_neighbors(center, leaves):
    return [(Connection(i, *sorted((center, leaf))), leaf) for i, leaf in enumerate(leaves)]


class TestForwardStep:
    def test_relays_only_the_strongest_packet_decremented(self):
        neighbors = _star_neighbors(0, [1, 2, 3])
        e1, e2 = neighbors[0][0], neighbors[1][0]
        inbox = [NotificationPacket(7, 3.0, e1), NotificationPacket(8, 5.0, e2)]
        sends = forward_step(0, neighbors, inbox, None)
        assert len(sends) == 2
        assert {conn.link_id for conn, _ in sends} == {0, 2}
        assert all(p.value == 4.0 and p.origin == 8 for _, p in sends)

    def test_value_one_dies_at_the_threshold(self):
        neighbors = _star_neighbors(0, [1, 2])
        inbox = [NotificationPacket(5, 1.0, neighbors[0][0])]
        assert forward_step(0, neighbors, inbox, None) == []

    def test_own_emission_goes_undecayed_on_every_link(self):
        neighbors = _star_neighbors(0, [1, 2, 3, 4])
        inbox = [NotificationPacket(9, 7.0, neighbors[1][0])]
        own = NotificationPacket(0, 20.0)
        sends = forward_step(0, neighbors, inbox, own)
        assert len(sends) == 4
        assert all(p.value == 20.0 and p.origin == 0 for _, p in sends)

    def test_max_of_both_mode_lets_a_stronger_relay_win(self):
        neighbors = _star_neighbors(0, [1, 2, 3])
        inbox = [NotificationPacket(9, 7.0, neighbors[1][0])]
        own = NotificationPacket(0, 2.0)
        sends = forward_step(
            0, neighbors, inbox, own, NotifyParams(own_emission_wins=False)
        )
        assert len(sends) == 2  # relayed: skips its arrival link
        assert all(p.value == 6.0 and p.origin == 9 for _, p in sends)

    def test_empty_inbox_and_no_emission_forwards_nothing(self):
        neighbors = _star_neighbors(0, [1, 2])
        assert forward_step(0, neighbors, [], None) == []

    def test_inbox_tiebreak_prefers_lower_origin_then_link(self):
        neighbors = _star_neighbors(0, [1, 2, 3])
        inbox = [
            NotificationPacket(4, 5.0, neighbors[2][0]),
            NotificationPacket(2, 5.0, neighbors[1][0]),
            NotificationPacket(2, 5.0, neighbors[0][0]),
        ]
        assert best(inbox).origin == 2 and best(inbox).arrival.link_id == 0

    @given(
        degree=st.integers(1, 8),
        packets=st.lists(
            st.tuples(st.integers(0, 9), st.floats(0.5, 30), st.integers(0, 7)),
            max_size=8,
        ),
        own=st.one_of(st.none(), st.floats(0.5, 30)),
    )
    @settings(max_examples=300)
    def test_forwarding_laws_hold_for_arbitrary_inboxes(self, degree, packets, own):
        neighbors = _star_neighbors(0, list(range(1, degree + 1)))
        inbox = [NotificationPacket(origin, value, neighbors[i % degree][0]) for origin, value, i in packets]
        emission = NotificationPacket(0, own) if own is not None else None
        sends = forward_step(0, neighbors, inbox, emission)
        links = [conn.link_id for conn, _ in sends]
        assert len(links) == len(set(links))  # one per link at most
        assert all(packet.value > 0 for _, packet in sends)
        if emission is not None:
            # Own deficiency goes out undecayed on every link.
            assert len(sends) == degree
            assert all(packet.value == own and packet.origin == 0 for _, packet in sends)
        elif best(inbox) is not None and best(inbox).value > 1.0:
            expected = decay(best(inbox).value)
            assert all(packet.value == expected for _, packet in sends)
            assert best(inbox).arrival.link_id not in links
        else:
            assert sends == []


def _with_isolated_node(topo):
    """The same graph plus one node of degree 0."""
    return Topology(roles=list(topo.roles) + [NodeRole.WORKSTATION], edges=list(topo.edges))


QUARTERS = st.one_of(st.just(0.0), st.integers(1, 24).map(lambda q: q / 4))


class TestRelayMatchesOracle:
    """`relay` against the reference model's per-node `forward_step` flood."""

    @given(
        data=st.data(),
        graph_seed=st.integers(0, 2**16),
        threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        own_wins=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_relay_equals_relay_step(self, data, graph_seed, threshold, own_wins):
        topo, _ = random_connected_graph(np.random.default_rng(graph_seed), max_nodes=40)
        topo = _with_isolated_node(topo)
        n, m = topo.node_count, len(topo.edges)
        params = NotifyParams(forward_threshold=threshold, own_emission_wins=own_wins)

        lacking = np.array(data.draw(st.lists(QUARTERS, min_size=n, max_size=n)))
        value = np.zeros(n)
        origin = np.zeros(n, dtype=np.int64)
        link = np.full(n, -1, dtype=np.int64)
        for node in range(n):
            degree = int(topo.degrees[node])
            heard = data.draw(QUARTERS) if degree else 0.0
            if heard > 0:
                value[node] = heard
                origin[node] = data.draw(st.integers(0, n - 1))
                slot = topo.adj_indptr[node] + data.draw(st.integers(0, degree - 1))
                link[node] = topo.adj_links[slot]
        counts = np.array(data.draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)), dtype=np.int64)
        per_connection = counts.copy()

        got_value, got_origin, got_link, got_sender, sent, peak = relay(
            topo, params, lacking, value, origin, link, per_connection
        )

        inboxes = [
            [NotificationPacket(int(origin[v]), float(value[v]), topo.edges[link[v]])] if value[v] > 0 else []
            for v in range(n)
        ]
        emissions = [emit_deficiency(v, 0.0, float(lacking[v])) for v in range(n)]
        delivered, sends = relay_step(topo, inboxes, emissions, params)
        for node, inbox in enumerate(delivered):
            strongest = best(inbox)
            if strongest is None:
                expected = (0.0, 0, -1, -1)
            else:
                conn = strongest.arrival
                expected = (strongest.value, strongest.origin, conn.link_id, conn.other(node))
            assert (got_value[node], got_origin[node], got_link[node], got_sender[node]) == expected
        for got, given_array in zip((got_value, got_origin, got_link, got_sender), (value, origin, link, link)):
            assert got.dtype == given_array.dtype and got.shape == (n,)
        assert sent == len(sends)
        loads = Counter((conn.link_id, sender) for sender, conn, _ in sends)
        assert peak == max(loads.values(), default=0)
        expected_counts = counts.copy()
        for _, conn, _ in sends:
            expected_counts[conn.link_id] += 1
        assert per_connection.tolist() == expected_counts.tolist()

    def test_idle_graph_sends_nothing(self):
        # The patrol path: no deficiency and nothing heard.
        topo = _with_isolated_node(random_connected_graph(np.random.default_rng(9), max_nodes=20)[0])
        n, m = topo.node_count, len(topo.edges)
        per_connection = np.arange(1, m + 1, dtype=np.int64)
        value, origin, link, sender, sent, peak = relay(
            topo, NotifyParams(), np.zeros(n), np.zeros(n),
            np.zeros(n, dtype=np.int64), np.full(n, -1, dtype=np.int64), per_connection,
        )
        assert (sent, peak) == (0, 0)
        assert not value.any() and not origin.any()
        assert (link == -1).all() and (sender == -1).all()
        assert per_connection.tolist() == list(range(1, m + 1))


class TestFloodShape:
    def test_wavefront_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            topo, pairs = random_connected_graph(rng)
            origin = int(rng.integers(0, topo.node_count))
            value = int(rng.integers(1, 8))
            arrival, first_value, _ = flood_trace(topo, origin, float(value))
            dist = bfs_distances(topo.node_count, pairs, origin)
            expected = {v for v, d in dist.items() if 0 < d <= value}
            assert set(arrival) == expected
            for node in expected:
                assert arrival[node] == dist[node]
                assert first_value[node] == value - (dist[node] - 1)

    def test_reach_is_monotone_in_value(self):
        rng = np.random.default_rng(77)
        topo, _ = random_connected_graph(rng, max_nodes=40)
        origin = 0
        previous: set = set()
        for value in range(1, 9):
            arrival, _, _ = flood_trace(topo, origin, float(value))
            assert previous <= set(arrival)
            previous = set(arrival)

    def test_per_link_direction_load_never_exceeds_one(self):
        rng = np.random.default_rng(5)
        topo, _ = random_connected_graph(rng, max_nodes=30)
        inboxes = [[] for _ in range(topo.node_count)]
        emissions = [NotificationPacket(0, 12.0)] + [None] * (topo.node_count - 1)
        for _ in range(40):
            inboxes, sends = relay_step(topo, inboxes, emissions, NotifyParams())
            emissions = [None] * topo.node_count
            loads = Counter((conn.link_id, sender) for sender, conn, _ in sends)
            assert all(count == 1 for count in loads.values())
            if not sends:
                break

    def test_statelessness_between_steps(self):
        topo = generate_topology(TopologyConfig(node_count=20, seed=3))
        arrival, _, per_step = flood_trace(topo, 0, 3.0)
        # The flood exhausts itself; afterwards no packets circulate.
        assert per_step[-1] == 0
        assert len(per_step) <= 3 + 2

    def test_large_emission_covers_a_deep_ball_exactly(self):
        # Path of 30 nodes, emission value 20 from one end: the news walks
        # 20 hops, one per step, and dies there.
        edges = [Connection(i, i, i + 1) for i in range(29)]
        topo = Topology(roles=[NodeRole.WORKSTATION] * 30, edges=edges)
        arrival, values, _ = flood_trace(topo, 0, 20.0)
        assert set(arrival) == set(range(1, 21))
        for node in range(1, 21):
            assert arrival[node] == node
            assert values[node] == 20.0 - (node - 1)
