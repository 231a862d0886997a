"""Topology generation, adjacency consistency, fragmentation, file round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentinet import (
    Connection,
    Engine,
    NodeRole,
    SimulationConfig,
    Topology,
    TopologyConfig,
    TopologyError,
    generate_topology,
    load_topology,
    save_topology,
)


def _components_by_union_find(n_nodes, edge_pairs):
    """Independent connected-components count, no graph library."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(n_nodes)})


def test_minimal_two_node_topology():
    topo = generate_topology(TopologyConfig(node_count=2, seed=1))
    assert topo.node_count == 2
    assert len(topo.edges) == 1
    assert _components_by_union_find(2, [e.endpoints() for e in topo.edges]) == 1


def test_company_scale_topology_is_connected_with_one_gateway():
    topo = generate_topology(TopologyConfig(node_count=500, seed=42))
    assert topo.node_count == 500
    assert sum(1 for r in topo.roles if r is NodeRole.GATEWAY) == 1
    pairs = [e.endpoints() for e in topo.edges]
    assert _components_by_union_find(500, pairs) == 1
    # Adjacency length equals the degree recounted from the raw edge list.
    for node in range(0, 500, 7):
        recount = sum(1 for u, v in pairs if node in (u, v))
        assert len(topo.neighbors(node)) == recount


def test_generation_is_deterministic():
    config = TopologyConfig(node_count=120, backbone_redundancy=0.4, seed=9)
    a = generate_topology(config)
    b = generate_topology(config)
    assert a.roles == b.roles
    assert [e.endpoints() for e in a.edges] == [e.endpoints() for e in b.edges]


def test_different_seeds_differ():
    a = generate_topology(TopologyConfig(node_count=80, seed=1))
    b = generate_topology(TopologyConfig(node_count=80, seed=2))
    assert [e.endpoints() for e in a.edges] != [e.endpoints() for e in b.edges]


@given(
    node_count=st.integers(6, 120),
    fragments=st.integers(1, 3),
    redundancy=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_generation_pure_connected_and_symmetric(node_count, fragments, redundancy, seed):
    config = TopologyConfig(
        node_count=node_count,
        fragment_count=fragments,
        backbone_redundancy=redundancy,
        seed=seed,
    )
    a = generate_topology(config)
    b = generate_topology(config)
    assert [e.endpoints() for e in a.edges] == [e.endpoints() for e in b.edges]
    assert a.roles == b.roles
    pairs = [e.endpoints() for e in a.edges]
    assert _components_by_union_find(node_count, pairs) == 1
    for conn in a.edges:
        assert conn.v in [w for _, w in a.neighbors(conn.u)]
        assert conn.u in [w for _, w in a.neighbors(conn.v)]
    assert sum(1 for r in a.roles if r is NodeRole.GATEWAY) == 1


def test_fragmented_topology_splits_exactly_when_bridges_removed():
    config = TopologyConfig(node_count=40, fragment_count=2, bridges_per_fragment_pair=1, seed=5)
    topo = generate_topology(config)
    bridge_links = {e.link_id for e in topo.bridge_edges}
    assert len(bridge_links) == 1
    kept = [e.endpoints() for e in topo.edges if e.link_id not in bridge_links]
    assert _components_by_union_find(40, kept) == 2
    # With bridges present the whole thing is connected.
    assert _components_by_union_find(40, [e.endpoints() for e in topo.edges]) == 1


@pytest.mark.parametrize("fragments,bridges", [(2, 2), (3, 1), (4, 3)])
def test_fragment_counts_and_bridge_multiplicity(fragments, bridges):
    config = TopologyConfig(
        node_count=60, fragment_count=fragments, bridges_per_fragment_pair=bridges, seed=11
    )
    topo = generate_topology(config)
    assert len(topo.bridge_edges) == (fragments - 1) * bridges
    kept = [
        e.endpoints()
        for e in topo.edges
        if e.link_id not in {b.link_id for b in topo.bridge_edges}
    ]
    assert _components_by_union_find(60, kept) == fragments


def test_adjacency_is_symmetric_and_matches_edges():
    topo = generate_topology(TopologyConfig(node_count=90, backbone_redundancy=0.5, seed=7))
    for conn in topo.edges:
        assert any(c.link_id == conn.link_id for c, w in topo.neighbors(conn.u) if w == conn.v)
        assert any(c.link_id == conn.link_id for c, w in topo.neighbors(conn.v) if w == conn.u)
    # Degree from the adjacency equals degree recounted from the edge list.
    for node in range(topo.node_count):
        recount = sum(1 for e in topo.edges if node in e.endpoints())
        assert len(topo.neighbors(node)) == recount


def test_neighbors_are_ordered_by_node_id():
    topo = generate_topology(TopologyConfig(node_count=100, seed=13))
    for node in range(topo.node_count):
        ids = [w for _, w in topo.neighbors(node)]
        assert ids == sorted(ids)


def test_neighbors_on_path_graph():
    edges = [Connection(0, 0, 1), Connection(1, 1, 2)]
    topo = Topology(roles=[NodeRole.ROUTER] * 3, edges=edges)
    middle = topo.neighbors(1)
    assert [(c.link_id, w) for c, w in middle] == [(0, 0), (1, 2)]
    assert len(topo.neighbors(0)) == 1


def test_unknown_node_rejected():
    topo = generate_topology(TopologyConfig(node_count=12, seed=1))
    for query, args in [
        (topo.neighbors, (12,)),
        (topo.hop_distances, (-1,)),
        (topo.hop_distances, (12,)),
        (topo.shortest_path, (0, -2)),
        (topo.shortest_path, (-1, 3)),
        (topo.shortest_path, (12, 12)),
    ]:
        with pytest.raises(TopologyError, match="unknown node"):
            query(*args)


def test_invalid_configs_rejected():
    with pytest.raises(TopologyError):
        generate_topology(TopologyConfig(node_count=1, seed=1))
    with pytest.raises(TopologyError):
        generate_topology(TopologyConfig(node_count=10, fragment_count=11, seed=1))
    with pytest.raises(TopologyError):
        generate_topology(TopologyConfig(node_count=8, fragment_count=8, seed=1))
    with pytest.raises(TopologyError):
        TopologyConfig(node_count=10, workstation_fraction=0.2).validate()
    with pytest.raises(TopologyError):
        generate_topology(TopologyConfig(node_count=10))  # seed unset


def test_self_loops_and_duplicate_edges_rejected():
    with pytest.raises(TopologyError):
        Topology(roles=[NodeRole.ROUTER] * 2, edges=[Connection(0, 1, 1)])
    with pytest.raises(TopologyError):
        Topology(
            roles=[NodeRole.ROUTER] * 2,
            edges=[Connection(0, 0, 1), Connection(1, 0, 1)],
        )
    # Endpoints outside 0..n-1, link ids that are not the edge's position, a
    # bridge that is not an edge or is listed twice, and a fragment list of
    # the wrong length.
    for bad in (
        {"edges": [Connection(0, 0, 2)]},
        {"edges": [Connection(0, -1, 1)]},
        {"edges": [Connection(5, 0, 1)]},
        {"edges": [Connection(0, 0, 1)], "bridge_edges": [Connection(1, 0, 1)]},
        {"edges": [Connection(0, 0, 1)], "bridge_edges": [Connection(0, 0, 1)] * 2},
        {"edges": [Connection(0, 0, 1)], "fragment_of": [0]},
    ):
        with pytest.raises(TopologyError):
            Topology(roles=[NodeRole.GATEWAY, NodeRole.ROUTER], **bad)


def test_shortest_path_matches_bfs_distance_and_breaks_ties_low():
    topo = generate_topology(TopologyConfig(node_count=70, backbone_redundancy=0.6, seed=21))
    dist = topo.hop_distances(topo.gateway)
    rng = np.random.default_rng(0)
    for target in rng.integers(0, 70, size=12):
        path = topo.shortest_path(topo.gateway, int(target))
        assert len(path) == dist[target] + 1
        assert path[0] == topo.gateway and path[-1] == target
        for a, b in zip(path, path[1:]):
            assert b in [w for _, w in topo.neighbors(a)]


def test_save_load_round_trip(tmp_path):
    topo = generate_topology(TopologyConfig(node_count=60, fragment_count=3, seed=5))
    path = tmp_path / "net.topo"
    save_topology(topo, path)
    loaded = load_topology(path)
    assert loaded.roles == topo.roles
    assert loaded.edges == topo.edges
    assert loaded.bridge_edges == topo.bridge_edges and len(topo.bridge_edges) == 2
    assert loaded.fragment_of == topo.fragment_of
    # Deterministic file body: saving the loaded copy reproduces the bytes.
    second = tmp_path / "net2.topo"
    save_topology(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_loaded_topology_keeps_fragment_remedies(tmp_path):
    config = SimulationConfig(
        topology=TopologyConfig(node_count=60, fragment_count=3, seed=5), cell_types=3,
        strategy="trails", start_fragment=1, bridge_fallback=True, duration=80,
    )
    engine = Engine(config)
    save_topology(engine.topology, tmp_path / "net.topo")
    generated, loaded = engine.run(), Engine(config, topology=load_topology(tmp_path / "net.topo")).run()
    assert loaded.summary() == generated.summary()
    assert (loaded.entity_counts == generated.entity_counts).all()


THREE_NODES = "nodes 3\nnode 0 gateway\nnode 1 router\nnode 2 router\nedge 0 1\n"


def test_file_without_fragments_loads_as_one_fragment(tmp_path):
    path = tmp_path / "old.topo"
    path.write_text(THREE_NODES + "edge 1 2\n", encoding="utf-8")
    loaded = load_topology(path)
    assert loaded.fragment_of == [0, 0, 0] and loaded.bridge_edges == []


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.topo"
    bad.write_text("not a header\n", encoding="utf-8")
    with pytest.raises(TopologyError):
        load_topology(bad)
    sparse = tmp_path / "sparse.topo"
    sparse.write_text("nodes 3\nnode 0 router\nnode 2 router\n", encoding="utf-8")
    with pytest.raises(TopologyError):
        load_topology(sparse)
    bad.write_text(THREE_NODES + "bridge 1 2\n", encoding="utf-8")
    with pytest.raises(TopologyError, match="bridge 1 2"):
        load_topology(bad)
    two_nodes = "nodes 2\nnode 0 gateway\nnode 1 router\n"
    for text, line in [
        ("nodes 2\nnode 0 gateway\nnode 1 bogus\n", "node 1 bogus"),
        (two_nodes + "edge 0 5\n", "edge 0 5"),
        (two_nodes + "edge 1\n", "edge 1"),
        ("nodes x\nnode 0 gateway\n", "nodes x"),
        (two_nodes + "edge 1 1\n", "edge 1 1.*self-loop"),
        (two_nodes + "edge 0 1\nedge 1 0\n", "edge 1 0.*duplicate edge"),
        (two_nodes + "node 0 router\n", "node 0 router.*repeated node"),
        (two_nodes + "edge 0 1\nbridge 0 1\nbridge 0 1\n", "bridge 0 1.*duplicate bridge"),
        (two_nodes + "edge 0 1\nbridge 0 1\nbridge 1 0\n", "bridge 1 0.*duplicate bridge"),
        ("nodes 2 7\nnode 0 gateway\nnode 1 router\n", "nodes 2 7"),
        ("nodes 2\nnode 0 gateway 0 extra\nnode 1 router\n", "node 0 gateway 0 extra"),
        (two_nodes + "edge 0 1 9\n", "edge 0 1 9"),
    ]:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(TopologyError, match=f"bad.topo.*{line}"):
            load_topology(bad)
