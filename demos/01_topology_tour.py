"""Tour of the topology generator.

Builds a small company-style network, inspects its structure, shows the
deterministic text export, then builds a deliberately fragmented variant and
demonstrates that removing the bridge splits it in two.
"""

import tempfile
from collections import Counter
from pathlib import Path

from sentinet import TopologyConfig, generate_topology, save_topology

config = TopologyConfig(node_count=40, backbone_redundancy=0.4, seed=7)
topology = generate_topology(config)

print("== 40-node network ==")
print("roles:", dict(Counter(role.value for role in topology.roles)))
print("edges:", len(topology.edges))
print("gateway node:", topology.gateway)

print("degree range:", topology.degrees.min(), "to", topology.degrees.max())

gateway_dist = topology.hop_distances(topology.gateway)
print("network radius from gateway:", int(gateway_dist.max()))

print("\nfirst lines of the text export:")
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_net.topo"
    save_topology(topology, path)
    for line in path.read_text(encoding="utf-8").splitlines()[:6]:
        print("   ", line)

print("\n== fragmented variant ==")
frag = generate_topology(
    TopologyConfig(node_count=40, fragment_count=2, bridges_per_fragment_pair=1, seed=7)
)
bridge = frag.bridge_edges[0]
print(f"bridge link: {bridge.u} -- {bridge.v}")
whole = frag.connected_components()
split = frag.connected_components(skip_links={bridge.link_id})
print("components with bridge:", len(whole), "| without bridge:", len(split))
print("fragment sizes:", [len(c) for c in split])
