"""Tests for repro.network.topology: generators, routing, minimality."""

from collections import deque

import pytest

from repro.network.config import NetworkConfig
from repro.network.topology import KINDS, Topology, TopologySpec


def hosts(n):
    return [f"node{i}" for i in range(n)]


def bfs_distance(topology: Topology, src: str, dst: str) -> int:
    """Independent shortest-path length (in edges) for cross-checking."""
    seen = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        if node == dst:
            return seen[node]
        for neighbour in topology.adjacency[node]:
            if neighbour not in seen:
                seen[neighbour] = seen[node] + 1
                frontier.append(neighbour)
    raise AssertionError(f"{dst} unreachable from {src}")


class TestSpec:
    def test_parse_round_trips(self):
        assert TopologySpec.parse("ring") == TopologySpec(kind="ring")
        assert TopologySpec.parse("torus:4x2") == TopologySpec(
            kind="torus", dims=(4, 2)
        )
        assert TopologySpec.parse("fat_tree:8") == TopologySpec(kind="fat_tree", k=8)
        assert TopologySpec.parse("fat_tree") == TopologySpec(kind="fat_tree", k=4)

    @pytest.mark.parametrize("text", ["mesh", "torus", "fat_tree:x", ""])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            TopologySpec.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="dragonfly")
        with pytest.raises(ValueError):
            TopologySpec(kind="fat_tree", k=3)  # odd arity
        with pytest.raises(ValueError):
            TopologySpec(kind="torus", dims=())
        with pytest.raises(ValueError):
            TopologySpec(kind="torus", dims=(4, 0))

    def test_kinds_is_exhaustive(self):
        for kind in KINDS:
            spec = TopologySpec.parse(f"{kind}:2x2" if kind == "torus" else kind)
            assert spec.kind == kind

    def test_spec_is_hashable_config_material(self):
        # The spec lives inside NetworkConfig and keys the result cache.
        config = NetworkConfig(topology=TopologySpec.parse("fat_tree:4"))
        assert hash(config.topology) == hash(TopologySpec(kind="fat_tree", k=4))

    def test_build_rejects_degenerate_host_lists(self):
        spec = TopologySpec(kind="ring")
        with pytest.raises(ValueError):
            spec.build(["only"])
        with pytest.raises(ValueError):
            spec.build(["a", "a"])

    @pytest.mark.parametrize(
        "text,form", [("torus:4x", "'torus:AxBx...'"), ("fat_tree:x", "'fat_tree:K'")]
    )
    def test_parse_errors_name_the_spec_and_form(self, text, form):
        with pytest.raises(ValueError) as info:
            TopologySpec.parse(text)
        assert repr(text) in str(info.value) and form in str(info.value)

    def test_torus_capacity_enforced(self):
        with pytest.raises(ValueError):
            TopologySpec(kind="torus", dims=(2, 2)).build(hosts(5))


class TestGenerators:
    @pytest.mark.parametrize(
        "spec_text,n",
        [("ring", 4), ("ring", 7), ("torus:3x3", 9), ("torus:4x2", 6),
         ("fat_tree:4", 4), ("fat_tree:4", 16), ("fat_tree:4", 64)],
    )
    def test_hosts_have_degree_one(self, spec_text, n):
        topology = TopologySpec.parse(spec_text).build(hosts(n))
        for host in topology.hosts:
            assert len(topology.adjacency[host]) == 1

    def test_ring_switch_cycle(self):
        topology = TopologySpec.parse("ring").build(hosts(5))
        assert len(topology.switches) == 5
        for switch in topology.switches:
            # one host + two ring neighbours
            assert len(topology.adjacency[switch]) == 3

    def test_ring_links_pinned(self):
        # n = 2: both ring cables join s0 and s1, so one cable remains.
        assert TopologySpec.parse("ring").build(hosts(2)).links == (
            ("node0", "ring.s0"), ("node1", "ring.s1"),
            ("ring.s0", "node0"), ("ring.s0", "ring.s1"),
            ("ring.s1", "node1"), ("ring.s1", "ring.s0"),
        )
        assert TopologySpec.parse("ring").build(hosts(3)).links == (
            ("node0", "ring.s0"), ("node1", "ring.s1"), ("node2", "ring.s2"),
            ("ring.s0", "node0"), ("ring.s0", "ring.s1"), ("ring.s0", "ring.s2"),
            ("ring.s1", "node1"), ("ring.s1", "ring.s0"), ("ring.s1", "ring.s2"),
            ("ring.s2", "node2"), ("ring.s2", "ring.s0"), ("ring.s2", "ring.s1"),
        )

    def test_fat_tree_tier_counts(self):
        topology = TopologySpec.parse("fat_tree:4").build(hosts(16))
        edge = [s for s in topology.switches if "e" in s.split("p")[-1]]
        aggr = [s for s in topology.switches if "a" in s.split("p")[-1]]
        core = [s for s in topology.switches if s.startswith("ft.c")]
        assert len(edge) == 8 and len(aggr) == 8 and len(core) == 4

    def test_fat_tree_oversubscribed_blocks(self):
        # 64 hosts on k=4: 8 per edge switch, contiguous rank blocks.
        topology = TopologySpec.parse("fat_tree:4").build(hosts(64))
        first_edge = topology.adjacency["node0"][0]
        for i in range(8):
            assert topology.adjacency[f"node{i}"][0] == first_edge
        assert topology.adjacency["node8"][0] != first_edge

    def test_build_is_deterministic(self):
        a = TopologySpec.parse("fat_tree:4").build(hosts(16))
        b = TopologySpec.parse("fat_tree:4").build(hosts(16))
        assert a.adjacency == b.adjacency
        assert a.links == b.links
        for src in a.hosts:
            for dst in a.hosts:
                if src != dst:
                    assert a.path(src, dst) == b.path(src, dst)


class TestRouting:
    @pytest.fixture(scope="class")
    def fat_tree(self):
        return TopologySpec.parse("fat_tree:4").build(hosts(16))

    def test_every_pair_resolves_to_a_minimal_path(self, fat_tree):
        """ISSUE acceptance: every (src, dst) pair in a k=4 fat-tree
        routes along a path of provably minimal length."""
        for src in fat_tree.hosts:
            for dst in fat_tree.hosts:
                if src == dst:
                    continue
                path = fat_tree.path(src, dst)
                assert path[0] == src and path[-1] == dst
                # consecutive path nodes are adjacent
                for u, v in zip(path, path[1:]):
                    assert v in fat_tree.adjacency[u]
                # only switches forward
                assert all(n in fat_tree.switches for n in path[1:-1])
                assert len(path) - 1 == bfs_distance(fat_tree, src, dst)

    def test_intra_edge_vs_cross_pod_hop_counts(self, fat_tree):
        # node0/node1 share an edge switch; node0 -> node15 crosses pods.
        assert fat_tree.hop_counts("node0", "node1") == (2, 1)
        assert fat_tree.hop_counts("node0", "node15") == (6, 5)

    def test_path_network_latency_composes_hops(self, fat_tree):
        config = NetworkConfig()
        wires, switches = fat_tree.hop_counts("node0", "node15")
        assert fat_tree.path_network_latency_ns(
            "node0", "node15", config
        ) == pytest.approx(
            wires * config.wire_latency_ns + switches * config.switch_latency_ns
        )

    def test_ring_routes_take_the_short_way_round(self):
        topology = TopologySpec.parse("ring").build(hosts(6))
        wires, switches = topology.hop_counts("node0", "node1")
        assert (wires, switches) == (3, 2)
        # node0 -> node5 goes backwards round the ring, not through 5 switches
        assert topology.hop_counts("node0", "node5") == (3, 2)

    def test_unknown_nodes_raise(self, fat_tree):
        with pytest.raises(KeyError):
            fat_tree.next_hop("node0", "nowhere")
        with pytest.raises(KeyError):
            fat_tree.next_hop("nowhere", "node0")

    def test_at_most_one_routing_table_per_switch(self):
        # Hosts are leaves of every BFS tree, so tables are rooted at
        # switches: 128 hosts on k=8 need at most 80, not 128.
        topology = TopologySpec.parse("fat_tree:8").build(hosts(128))
        for src in topology.hosts:
            for dst in topology.hosts:
                topology.path(src, dst)
                if src != dst:
                    topology.next_hop(src, dst)
        assert len(topology.switches) == 80
        assert 0 < len(topology._next_hop) <= len(topology.switches)

    def test_hosts_must_attach_to_a_switch(self):
        with pytest.raises(ValueError, match="exactly one switch"):
            Topology(TopologySpec(kind="ring"), ("a", "b"), [("a", "b")])

    def test_trivial_path(self, fat_tree):
        assert fat_tree.path("node3", "node3") == ["node3"]
