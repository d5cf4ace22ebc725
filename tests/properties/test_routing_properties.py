"""Differential property: switch-rooted routing equals per-destination BFS.

``Topology`` builds one next-hop table per root switch over the
switch-only graph.  The reference below is the straightforward
alternative: one breadth-first search over the *whole* graph from every
destination, neighbours visited in sorted-name order.  Across random
rings, tori (with empty router slots) and fat-trees (including
oversubscribed edge tiers), every (node, dst) pair over hosts and
switches must get the same next hop, the same path, and a ``KeyError``
exactly where the reference raises one.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.topology import Topology, TopologySpec


class ReferenceRouting:
    """Full-graph BFS per destination over ``topology.adjacency``."""

    def __init__(self, topology: Topology) -> None:
        self.adjacency = topology.adjacency
        self.tables: dict[str, dict[str, str]] = {}

    def table_for(self, dst: str) -> dict[str, str]:
        table = self.tables.get(dst)
        if table is None:
            table = {}
            frontier = deque([dst])
            seen = {dst}
            while frontier:
                node = frontier.popleft()
                for neighbour in self.adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        table[neighbour] = node
                        frontier.append(neighbour)
            self.tables[dst] = table
        return table

    def next_hop(self, node: str, dst: str) -> str:
        if dst not in self.adjacency:
            raise KeyError(f"unknown destination {dst!r}")
        try:
            return self.table_for(dst)[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def path(self, src: str, dst: str) -> list[str]:
        if src == dst:
            return [src]
        nodes = [src]
        while nodes[-1] != dst:
            nodes.append(self.next_hop(nodes[-1], dst))
        return nodes


def _outcome(call, *args):
    try:
        return call(*args)
    except KeyError:
        return KeyError


@st.composite
def topologies(draw) -> Topology:
    kind = draw(st.sampled_from(("ring", "torus", "fat_tree")))
    if kind == "ring":
        spec = TopologySpec(kind="ring")
        capacity = 12
    elif kind == "torus":
        dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
        capacity = 1
        for d in dims:
            capacity *= d
        if capacity < 2:
            dims, capacity = dims + (2,), capacity * 2
        spec = TopologySpec(kind="torus", dims=dims)
    else:
        k = draw(st.sampled_from((2, 4, 6)))
        spec = TopologySpec(kind="fat_tree", k=k)
        # Up to twice the nominal k^3/4 slots: oversubscribed edge tiers.
        capacity = min(k**3 // 2, 40)
    n = draw(st.integers(2, capacity))
    return spec.build([f"node{i}" for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(topologies())
def test_routing_matches_full_graph_bfs(topology):
    reference = ReferenceRouting(topology)
    nodes = sorted(topology.adjacency)
    for dst in nodes:
        for node in nodes:
            expected = _outcome(reference.next_hop, node, dst)
            assert _outcome(topology.next_hop, node, dst) == expected, (node, dst)
            assert topology.path(node, dst) == reference.path(node, dst), (node, dst)
        # The reference's KeyError cases still raise KeyError.
        with pytest.raises(KeyError):
            topology.next_hop(dst, dst)
        with pytest.raises(KeyError):
            topology.next_hop("nowhere", dst)
        with pytest.raises(KeyError):
            topology.next_hop(dst, "nowhere")
        with pytest.raises(KeyError):
            topology.path("nowhere", dst)
        with pytest.raises(KeyError):
            topology.path(dst, "nowhere")
