"""Declarative interconnect topologies with deterministic routing.

The paper's evaluation wires exactly two NICs through one switch; at
scale the interconnect is a *graph* — hosts hanging off edge switches,
switches meshed into a fat-tree or a ring/torus.  This module provides
the declarative :class:`TopologySpec` (what shape, which parameters —
hashable, so it can live inside :class:`~repro.network.config.NetworkConfig`
and key the campaign result cache) and the built :class:`Topology`
(the concrete node/link graph plus shortest-path routing tables).

Routing is deterministic: next-hop tables come from a breadth-first
search rooted at each destination's switch, with neighbours visited in
sorted-name order, so every (src, dst) pair resolves to the same
minimal path on every run, process and machine.  There is no adaptive
or multi-path routing — two flows crossing the same link contend for it
(see :class:`~repro.network.wire.Wire`), which is exactly the effect
the scale-out experiments need to observe.

Hosts never forward: each host attaches to exactly one switch, so a
shortest path can only transit switches, and the tree toward a host is
the tree toward its switch plus one last hop.  Tables are therefore
built lazily per root switch over the switch-only graph, not per host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

__all__ = ["Topology", "TopologySpec"]

#: Recognised topology kinds.
KINDS = ("ring", "torus", "fat_tree")


@dataclass(frozen=True)
class TopologySpec:
    """A declarative description of the interconnect shape.

    Attributes
    ----------
    kind:
        ``"ring"`` (one router switch per host, switches in a cycle),
        ``"torus"`` (router grid with wraparound in every dimension) or
        ``"fat_tree"`` (three-tier k-ary fat-tree; hosts distributed in
        contiguous blocks across the edge switches, so oversubscribed
        clusters — 64 hosts on k=4 — are allowed).
    k:
        Fat-tree arity (even, >= 2).  Ignored by ring/torus.
    dims:
        Torus grid dimensions, e.g. ``(4, 4)``.  Ignored otherwise.
    """

    kind: str = "fat_tree"
    k: int = 4
    dims: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; choose from {', '.join(KINDS)}"
            )
        if self.kind == "fat_tree":
            if self.k < 2 or self.k % 2:
                raise ValueError(f"fat-tree arity k must be even and >= 2, got {self.k}")
        if self.kind == "torus":
            if not self.dims:
                raise ValueError("a torus needs at least one dimension")
            if any(d < 1 for d in self.dims):
                raise ValueError(f"torus dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(self.dims))

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        """Parse ``"ring"``, ``"torus:4x4"`` or ``"fat_tree:4"``."""
        kind, _, arg = text.partition(":")
        kind = kind.strip()
        if kind == "ring":
            return cls(kind="ring")
        if kind == "torus":
            if not arg:
                raise ValueError("torus spec needs dimensions, e.g. 'torus:4x4'")
            try:
                dims = tuple(int(d) for d in arg.split("x"))
            except ValueError:
                raise ValueError(
                    f"cannot parse topology {text!r}; expected 'torus:AxBx...'"
                ) from None
            return cls(kind="torus", dims=dims)
        if kind == "fat_tree":
            try:
                k = int(arg) if arg else 4
            except ValueError:
                raise ValueError(
                    f"cannot parse topology {text!r}; expected 'fat_tree:K'"
                ) from None
            return cls(kind="fat_tree", k=k)
        raise ValueError(
            f"cannot parse topology {text!r}; expected one of "
            "'ring', 'torus:AxBx...', 'fat_tree:K'"
        )

    def build(self, host_names: list[str] | tuple[str, ...]) -> "Topology":
        """Instantiate the graph for the given ordered host names."""
        hosts = tuple(host_names)
        if len(hosts) < 2:
            raise ValueError(f"a topology needs at least two hosts, got {len(hosts)}")
        if len(set(hosts)) != len(hosts):
            raise ValueError("duplicate host names")
        if self.kind == "ring":
            edges = _ring_edges(hosts)
        elif self.kind == "torus":
            edges = _torus_edges(hosts, self.dims)
        else:
            edges = _fat_tree_edges(hosts, self.k)
        return Topology(spec=self, hosts=hosts, edges=edges)


def _ring_edges(hosts: tuple[str, ...]) -> list[tuple[str, str]]:
    """One router per host, routers in a cycle."""
    n = len(hosts)
    edges = [(host, f"ring.s{i}") for i, host in enumerate(hosts)]
    # At n = 2 both cables join s0 and s1; Topology keeps one.
    edges += [(f"ring.s{i}", f"ring.s{(i + 1) % n}") for i in range(n)]
    return edges


def _torus_edges(
    hosts: tuple[str, ...], dims: tuple[int, ...]
) -> list[tuple[str, str]]:
    """Router grid with wraparound links; hosts row-major on the grid."""
    capacity = 1
    for d in dims:
        capacity *= d
    if len(hosts) > capacity:
        raise ValueError(
            f"{len(hosts)} hosts do not fit a {'x'.join(map(str, dims))} torus "
            f"({capacity} router slots)"
        )

    def coord(index: int) -> tuple[int, ...]:
        out = []
        for d in reversed(dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))

    def sw(coords: tuple[int, ...]) -> str:
        return "torus.s" + "_".join(map(str, coords))

    edges = [(host, sw(coord(i))) for i, host in enumerate(hosts)]
    seen: set[frozenset[str]] = set()
    for index in range(capacity):
        here = coord(index)
        for axis, size in enumerate(dims):
            if size < 2:
                continue
            there = list(here)
            there[axis] = (here[axis] + 1) % size
            pair = frozenset((sw(here), sw(tuple(there))))
            if len(pair) == 2 and pair not in seen:
                seen.add(pair)
                edges.append((sw(here), sw(tuple(there))))
    return edges


def _fat_tree_edges(hosts: tuple[str, ...], k: int) -> list[tuple[str, str]]:
    """Three-tier k-ary fat-tree: k pods x (k/2 edge + k/2 aggr), (k/2)^2 core.

    Hosts are distributed in contiguous blocks across the k^2/2 edge
    switches (as evenly as possible), so consecutive ranks share an edge
    switch — the layout a batch scheduler would produce — and host
    counts beyond the tree's nominal k^3/4 capacity model an
    oversubscribed edge tier rather than failing.
    """
    half = k // 2
    edge_switches = [f"ft.p{p}e{e}" for p in range(k) for e in range(half)]
    base, extra = divmod(len(hosts), len(edge_switches))
    edges: list[tuple[str, str]] = []
    cursor = 0
    for index, switch in enumerate(edge_switches):
        take = base + (1 if index < extra else 0)
        for host in hosts[cursor : cursor + take]:
            edges.append((host, switch))
        cursor += take
    for p in range(k):
        for e in range(half):
            for a in range(half):
                edges.append((f"ft.p{p}e{e}", f"ft.p{p}a{a}"))
    for p in range(k):
        for a in range(half):
            for c in range(a * half, (a + 1) * half):
                edges.append((f"ft.p{p}a{a}", f"ft.c{c}"))
    return edges


class Topology:
    """A built interconnect graph with deterministic routing tables.

    Nodes are strings: the attached host (NIC) names plus generated
    switch names.  ``edges`` lists undirected cables; every cable is
    two simplex :class:`~repro.network.wire.Wire` objects once the
    :class:`~repro.network.fabric.Fabric` materialises it.
    """

    def __init__(
        self,
        spec: TopologySpec,
        hosts: tuple[str, ...],
        edges: list[tuple[str, str]],
    ) -> None:
        self.spec = spec
        self.hosts = hosts
        host_set = set(hosts)
        adjacency: dict[str, list[str]] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        self.switches: tuple[str, ...] = tuple(
            sorted(n for n in adjacency if n not in host_set)
        )
        #: Neighbours in sorted order — the routing tie-break.
        self.adjacency: dict[str, tuple[str, ...]] = {
            node: tuple(sorted(set(neighbours)))
            for node, neighbours in adjacency.items()
        }
        for host in hosts:
            neighbours = self.adjacency.get(host, ())
            if len(neighbours) != 1 or neighbours[0] in host_set:
                raise ValueError(
                    f"host {host!r} must attach to exactly one switch, "
                    f"has neighbours {list(neighbours)}"
                )
        #: Routing root of every node: a switch is its own, a host's is
        #: the switch it hangs off (its only neighbour).
        self._root: dict[str, str] = {s: s for s in self.switches}
        self._root.update((host, self.adjacency[host][0]) for host in hosts)
        self._switch_adjacency: dict[str, tuple[str, ...]] = {
            s: tuple(n for n in self.adjacency[s] if n not in host_set)
            for s in self.switches
        }
        #: Lazily built next-hop tables, one per root switch.
        self._next_hop: dict[str, dict[str, str]] = {}
        self._check_connected()

    def _check_connected(self) -> None:
        start = self.hosts[0]
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbour in self.adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        missing = sorted(set(self.adjacency) - seen)
        if missing:
            raise ValueError(f"topology is disconnected; unreachable: {missing}")

    @cached_property
    def links(self) -> tuple[tuple[str, str], ...]:
        """All directed links (u, v), sorted — one simplex wire each."""
        out = []
        for node, neighbours in self.adjacency.items():
            for neighbour in neighbours:
                out.append((node, neighbour))
        return tuple(sorted(out))

    def _table_for(self, root: str) -> dict[str, str]:
        """next-hop-toward-``root`` for every other switch, via BFS.

        Hosts are leaves of every BFS tree, so searching the switch-only
        graph in sorted-name order visits switches in exactly the order
        a full-graph search from any host on ``root`` would.
        """
        table = self._next_hop.get(root)
        if table is None:
            table = {}
            frontier = deque([root])
            seen = {root}
            while frontier:
                node = frontier.popleft()
                for neighbour in self._switch_adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        table[neighbour] = node
                        frontier.append(neighbour)
            self._next_hop[root] = table
        return table

    def next_hop(self, node: str, dst: str) -> str:
        """The neighbour ``node`` forwards to on the way to ``dst``."""
        root = self._root.get(dst)
        if root is None:
            raise KeyError(f"unknown destination {dst!r}")
        hop = self._root.get(node)
        if hop is None or node == dst:
            raise KeyError(f"unknown node {node!r}")
        if hop != node:
            return hop  # a host forwards to its switch
        if node == root:
            return dst
        return self._table_for(root)[node]

    def path(self, src: str, dst: str) -> list[str]:
        """The full routed node sequence ``[src, ..., dst]``."""
        if src == dst:
            return [src]
        root = self._root.get(dst)
        if root is None:
            raise KeyError(f"unknown destination {dst!r}")
        start = self._root.get(src)
        if start is None:
            raise KeyError(f"unknown node {src!r}")
        nodes = [src] if start == src else [src, start]
        table = self._table_for(root)
        while nodes[-1] != root:
            nodes.append(table[nodes[-1]])
        if root != dst:
            nodes.append(dst)
        return nodes

    def hop_counts(self, src: str, dst: str) -> tuple[int, int]:
        """(wires, switches) on the routed path ``src -> dst``."""
        nodes = self.path(src, dst)
        return len(nodes) - 1, max(len(nodes) - 2, 0)

    def path_network_latency_ns(self, src: str, dst: str, config) -> float:
        """One-way network time on the routed path, zero-load.

        Each cable contributes the full configured wire latency, each
        transited switch its hop delay — the paper's Network = Wire +
        Switch generalised to multi-hop paths (serialisation excluded;
        it is per-frame, not per-path).
        """
        wires, switches = self.hop_counts(src, dst)
        return wires * config.wire_latency_ns + switches * config.switch_latency_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.spec.kind} hosts={len(self.hosts)}"
            f" switches={len(self.switches)} links={len(self.links)}>"
        )
