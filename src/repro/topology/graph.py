"""A minimal undirected graph with attributes, in insertion order.

The topology layer needs a dict-of-dicts graph and nothing more: nodes
and edges with attribute dicts, iteration, adjacency and connectivity.
:class:`Graph` keeps the iteration order of ``networkx.Graph`` exactly —
nodes in insertion order, each edge once, reported from the endpoint
that was added first, in that node's neighbour order — because that
order is part of the topology: :func:`~repro.topology.inet.generate_ip_network`
draws one random value per edge in edge order, and every link-indexed
list (:attr:`~repro.topology.routing.OverlayRouter.link_order`) follows it.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Set

__all__ = ["Graph", "connected_components", "is_connected"]


class _Nodes:
    """``graph.nodes``: iterate, test membership, ``nodes[n]`` is ``n``'s
    attribute dict, ``nodes(data=True)`` yields ``(n, attrs)`` and
    ``nodes(data=name)`` yields ``(n, attrs.get(name))``."""

    __slots__ = ("_attrs",)

    def __init__(self, attrs: Dict[Hashable, dict]) -> None:
        self._attrs = attrs

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._attrs

    def __getitem__(self, node: Hashable) -> dict:
        return self._attrs[node]

    def __call__(self, data: Any = False) -> Iterator:
        if data is False:
            return iter(self._attrs)
        if data is True:
            return iter(self._attrs.items())
        return ((n, d.get(data)) for n, d in self._attrs.items())


class _Edges:
    """``graph.edges``: iterate ``(u, v)`` pairs, ``edges[u, v]`` is the
    edge's attribute dict (shared by both directions), ``edges(data=True)``
    yields ``(u, v, attrs)`` and ``edges(data=name)`` ``(u, v, attrs.get(name))``."""

    __slots__ = ("_adj",)

    def __init__(self, adj: Dict[Hashable, Dict[Hashable, dict]]) -> None:
        self._adj = adj

    def _triples(self) -> Iterator:
        seen: Set[Hashable] = set()
        for u, nbrs in self._adj.items():
            for v, d in nbrs.items():
                if v not in seen:
                    yield u, v, d
            seen.add(u)

    def __iter__(self) -> Iterator:
        return ((u, v) for u, v, _ in self._triples())

    def __len__(self) -> int:
        return sum(1 for _ in self._triples())

    def __getitem__(self, edge) -> dict:
        u, v = edge
        return self._adj[u][v]

    def __call__(self, data: Any = False) -> Iterator:
        if data is False:
            return iter(self)
        if data is True:
            return self._triples()
        return ((u, v, d.get(data)) for u, v, d in self._triples())


class Graph:
    """An undirected graph: hashable nodes, at most one edge per pair,
    an attribute dict per node and per edge."""

    def __init__(self) -> None:
        self._node: Dict[Hashable, dict] = {}
        self._adj: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.nodes = _Nodes(self._node)
        self.edges = _Edges(self._adj)

    def add_node(self, node: Hashable, **attr) -> None:
        if node not in self._node:
            self._adj[node] = {}
            self._node[node] = {}
        self._node[node].update(attr)

    def add_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Hashable, v: Hashable, **attr) -> None:
        """Add the edge ``u``–``v`` (and either node if new), or update the
        attributes of the one that exists: its place in the order stays."""
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v, {})
        data.update(attr)
        self._adj[u][v] = data
        self._adj[v][u] = data

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._adj[node])

    def degree(self, node: Any = None):
        """``node``'s degree (a self-loop counts twice), or every
        ``(node, degree)`` pair when no node is given."""
        if node is None:
            return [(n, self.degree(n)) for n in self._adj]
        nbrs = self._adj[node]
        return len(nbrs) + (node in nbrs)

    def number_of_nodes(self) -> int:
        return len(self._node)

    def number_of_edges(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return len(self._node)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._node)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._node


def connected_components(g: Graph) -> Iterator[Set[Hashable]]:
    """Each component's node set, in the order of its first node."""
    seen: Set[Hashable] = set()
    for start in g:
        if start in seen:
            continue
        component = {start}
        frontier: List[Hashable] = [start]
        while frontier:
            node = frontier.pop()
            for nbr in g.neighbors(node):
                if nbr not in component:
                    component.add(nbr)
                    frontier.append(nbr)
        seen |= component
        yield component


def is_connected(g: Graph) -> bool:
    """True when every node reaches every other (False for no nodes)."""
    if len(g) == 0:
        return False
    return len(next(connected_components(g))) == len(g)
