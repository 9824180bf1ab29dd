"""Shortest-path routing over the IP layer and the overlay.

The paper's simulator "performs IP-layer and overlay-layer data routing
using shortest path routing".  We provide both layers, on one routine:

* :func:`shortest_paths` — single-source Dijkstra with a binary heap over
  an index adjacency.  A node's predecessor, and the edge it was reached
  by, are set only when its distance strictly improves, so where two
  paths tie exactly the one found first (from the node settled first) is
  kept, and a distance is the float sum along its path from the source,
  in path order.
* :class:`IPRouter` — delay-weighted shortest paths on the router graph,
  one :func:`shortest_paths` run per source router asked about (the
  peers' routers), kept with its predecessors: overlay construction reads
  both the delays between peers and the bottleneck bandwidth of each
  overlay link's IP path from the same run.
* :class:`OverlayRouter` — all-pairs shortest paths over the (much
  smaller) overlay graph, one run per peer, with each source's distance,
  predecessor and parent-edge rows kept: every overlay path (the ℘ⱼ of
  Eq. 1, whose bottleneck bandwidth the cost function consumes) is read
  off them in O(path length).
"""

from __future__ import annotations

import copy
import heapq
import math
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph

__all__ = ["IPRouter", "NoPathError", "OverlayRouter", "shortest_paths"]

# the predecessor of a source, and of a node it does not reach
NO_PREDECESSOR = -9999

Adjacency = List[List[Tuple[int, float, int]]]


class NoPathError(LookupError):
    """Raised for a path between two nodes that no route connects."""


def _adjacency(n: int, edges: Iterable[Tuple[int, int, float]]) -> Adjacency:
    """Index adjacency of an undirected graph on ``0..n-1`` from ``(i, j,
    weight)`` triples: each node's ``(neighbour, weight, k)``, ``k`` the
    edge's position in ``edges``.  A non-finite weight leaves its edge out
    of every shortest path (the edge stays in the graph)."""
    adj: Adjacency = [[] for _ in range(n)]
    for k, (i, j, w) in enumerate(edges):
        if w < math.inf:
            adj[i].append((j, w, k))
            adj[j].append((i, w, k))
    return adj


def shortest_paths(adj: Adjacency, source: int) -> Tuple[List[float], List[int], List[int]]:
    """Dijkstra from ``source`` over non-negative weights: the distance to
    every node (``inf`` if unreached), its predecessor on the path and its
    parent edge, the ``k`` of the edge joining the two
    (:data:`NO_PREDECESSOR` for both at the source and unreached nodes)."""
    dist = [math.inf] * len(adj)
    pred = [NO_PREDECESSOR] * len(adj)
    pedge = [NO_PREDECESSOR] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # a stale entry: u was settled closer
        for v, w, k in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                pedge[v] = k
                push(heap, (nd, v))
    return dist, pred, pedge


def _walk(pred: Sequence[int], i: int, j: int) -> List[int]:
    """Indices along the path ``i`` → ``j`` recorded in ``i``'s predecessor row."""
    hops = [j]
    while pred[j] >= 0:
        j = pred[j]
        hops.append(j)
    if hops[-1] != i:
        raise NoPathError
    hops.reverse()
    return hops


class IPRouter:
    """Delay-based shortest paths on the router-level graph."""

    def __init__(self, ip_graph: Graph) -> None:
        self.graph = ip_graph
        self._nodelist = list(ip_graph.nodes)
        index = self._index = {v: i for i, v in enumerate(self._nodelist)}
        self._adj = _adjacency(
            len(self._nodelist),
            ((index[u], index[v], float(d)) for u, v, d in ip_graph.edges(data="delay")),
        )
        self._trees: Dict[int, Tuple[array, array]] = {}

    def _tree(self, src: int) -> Tuple[array, array]:
        """``src``'s distance and predecessor rows, as compact ``array`` rows."""
        if src not in self._index:
            raise KeyError(f"unknown router {src}")
        i = self._index[src]
        tree = self._trees.get(i)
        if tree is None:
            dist, pred, _ = shortest_paths(self._adj, i)
            tree = self._trees[i] = (array("d", dist), array("i", pred))
        return tree

    def delays_from(self, src: int) -> Sequence[float]:
        """Shortest-path delays from ``src`` to every router, in node order."""
        return self._tree(src)[0]

    def delay(self, src: int, dst: int) -> float:
        return self.delays_from(src)[self._index[dst]]

    def delay_matrix(self, routers: Sequence[int]) -> np.ndarray:
        """Shortest-path delays between every pair of ``routers`` (P×P)."""
        cols = [self._index[r] for r in routers]
        return np.array([[row[j] for j in cols] for row in map(self.delays_from, routers)])

    def path(self, src: int, dst: int) -> List[int]:
        """Router-level path (inclusive of endpoints)."""
        pred = self._tree(src)[1]
        try:
            hops = _walk(pred, self._index[src], self._index[dst])
        except NoPathError:
            raise NoPathError(f"no IP path {src}->{dst}") from None
        return [self._nodelist[k] for k in hops]

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck link bandwidth along the delay-shortest IP path."""
        hops = self.path(src, dst)
        if len(hops) < 2:
            return float("inf")
        return min(self.graph.edges[a, b]["bandwidth"] for a, b in zip(hops, hops[1:]))


class OverlayRouter:
    """All-pairs shortest paths over the overlay graph (delay metric).

    Computes every peer's distance, predecessor and parent-edge rows once
    (one :func:`shortest_paths` run per peer; the overlay has at most
    ~1000 peers).  The rows are compact ``array`` rows: a float and two
    ints per pair, as a NumPy matrix would hold them, where lists of
    Python objects would take more than three times the memory.

    Every route read walks the source's rows, in O(path length), and
    memoizes nothing: ``delay`` and ``delays_to`` read the distance row;
    ``path`` (peer sequence) walks the predecessors; ``link_index_list``
    (indices into :attr:`link_order`, what
    :class:`~repro.core.resources.ResourcePool` keeps its per-link
    capacity and usage lists by), ``links`` and ``path_loss_add`` walk the
    parent edges, and :meth:`tree` hands the pool both rows for its
    headroom reads.  Routing that changes is a *new* router
    (:meth:`reweighted`, what the measurement plane installs); a memo kept
    outside the router (BCP's per-pair link QoS) remembers which router it
    was filled from and refills when that is no longer the one installed.
    """

    def __init__(
        self,
        overlay_graph: Graph,
        delay_overrides: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        self.graph = overlay_graph
        self._nodelist = list(overlay_graph.nodes)
        index = self._index = {v: i for i, v in enumerate(self._nodelist)}
        # canonical link ordering shared with bandwidth queries
        # (ResourcePool keeps its capacity/usage lists in this order)
        self._link_order: List[Tuple[int, int]] = [
            (u, v) if u < v else (v, u) for u, v in overlay_graph.edges
        ]
        self._link_index: Dict[Tuple[int, int], int] = {
            l: i for i, l in enumerate(self._link_order)
        }
        # endpoints (node indices), declared delays and additive losses of
        # the edges, in link order: all the routing needs of the graph (a
        # link without ``loss_add`` holds ``None``, so a loss read over it
        # raises)
        self._edge_ends = [(index[u], index[v]) for u, v in self._link_order]
        self._edge_delays = [float(d) for _, _, d in overlay_graph.edges(data="delay")]
        self._edge_losses = [
            None if x is None else float(x) for _, _, x in overlay_graph.edges(data="loss_add")
        ]
        self._route(dict(delay_overrides) if delay_overrides else {})

    def _route(self, overrides: Dict[Tuple[int, int], float]) -> None:
        """Every peer's distance, predecessor and parent-edge rows, with
        ``overrides`` (canonical-link keyed) in place of the declared
        delays."""
        self._overrides = overrides
        delays = list(self._edge_delays)
        for link, delay in overrides.items():
            i = self._link_index.get(link)
            if i is not None:
                delays[i] = delay
        adj = _adjacency(
            len(self._nodelist), ((i, j, w) for (i, j), w in zip(self._edge_ends, delays))
        )
        self._dist: List[array] = []
        self._pred: List[array] = []
        self._pedge: List[array] = []
        for source in range(len(adj)):
            dist, pred, pedge = shortest_paths(adj, source)
            self._dist.append(array("d", dist))
            self._pred.append(array("i", pred))
            self._pedge.append(array("i", pedge))

    @property
    def peers(self) -> List[int]:
        return list(self._nodelist)

    @property
    def link_order(self) -> List[Tuple[int, int]]:
        """Canonically ordered overlay links, defining list indices."""
        return list(self._link_order)

    def link_index(self, u: int, v: int) -> int:
        """The position in :attr:`link_order` of the link joining ``u`` and ``v``."""
        return self._link_index[(u, v) if u < v else (v, u)]

    def link_delay(self, u: int, v: int) -> float:
        """Effective one-hop weight of an overlay edge (override-aware)."""
        link = (u, v) if u < v else (v, u)
        hit = self._overrides.get(link)
        if hit is not None:
            return hit
        return float(self.graph.edges[link]["delay"])

    def reweighted(self, overrides: Dict[Tuple[int, int], float]) -> "OverlayRouter":
        """A fresh router over the *same* graph with some link delays
        replaced (canonical-link keyed; ``inf`` prices a link out of every
        shortest path without removing the edge).

        Equal to ``OverlayRouter(graph, delay_overrides=overrides)``, but
        only the shortest paths are recomputed: the node index, the link
        order and the edge lists are this router's own, shared.  The shared
        :attr:`link_order` is also what keeps capacity/usage lists indexed
        by it (:class:`~repro.core.resources.ResourcePool`) valid."""
        out = copy.copy(self)
        out._route(dict(overrides))
        return out

    def delay(self, src: int, dst: int) -> float:
        try:
            return self._dist[self._index[src]][self._index[dst]]
        except KeyError as exc:
            raise KeyError(f"unknown peer {exc.args[0]}") from None

    def delays_to(self, src: int, dsts: Sequence[int]) -> List[float]:
        """``[delay(src, d) for d in dsts]`` as one read of ``src``'s row:
        BCP's next-hop metric reads the delays to every duplicate it
        ranks from the peer it ranks them at."""
        row = self._dist[self._index[src]]
        index = self._index
        return [row[index[d]] for d in dsts]

    def reachable(self, src: int, dst: int) -> bool:
        return self._dist[self._index[src]][self._index[dst]] < math.inf

    def tree(self, src: int) -> Tuple[Dict[int, int], array, array]:
        """``src``'s shortest-path tree: ``(index, pred, pedge)``, where
        ``index`` maps a peer to its node index, ``pred[j]`` is node ``j``'s
        parent and ``pedge[j]`` the :attr:`link_order` index of the link
        between them (both :data:`NO_PREDECESSOR` at ``src`` and at nodes it
        does not reach).  The router's own rows: read-only."""
        i = self._index[src]
        return self._index, self._pred[i], self._pedge[i]

    def path(self, src: int, dst: int) -> List[int]:
        """Overlay peer path from src to dst (inclusive)."""
        i, j = self._index[src], self._index[dst]
        try:
            hops = _walk(self._pred[i], i, j)
        except NoPathError:
            raise NoPathError(f"no overlay path {src}->{dst}") from None
        nodelist = self._nodelist
        return [nodelist[h] for h in hops]

    def link_index_list(self, src: int, dst: int) -> List[int]:
        """Indices (into :attr:`link_order`) of the path's links, in path
        order: what :class:`~repro.core.resources.ResourcePool` reads its
        per-link capacity/usage lists by."""
        i, j = self._index[src], self._index[dst]
        pred, pedge = self._pred[i], self._pedge[i]
        out = []
        p = pred[j]
        while p >= 0:
            out.append(pedge[j])
            j = p
            p = pred[j]
        if j != i:
            raise NoPathError(f"no overlay path {src}->{dst}")
        out.reverse()
        return out

    def links(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Overlay links (canonically ordered pairs) along the path."""
        order = self._link_order
        return [order[k] for k in self.link_index_list(src, dst)]

    def path_loss_add(self, src: int, dst: int) -> float:
        """Additive (−log survival) loss along the routed path src→dst,
        the sum of its links' ``loss_add`` in path order; ``inf`` when dst
        is unreachable, like the delay metric."""
        try:
            idx = self.link_index_list(src, dst)
        except NoPathError:
            return math.inf
        return sum(map(self._edge_losses.__getitem__, idx))

    def delay_matrix(self) -> np.ndarray:
        """The full pairwise delay matrix, indexed by :attr:`peers` order."""
        return np.array(self._dist)
