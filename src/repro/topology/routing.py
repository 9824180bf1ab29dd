"""Shortest-path routing over the IP layer and the overlay.

The paper's simulator "performs IP-layer and overlay-layer data routing
using shortest path routing".  We provide both layers, on one routine:

* :func:`shortest_paths` — single-source Dijkstra with a binary heap over
  an index adjacency.  A node's predecessor is set only when its distance
  strictly improves, so where two paths tie exactly the one found first
  (from the node settled first) is kept, and a distance is the float sum
  along its path from the source, in path order.
* :class:`IPRouter` — delay-weighted shortest paths on the router graph,
  one :func:`shortest_paths` run per source router asked about (the
  peers' routers), kept with its predecessors: overlay construction reads
  both the delays between peers and the bottleneck bandwidth of each
  overlay link's IP path from the same run.
* :class:`OverlayRouter` — all-pairs shortest paths over the (much
  smaller) overlay graph, one run per peer, with each source's distance
  row and predecessor row kept so overlay paths (the ℘ⱼ of Eq. 1, whose
  bottleneck bandwidth the cost function consumes) can be reconstructed
  in O(path length).
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

Adjacency = List[List[Tuple[int, float]]]


class NoPathError(LookupError):
    """Raised for a path between two nodes that no route connects."""


def _adjacency(n: int, edges: Iterable[Tuple[int, int, float]]) -> Adjacency:
    """Index adjacency of an undirected graph on ``0..n-1`` from ``(i, j,
    weight)`` triples.  A non-finite weight leaves its edge out of every
    shortest path (the edge stays in the graph)."""
    adj: Adjacency = [[] for _ in range(n)]
    for i, j, w in edges:
        if w < math.inf:
            adj[i].append((j, w))
            adj[j].append((i, w))
    return adj


def shortest_paths(adj: Adjacency, source: int) -> Tuple[List[float], List[int]]:
    """Dijkstra from ``source`` over non-negative weights: the distance to
    every node (``inf`` if unreached) and its predecessor on the path
    (:data:`NO_PREDECESSOR` for the source and unreached nodes)."""
    dist = [math.inf] * len(adj)
    pred = [NO_PREDECESSOR] * len(adj)
    dist[source] = 0.0
    heap = [(0.0, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue  # a stale entry: u was settled closer
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return dist, pred


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
            dist, pred = shortest_paths(self._adj, i)
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

    Computes every peer's distance and predecessor rows once (one
    :func:`shortest_paths` run per peer; the overlay has at most ~1000
    peers); exposes ``delay``, ``path`` (peer sequence) and ``links``
    (overlay edge sequence) used by bandwidth admission along service
    links.  The rows are compact ``array`` rows: a float and an int per
    pair, as a NumPy matrix would hold them, where lists of Python
    objects would take more than three times the memory.

    A router's routes never change, so everything derived from them is
    memoized on the router itself: ``path``/``links``/``link_index_list``
    pay the predecessor-row walk once per (src, dst) pair and serve
    dict hits afterwards — these are the hottest calls of BCP probing
    (bandwidth admission and ψλ evaluate them per candidate per hop) —
    and ``path_loss_add`` keeps each pair's additive loss beside them.
    Cached lists are shared: treat them as read-only.  Routing that
    changes is a *new* router (:meth:`reweighted`, what the measurement
    plane installs), which starts with empty memos; a memo kept outside
    the router (BCP's per-pair link QoS) remembers which router it was
    filled from and refills when that is no longer the one installed.
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
        # endpoints (node indices) and declared delays of the edges, in
        # link order: all the routing needs of the graph
        self._edge_ends = [(index[u], index[v]) for u, v in self._link_order]
        self._edge_delays = [float(d) for _, _, d in overlay_graph.edges(data="delay")]
        self._route(dict(delay_overrides) if delay_overrides else {})
        self._cache_enabled = True
        self.clear_cache()

    def _route(self, overrides: Dict[Tuple[int, int], float]) -> None:
        """Every peer's distance and predecessor rows, with ``overrides``
        (canonical-link keyed) in place of the declared delays."""
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
        for source in range(len(adj)):
            dist, pred = shortest_paths(adj, source)
            self._dist.append(array("d", dist))
            self._pred.append(array("i", pred))

    @property
    def peers(self) -> List[int]:
        return list(self._nodelist)

    @property
    def link_order(self) -> List[Tuple[int, int]]:
        """Canonically ordered overlay links, defining list indices."""
        return list(self._link_order)

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
        by it (:class:`~repro.core.resources.ResourcePool`) valid.  The new
        router starts with empty memos."""
        out = copy.copy(self)
        out._route(dict(overrides))
        out.clear_cache()
        return out

    def set_path_cache(self, enabled: bool) -> None:
        """Toggle path memoization (A/B tests); always clears the cache."""
        self._cache_enabled = enabled
        self.clear_cache()

    def clear_cache(self) -> None:
        """Drop all memoized paths/links/indices and losses."""
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}
        self._links_cache: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._link_idx_list_cache: Dict[Tuple[int, int], List[int]] = {}
        self._loss_cache: Dict[Tuple[int, int], float] = {}

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

    def path_loss_add(self, src: int, dst: int) -> float:
        """Additive (−log survival) loss along the routed path src→dst,
        the sum of its links' ``loss_add`` in path order; ``inf`` when dst
        is unreachable, like the delay metric."""
        if src == dst:
            return 0.0
        key = (src, dst)
        hit = self._loss_cache.get(key)
        if hit is None:
            edges = self.graph.edges
            try:
                hit = sum(float(edges[link]["loss_add"]) for link in self.links(src, dst))
            except NoPathError:
                hit = math.inf
            if self._cache_enabled:
                self._loss_cache[key] = hit
        return hit

    def path(self, src: int, dst: int) -> List[int]:
        """Overlay peer path from src to dst (inclusive).  Read-only."""
        key = (src, dst)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        i, j = self._index[src], self._index[dst]
        # _walk inline: a cold pair's walk is on BCP's hot path
        pred = self._pred[i]
        hops = [j]
        while pred[j] >= 0:
            j = pred[j]
            hops.append(j)
        if hops[-1] != i:
            raise NoPathError(f"no overlay path {src}->{dst}")
        nodelist = self._nodelist
        hops_out = [nodelist[h] for h in reversed(hops)]
        if self._cache_enabled:
            self._path_cache[key] = hops_out
        return hops_out

    def links(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Overlay links (canonically ordered pairs) along the path.
        Read-only: the returned list is shared with the cache."""
        key = (src, dst)
        hit = self._links_cache.get(key)
        if hit is not None:
            return hit
        hops = self.path(src, dst)
        out = [(a, b) if a < b else (b, a) for a, b in zip(hops, hops[1:])]
        if self._cache_enabled:
            self._links_cache[key] = out
        return out

    def link_index_list(self, src: int, dst: int) -> List[int]:
        """Indices (into :attr:`link_order`) of the path's links: what
        :class:`~repro.core.resources.ResourcePool` reads its per-link
        capacity/usage lists by.  Read-only: shared with the cache."""
        key = (src, dst)
        hit = self._link_idx_list_cache.get(key)
        if hit is not None:
            return hit
        out = [self._link_index[l] for l in self.links(src, dst)]
        if self._cache_enabled:
            self._link_idx_list_cache[key] = out
        return out

    def link_index_lists(self, src: int, dsts: Sequence[int]) -> List[List[int]]:
        """``[link_index_list(src, d) for d in dsts]`` in one call: a
        cached list is read inline, and only a miss walks the path."""
        cache = self._link_idx_list_cache
        out = []
        for dst in dsts:
            hit = cache.get((src, dst))
            out.append(hit if hit is not None else self.link_index_list(src, dst))
        return out

    def delay_matrix(self) -> np.ndarray:
        """The full pairwise delay matrix, indexed by :attr:`peers` order."""
        return np.array(self._dist)
