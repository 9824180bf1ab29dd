"""Shortest-path routing over the IP layer and the overlay.

The paper's simulator "performs IP-layer and overlay-layer data routing
using shortest path routing".  We provide both layers:

* :class:`IPRouter` — delay-weighted Dijkstra over the router graph,
  vectorised with :func:`scipy.sparse.csgraph.dijkstra` from a set of
  source nodes (the peers), so mapping overlay links onto IP paths for
  hundreds of peers over thousands of routers stays fast.
* :class:`OverlayRouter` — all-pairs shortest paths over the (much
  smaller) overlay graph, with cached predecessor matrices so overlay
  paths (the ℘ⱼ of Eq. 1, whose bottleneck bandwidth the cost function
  consumes) can be reconstructed in O(path length).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

__all__ = ["IPRouter", "OverlayRouter", "graph_to_sparse"]


def graph_to_sparse(
    g: nx.Graph,
    weight: str = "delay",
    nodelist: Optional[Sequence[int]] = None,
    overrides: Optional[Dict[Tuple[int, int], float]] = None,
) -> Tuple[csr_matrix, List[int]]:
    """Convert a networkx graph to a CSR adjacency matrix of ``weight``.

    ``overrides`` substitutes weights for individual edges, keyed by the
    canonical ``tuple(sorted((u, v)))`` link.  An override of ``inf``
    effectively removes the edge from shortest-path computation (scipy's
    ``dijkstra`` never relaxes through a non-finite weight) while keeping
    the edge *present*, so edge iteration order — and every array indexed
    by it — is unchanged.
    """
    nodelist = list(g.nodes) if nodelist is None else list(nodelist)
    index = {v: i for i, v in enumerate(nodelist)}
    rows, cols, vals = [], [], []
    for u, v, data in g.edges(data=True):
        if u not in index or v not in index:
            continue
        w = float(data[weight])
        if overrides:
            w = overrides.get((u, v) if u < v else (v, u), w)
        if not np.isfinite(w):
            continue  # csr stores explicit values; omit the edge instead
        rows.extend((index[u], index[v]))
        cols.extend((index[v], index[u]))
        vals.extend((w, w))
    n = len(nodelist)
    return csr_matrix((vals, (rows, cols)), shape=(n, n)), nodelist


class IPRouter:
    """Delay-based shortest paths on the router-level graph."""

    def __init__(self, ip_graph: nx.Graph) -> None:
        self.graph = ip_graph
        self._matrix, self._nodelist = graph_to_sparse(ip_graph, "delay")
        self._index = {v: i for i, v in enumerate(self._nodelist)}
        self._delay_cache: Dict[int, np.ndarray] = {}
        self._pred_cache: Dict[int, np.ndarray] = {}

    def delays_from(self, src: int) -> np.ndarray:
        """Vector of shortest-path delays from ``src`` to every router."""
        if src not in self._index:
            raise KeyError(f"unknown router {src}")
        i = self._index[src]
        if i not in self._delay_cache:
            dist, pred = dijkstra(
                self._matrix, directed=False, indices=i, return_predecessors=True
            )
            self._delay_cache[i] = dist
            self._pred_cache[i] = pred
        return self._delay_cache[i]

    def delay(self, src: int, dst: int) -> float:
        return float(self.delays_from(src)[self._index[dst]])

    def path(self, src: int, dst: int) -> List[int]:
        """Router-level path (inclusive of endpoints)."""
        self.delays_from(src)
        pred = self._pred_cache[self._index[src]]
        j = self._index[dst]
        if self._index[src] == j:
            return [src]
        hops = [j]
        while pred[j] >= 0:
            j = pred[j]
            hops.append(j)
        if hops[-1] != self._index[src]:
            raise nx.NetworkXNoPath(f"no IP path {src}->{dst}")
        return [self._nodelist[k] for k in reversed(hops)]

    def path_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck link bandwidth along the delay-shortest IP path."""
        hops = self.path(src, dst)
        if len(hops) < 2:
            return float("inf")
        return min(self.graph.edges[a, b]["bandwidth"] for a, b in zip(hops, hops[1:]))


class OverlayRouter:
    """All-pairs shortest paths over the overlay graph (delay metric).

    Precomputes the full P×P delay and predecessor matrices once (the
    overlay has at most ~1000 peers, so this is a few MB); exposes
    ``delay``, ``path`` (peer sequence) and ``links`` (overlay edge
    sequence) used by bandwidth admission along service links.

    The overlay is static for a run, so reconstructed paths are memoized:
    ``path``/``links``/``link_index_list`` pay the predecessor-matrix walk
    once per (src, dst) pair and serve dict hits afterwards — these are
    the hottest calls of BCP probing (bandwidth admission and ψλ evaluate
    them per candidate per hop).  Cached lists are shared: treat them as
    read-only.  ``clear_cache`` (or ``set_path_cache``) is the
    invalidation hook for the rare callers that rebuild routing state; a
    router that *replaces* another over the same graph (the measurement
    plane's re-prices) keeps what still holds instead: ``changed_pairs``
    names the pairs that moved, ``adopt_cache`` carries the rest over.
    """

    def __init__(
        self,
        overlay_graph: nx.Graph,
        delay_overrides: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        self.graph = overlay_graph
        self._overrides = dict(delay_overrides) if delay_overrides else {}
        matrix, self._nodelist = graph_to_sparse(
            overlay_graph, "delay", overrides=self._overrides or None
        )
        self._index = {v: i for i, v in enumerate(self._nodelist)}
        self._dist, self._pred = dijkstra(matrix, directed=False, return_predecessors=True)
        # canonical link ordering shared with bandwidth queries
        # (ResourcePool keeps its capacity/usage lists in this order)
        self._link_order: List[Tuple[int, int]] = [
            tuple(sorted((u, v))) for u, v in overlay_graph.edges
        ]
        self._link_index: Dict[Tuple[int, int], int] = {
            l: i for i, l in enumerate(self._link_order)
        }
        # endpoints (matrix indices) and declared delays of the edges, in
        # link order: all reweighted() needs of the graph
        self._edge_ends = np.array(
            [(self._index[u], self._index[v]) for u, v in self._link_order], dtype=np.intp
        ).reshape(-1, 2)
        self._edge_delays = np.array(
            [float(d) for _, _, d in overlay_graph.edges(data="delay")], dtype=float
        )
        self._cache_enabled = True
        self.clear_cache()

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
        order and the edge arrays are this router's own, shared — walking
        the networkx graph again cost more than the ``dijkstra`` it fed.
        The shared :attr:`link_order` is also what keeps capacity/usage
        lists indexed by it (:class:`~repro.core.resources.ResourcePool`)
        valid.  The new router starts with empty path caches; a caller
        replacing one router by another fills them with
        :meth:`adopt_cache`."""
        delays = self._edge_delays.copy()
        for link, delay in overrides.items():
            i = self._link_index.get(link)
            if i is not None:
                delays[i] = delay
        live = np.isfinite(delays)  # csr stores explicit values: omit the edge
        rows, cols = self._edge_ends[live].T
        delays = delays[live]
        n = len(self._nodelist)
        out = copy.copy(self)
        out._overrides = dict(overrides)
        matrix = csr_matrix(
            (
                np.concatenate((delays, delays)),
                (np.concatenate((rows, cols)), np.concatenate((cols, rows))),
            ),
            shape=(n, n),
        )
        out._dist, out._pred = dijkstra(matrix, directed=False, return_predecessors=True)
        out.clear_cache()
        return out

    def changed_pairs(self, other: "OverlayRouter") -> List[Tuple[int, int]]:
        """The ordered ``(src, dst)`` pairs whose delay or path differs
        between this router and ``other``, a router over the same graph.

        A path is its predecessor chain, so ``src -> dst`` re-routes
        when its own predecessor entry differs or when ``src ->
        pred(dst)`` re-routed; the second clause is closed over by walking
        the mask one tree level per pass (a handful of passes: overlay
        paths are short)."""
        pred = other._pred
        rerouted = self._pred != pred
        if rerouted.any():
            # roots and unreachable entries (pred < 0) point at themselves
            parent = np.where(pred >= 0, pred, np.arange(pred.shape[1]))
            while True:
                wider = rerouted | np.take_along_axis(rerouted, parent, axis=1)
                if np.array_equal(wider, rerouted):
                    break
                rerouted = wider
        changed = rerouted | (self._dist != other._dist)
        nodes = self._nodelist
        return [(nodes[i], nodes[j]) for i, j in zip(*np.nonzero(changed))]

    def adopt_cache(self, old: "OverlayRouter", changed: Sequence[Tuple[int, int]]) -> None:
        """Start from ``old``'s memoised paths instead of from nothing.

        ``changed`` is ``old.changed_pairs(self)``: every other pair
        routes exactly as before, so its cached lists are carried over —
        the same objects — and only the changed pairs are walked again,
        on demand."""
        for name in ("_path_cache", "_links_cache", "_link_idx_list_cache"):
            kept = dict(getattr(old, name))
            for pair in changed:
                kept.pop(pair, None)
            setattr(self, name, kept)

    def set_path_cache(self, enabled: bool) -> None:
        """Toggle path memoization (A/B tests); always clears the cache."""
        self._cache_enabled = enabled
        self.clear_cache()

    def clear_cache(self) -> None:
        """Invalidation hook: drop all memoized paths/links/indices and
        delay rows."""
        self._path_cache: Dict[Tuple[int, int], List[int]] = {}
        self._links_cache: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        self._link_idx_list_cache: Dict[Tuple[int, int], List[int]] = {}
        self._delay_rows: Dict[int, List[float]] = {}

    def delay(self, src: int, dst: int) -> float:
        try:
            return float(self._dist[self._index[src], self._index[dst]])
        except KeyError as exc:
            raise KeyError(f"unknown peer {exc.args[0]}") from None

    def delays_to(self, src: int, dsts: Sequence[int]) -> List[float]:
        """``[delay(src, d) for d in dsts]`` as one read of ``src``'s row.

        The row is the delay matrix's, as a Python list (its floats equal
        ``delay``'s to the bit), kept per source until :meth:`clear_cache`:
        BCP's next-hop metric reads the delays to every duplicate it
        ranks from the peer it ranks them at."""
        row = self._delay_rows.get(src)
        if row is None:
            row = self._delay_rows[src] = self._dist[self._index[src]].tolist()
        index = self._index
        return [row[index[d]] for d in dsts]

    def reachable(self, src: int, dst: int) -> bool:
        return np.isfinite(self._dist[self._index[src], self._index[dst]])

    def path(self, src: int, dst: int) -> List[int]:
        """Overlay peer path from src to dst (inclusive).  Read-only."""
        key = (src, dst)
        hit = self._path_cache.get(key)
        if hit is not None:
            return hit
        i, j = self._index[src], self._index[dst]
        if i == j:
            hops_out = [src]
        else:
            if not np.isfinite(self._dist[i, j]):
                raise nx.NetworkXNoPath(f"no overlay path {src}->{dst}")
            hops = [j]
            k = j
            while self._pred[i, k] >= 0:
                k = self._pred[i, k]
                hops.append(k)
            hops_out = [self._nodelist[h] for h in reversed(hops)]
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
        out = [tuple(sorted((a, b))) for a, b in zip(hops, hops[1:])]
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
        return self._dist.copy()
