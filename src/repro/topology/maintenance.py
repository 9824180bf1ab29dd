"""Overlay maintenance under churn: live routing views and link repair.

The static :class:`~repro.topology.overlay.Overlay` models the paper's
simulator: overlay link metrics are fixed for a run and peer failures
are handled at the *service* layer (components on dead peers are
unusable; the overlay fabric itself is assumed to keep routing).  That
assumption is fine at 1 % churn with well-connected meshes, but a
long-lived deployment also needs the *fabric* maintained:

* :class:`LiveOverlayView` — shortest paths restricted to **alive**
  peers (dead relays cannot forward), recomputed lazily when liveness
  changes; reports partition events instead of silently routing through
  corpses;
* :class:`OverlayMaintainer` — the repair protocol: when a departure
  disconnects or degrades a peer's neighbourhood, it re-links affected
  peers to their nearest alive candidates (the same topologically-aware
  rule that built the mesh), charging the repair traffic to the ledger.

Experiments keep the paper's static-fabric model (documented in
DESIGN.md); this module is for studies of fabric-level resilience —
see ``tests/test_maintenance.py`` for partition-and-heal scenarios.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import dijkstra

from ..sim.metrics import MessageLedger
from ..sim.rng import as_generator
from .overlay import Overlay
from .routing import graph_to_sparse

__all__ = ["LiveOverlayView", "OverlayMaintainer", "PartitionError"]


class PartitionError(RuntimeError):
    """Raised when two live peers have no live overlay path."""


class LiveOverlayView:
    """Shortest-path view over the alive subgraph of an overlay.

    The distance matrix is recomputed lazily: any liveness flip (or
    repair link) invalidates the cache, and the next query pays one
    all-pairs Dijkstra over the live subgraph — cheap at simulator
    scales and exact, unlike incremental approximations.
    """

    def __init__(self, overlay: Overlay, alive: Callable[[int], bool]) -> None:
        self.overlay = overlay
        self.alive = alive
        self._extra_links: Set[Tuple[int, int]] = set()
        self._extra_attrs: Dict[Tuple[int, int], Dict[str, float]] = {}
        self._dirty = True
        self._dist: Optional[np.ndarray] = None
        self._index: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Call when liveness changed (wired to churn callbacks)."""
        self._dirty = True

    def add_link(self, a: int, b: int, delay: float, bandwidth: float = 10.0) -> None:
        """Install a repair link (kept even if the view is recomputed)."""
        if a == b:
            raise ValueError("cannot link a peer to itself")
        link = tuple(sorted((a, b)))
        self._extra_links.add(link)
        self._extra_attrs[link] = {"delay": float(delay), "bandwidth": float(bandwidth)}
        self.invalidate()

    def repair_links(self) -> List[Tuple[int, int]]:
        return sorted(self._extra_links)

    # ------------------------------------------------------------------
    def _live_graph(self) -> nx.Graph:
        g = nx.Graph()
        for p in self.overlay.peers():
            if self.alive(p):
                g.add_node(p)
        for u, v, data in self.overlay.graph.edges(data=True):
            if g.has_node(u) and g.has_node(v):
                g.add_edge(u, v, delay=data["delay"])
        for (u, v), attrs in self._extra_attrs.items():
            if g.has_node(u) and g.has_node(v):
                g.add_edge(u, v, delay=attrs["delay"])
        return g

    def _recompute(self) -> None:
        live = self._live_graph()
        matrix, nodelist = graph_to_sparse(live, "delay")
        self._index = {v: i for i, v in enumerate(nodelist)}
        if len(nodelist):
            self._dist = dijkstra(matrix, directed=False)
        else:
            self._dist = np.zeros((0, 0))
        self._dirty = False

    # ------------------------------------------------------------------
    def latency(self, a: int, b: int) -> float:
        """Live-path latency; raises :class:`PartitionError` if unreachable."""
        if not self.alive(a) or not self.alive(b):
            raise PartitionError(f"peer {a if not self.alive(a) else b} is down")
        if a == b:
            return 0.0
        if self._dirty:
            self._recompute()
        d = float(self._dist[self._index[a], self._index[b]])
        if math.isinf(d):
            raise PartitionError(f"no live overlay path {a} -> {b}")
        return d

    def reachable(self, a: int, b: int) -> bool:
        try:
            self.latency(a, b)
            return True
        except PartitionError:
            return False

    def components(self) -> List[Set[int]]:
        """Connected components of the live overlay (1 = healthy)."""
        return [set(c) for c in nx.connected_components(self._live_graph())]

    def isolated_peers(self) -> List[int]:
        """Live peers with no live neighbour at all."""
        live = self._live_graph()
        return sorted(p for p in live.nodes if live.degree[p] == 0)


class OverlayMaintainer:
    """Repairs the overlay fabric after departures (re-linking protocol).

    On each :meth:`repair` pass every live peer whose live degree fell
    below ``min_degree`` links to its nearest alive non-neighbours
    (nearest by the *static* pairwise latency — what a peer estimates
    from history/pings).  Each new link costs a handshake, charged to
    the ledger.  Repair is idempotent and converges: a connected live
    population ends with min degree ≥ min(min_degree, n_live−1).
    """

    def __init__(
        self,
        view: LiveOverlayView,
        min_degree: int = 2,
        ledger: Optional[MessageLedger] = None,
        rng=None,
    ) -> None:
        if min_degree < 1:
            raise ValueError("min_degree must be >= 1")
        self.view = view
        self.min_degree = min_degree
        self.ledger = ledger if ledger is not None else MessageLedger()
        self.rng = as_generator(rng)
        self.links_added = 0

    # ------------------------------------------------------------------
    def live_degree(self, peer: int) -> int:
        overlay = self.view.overlay
        alive = self.view.alive
        deg = sum(1 for n in overlay.graph.neighbors(peer) if alive(n))
        for u, v in self.view.repair_links():
            if peer in (u, v):
                other = v if u == peer else u
                if alive(other) and not overlay.graph.has_edge(peer, other):
                    deg += 1
        return deg

    def _candidates(self, peer: int) -> List[int]:
        overlay = self.view.overlay
        alive = self.view.alive
        neighbours = set(overlay.graph.neighbors(peer))
        for u, v in self.view.repair_links():
            if peer in (u, v):
                neighbours.add(v if u == peer else u)
        cands = [
            q for q in overlay.peers()
            if q != peer and q not in neighbours and alive(q)
        ]
        # nearest-first by the static metric (a peer's latency estimates)
        cands.sort(key=lambda q: self.view.overlay.latency(peer, q))
        return cands

    def repair(self) -> int:
        """One maintenance pass; returns the number of links added."""
        added = 0
        for peer in self.view.overlay.peers():
            if not self.view.alive(peer):
                continue
            deficit = self.min_degree - self.live_degree(peer)
            if deficit <= 0:
                continue
            for target in self._candidates(peer)[:deficit]:
                delay = self.view.overlay.latency(peer, target)
                self.view.add_link(peer, target, delay=delay)
                self.ledger.record("overlay_repair", 128, 2)  # handshake
                added += 1
        # a second sweep may be needed when everything near a peer died;
        # connect remaining components pairwise by their closest peers
        comps = self.view.components()
        while len(comps) > 1:
            main = max(comps, key=len)
            other = min(comps, key=len)
            best = None
            for a in sorted(other):
                for b in sorted(main):
                    d = self.view.overlay.latency(a, b)
                    if best is None or d < best[0]:
                        best = (d, a, b)
            if best is None:  # pragma: no cover - both sets non-empty
                break
            _, a, b = best
            self.view.add_link(a, b, delay=best[0])
            self.ledger.record("overlay_repair", 128, 2)
            added += 1
            comps = self.view.components()
        self.links_added += added
        return added
