"""P2P service overlay construction.

The paper runs SpiderNet on 1000 peers selected from a 10 000-node IP
network, "connected into different overlay topologies (e.g., mesh,
power-law graph)", and notes the composition system is orthogonal to the
overlay topology.  This module builds the mesh every experiment here runs
on, and two more:

* :func:`mesh_overlay` — topologically-aware mesh: each peer links to its
  ``k`` nearest peers by IP-layer delay (the Ratnasamy et al. style the
  paper cites);
* :func:`random_overlay` — uniform random ``k``-neighbour overlay (control);
* :func:`wan_overlay` — the PlanetLab substitute: a smaller full-mesh
  overlay whose pairwise latencies are drawn from a two-region (US/EU)
  log-normal RTT model rather than an explicit IP layer.  See DESIGN.md
  ("Substitutions").

Every overlay link carries ``delay`` (one-way seconds, from IP shortest
path or the WAN model) and ``bandwidth`` (Mbps, the IP bottleneck capped
by a peer access-link capacity — peers are edge hosts, not routers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..sim.rng import as_generator
from .graph import Graph, connected_components
from .inet import TopologyError
from .routing import IPRouter, OverlayRouter

__all__ = [
    "Overlay",
    "mesh_overlay",
    "random_overlay",
    "wan_overlay",
    "select_peers",
]

# delay (s) of a link that joins a stray overlay component to the main one
PATCH_DELAY = 0.08


@dataclass
class Overlay:
    """A constructed P2P service overlay.

    ``graph`` nodes are peer ids ``0..n_peers-1``; ``ip_of[p]`` maps a peer
    to its router when an IP layer exists (``None`` for :func:`wan_overlay`).
    ``router`` answers overlay shortest-path queries; peers exchange
    messages along overlay paths, so the message latency between two peers
    is ``router.delay(a, b)``.  The overlay keeps no memo of its own:
    whatever routing derives (paths, losses, delay rows) lives on
    ``router``, so re-routing is assigning another router — what a live
    daemon's measurement plane does to the daemon's copy of the overlay.
    """

    graph: Graph
    router: OverlayRouter
    ip_of: Optional[Dict[int, int]] = None
    ip_graph: Optional[Graph] = None
    kind: str = "overlay"

    @property
    def n_peers(self) -> int:
        return self.graph.number_of_nodes()

    def peers(self) -> List[int]:
        return list(self.graph.nodes)

    def latency(self, a: int, b: int) -> float:
        """One-way message latency between peers (overlay shortest path)."""
        return self.router.delay(a, b)

    def path_loss_add(self, a: int, b: int) -> float:
        """Additive loss accumulated along the routed overlay path a→b."""
        return self.router.path_loss_add(a, b)


def select_peers(ip_graph: Graph, n_peers: int, rng=None) -> List[int]:
    """Randomly select ``n_peers`` routers to host SpiderNet peers."""
    rng = as_generator(rng)
    n = ip_graph.number_of_nodes()
    if n_peers > n:
        raise TopologyError(f"cannot place {n_peers} peers on {n} routers")
    return [int(v) for v in rng.choice(n, size=n_peers, replace=False)]


def _annotate_and_wrap(
    g: Graph,
    ip_of: Optional[Dict[int, int]],
    ip_graph: Optional[Graph],
    kind: str,
) -> Overlay:
    comps = sorted(connected_components(g), key=len, reverse=True)
    if len(comps) > 1:
        # Patch connectivity: link each extra component's lowest peer to the
        # lowest peer of the largest one.  Real overlays bootstrap this way.
        anchor = min(comps[0])
        for comp in comps[1:]:
            g.add_edge(min(comp), anchor, delay=PATCH_DELAY, bandwidth=10.0)
    # per-link loss rate grows with propagation delay (longer WAN paths
    # cross more lossy segments); stored in the additive −log domain so
    # the QoS layer can simply sum it (see repro.core.qos)
    for u, v, data in g.edges(data=True):
        if "loss_add" not in data:
            rate = min(0.02, 2e-4 + 0.02 * float(data["delay"]))
            data["loss_add"] = -math.log1p(-rate)
    return Overlay(graph=g, router=OverlayRouter(g), ip_of=ip_of, ip_graph=ip_graph, kind=kind)


def mesh_overlay(
    ip_graph: Graph,
    n_peers: int,
    k: int = 4,
    access_bandwidth: tuple[float, float] = (5.0, 100.0),
    rng=None,
) -> Overlay:
    """Topologically-aware mesh: each peer connects to its k IP-nearest peers."""
    rng = as_generator(rng)
    routers = select_peers(ip_graph, n_peers, rng)
    ip_router = IPRouter(ip_graph)  # one run per peer router: delays and bottlenecks
    dist = ip_router.delay_matrix(routers)
    g = Graph()
    g.add_nodes_from(range(n_peers))
    access = rng.uniform(*access_bandwidth, size=n_peers)
    order = np.argsort(dist, axis=1)
    for p in range(n_peers):
        neighbours = [int(q) for q in order[p, 1 : k + 1]]  # skip self at col 0
        for q in neighbours:
            if g.has_edge(p, q):
                continue
            delay = float(dist[p, q])
            bw = min(
                ip_router.path_bandwidth(routers[p], routers[q]),
                access[p],
                access[q],
            )
            g.add_edge(p, q, delay=delay, bandwidth=float(bw))
    ip_of = {p: routers[p] for p in range(n_peers)}
    return _annotate_and_wrap(g, ip_of, ip_graph, "mesh")


def random_overlay(
    ip_graph: Graph,
    n_peers: int,
    k: int = 4,
    access_bandwidth: tuple[float, float] = (5.0, 100.0),
    rng=None,
) -> Overlay:
    """Each peer links to k uniformly random other peers (control topology)."""
    rng = as_generator(rng)
    routers = select_peers(ip_graph, n_peers, rng)
    ip_router = IPRouter(ip_graph)  # one run per peer router: delays and bottlenecks
    dist = ip_router.delay_matrix(routers)
    access = rng.uniform(*access_bandwidth, size=n_peers)
    g = Graph()
    g.add_nodes_from(range(n_peers))
    for p in range(n_peers):
        others = [q for q in range(n_peers) if q != p]
        for q in rng.choice(others, size=min(k, len(others)), replace=False):
            q = int(q)
            if not g.has_edge(p, q):
                bw = min(
                    ip_router.path_bandwidth(routers[p], routers[q]),
                    access[p],
                    access[q],
                )
                g.add_edge(p, q, delay=float(dist[p, q]), bandwidth=float(bw))
    ip_of = {p: routers[p] for p in range(n_peers)}
    return _annotate_and_wrap(g, ip_of, ip_graph, "random")


def wan_overlay(
    n_peers: int = 102,
    us_fraction: float = 0.7,
    intra_us_rtt_ms: float = 40.0,
    intra_eu_rtt_ms: float = 30.0,
    transatlantic_rtt_ms: float = 110.0,
    sigma: float = 0.35,
    access_bandwidth: tuple[float, float] = (2.0, 50.0),
    rng=None,
) -> Overlay:
    """The PlanetLab substitute: full-mesh WAN overlay with log-normal RTTs.

    Peers are assigned to a US or EU region; one-way latency between a
    pair is half a log-normal RTT whose median depends on the region pair
    (values are PlanetLab-era medians; see DESIGN.md).  A full mesh is
    used because PlanetLab hosts talk directly over the Internet — the
    "overlay path" between two peers is a single overlay link.
    """
    rng = as_generator(rng)
    if n_peers < 2:
        raise TopologyError("WAN overlay needs at least 2 peers")
    regions = np.where(rng.random(n_peers) < us_fraction, 0, 1)  # 0=US, 1=EU
    medians_ms = {
        (0, 0): intra_us_rtt_ms,
        (1, 1): intra_eu_rtt_ms,
        (0, 1): transatlantic_rtt_ms,
        (1, 0): transatlantic_rtt_ms,
    }
    access = rng.uniform(*access_bandwidth, size=n_peers)
    g = Graph()
    g.add_nodes_from(range(n_peers))
    for p in range(n_peers):
        g.nodes[p]["region"] = "US" if regions[p] == 0 else "EU"
    for a in range(n_peers):
        for b in range(a + 1, n_peers):
            median = medians_ms[(int(regions[a]), int(regions[b]))]
            rtt_ms = median * float(np.exp(sigma * rng.standard_normal()))
            g.add_edge(
                a,
                b,
                delay=rtt_ms / 2.0 / 1000.0,
                bandwidth=float(min(access[a], access[b])),
            )
    return _annotate_and_wrap(g, None, None, "wan")
