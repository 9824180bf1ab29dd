"""Degree-based power-law Internet topology generator.

The paper generates its IP layer with Inet-3.0 (Winick & Jamin), a
degree-based generator producing router graphs whose degree distribution
follows a power law.  Inet itself is a C program we cannot ship, so this
module implements the same *class* of generator:

1. draw a degree sequence from a discrete power law with exponent
   ``gamma`` (Inet uses complementary-CDF fitting; a Zipf draw with the
   same exponent gives an indistinguishable tail for our purposes);
2. connect the highest-degree nodes into a spanning core;
3. attach every remaining node preferentially (probability proportional
   to remaining degree stubs) — this is Inet's placement step;
4. add extra edges between stub-rich nodes until degrees are (nearly)
   met, rejecting self-loops and multi-edges;
5. embed nodes in a unit square and weight each link with a propagation
   delay proportional to Euclidean distance plus a per-hop constant,
   so shortest IP paths have heterogeneous, metric-like latencies.

The output is an undirected :class:`~repro.topology.graph.Graph` with
``delay`` (seconds) and ``bandwidth`` (Mbps) edge attributes and ``pos``
node attributes.  Step 5 draws one random value per edge, in the graph's
edge order, so that order is part of the topology.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..sim.rng import as_generator
from .graph import Graph, is_connected

__all__ = ["power_law_degree_sequence", "generate_ip_network", "TopologyError"]


class TopologyError(ValueError):
    """Raised when topology generation parameters are unsatisfiable."""


def power_law_degree_sequence(
    n: int,
    gamma: float = 2.2,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    rng=None,
) -> np.ndarray:
    """Draw ``n`` degrees with P(d) ∝ d^-gamma, clipped to [min, max].

    The sum is forced even (required for a graphical sequence) by
    incrementing one node, matching how Inet rounds its CCDF fit.
    """
    if n <= 0:
        raise TopologyError(f"need at least one node, got {n}")
    if gamma <= 1.0:
        raise TopologyError(f"power-law exponent must exceed 1, got {gamma}")
    rng = as_generator(rng)
    if max_degree is None:
        # natural cutoff ~ n^(1/(gamma-1)), standard for scale-free graphs
        max_degree = max(min_degree + 1, int(round(n ** (1.0 / (gamma - 1.0)))))
    max_degree = min(max_degree, n - 1) if n > 1 else 1
    support = np.arange(min_degree, max_degree + 1, dtype=float)
    pmf = support**-gamma
    pmf /= pmf.sum()
    degrees = rng.choice(support.astype(int), size=n, p=pmf)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(0, n))] += 1
    return degrees.astype(int)


def _preferential_attach(
    g: Graph,
    stubs: np.ndarray,
    new_node: int,
    attached: "set[int]",
    rng: np.random.Generator,
) -> None:
    """Attach ``new_node`` to an already-connected node, ∝ remaining stubs.

    Only nodes in ``attached`` are eligible — attaching to an isolated
    node would silently split the graph.
    """
    candidates = np.fromiter((v for v in attached if v != new_node), dtype=int)
    weights = stubs[candidates].astype(float)
    weights = np.where(weights > 0, weights, 0.25)  # keep graph attachable
    p = weights / weights.sum()
    target = int(rng.choice(candidates, p=p))
    g.add_edge(new_node, target)
    stubs[new_node] -= 1
    stubs[target] -= 1


def generate_ip_network(
    n: int,
    gamma: float = 2.2,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    delay_per_unit: float = 0.030,
    hop_delay: float = 0.002,
    bandwidth_range: tuple[float, float] = (10.0, 1000.0),
    rng=None,
) -> Graph:
    """Generate a connected power-law router-level topology.

    Parameters mirror the role Inet-3.0 plays in the paper: ``n`` routers
    (the paper uses 10 000), heavy-tailed degrees, and per-link delays that
    make shortest paths heterogeneous.  ``delay_per_unit`` converts unit-
    square Euclidean distance to seconds (0.030 → a coast-to-coast-ish
    30 ms for the longest links); ``hop_delay`` adds per-hop store-and-
    forward cost.  Link ``bandwidth`` is log-uniform in ``bandwidth_range``
    (Mbps) — core links (between high-degree routers) get the top decade.
    """
    rng = as_generator(rng)
    degrees = power_law_degree_sequence(n, gamma, min_degree, max_degree, rng)
    order = np.argsort(-degrees)  # highest degree first
    stubs = degrees.copy()

    g = Graph()
    g.add_nodes_from(range(n))

    if n == 1:
        pass
    else:
        # Step 2: spanning core among the top sqrt(n) nodes (ring + chords)
        core_size = max(2, min(n, int(math.isqrt(n))))
        core = [int(v) for v in order[:core_size]]
        for i in range(1, len(core)):
            # attach each core node to a random earlier core node (tree),
            # preferentially by degree to concentrate the backbone
            earlier = core[:i]
            w = degrees[earlier].astype(float)
            target = int(rng.choice(earlier, p=w / w.sum()))
            g.add_edge(core[i], target)
            stubs[core[i]] -= 1
            stubs[target] -= 1

        # Step 3: preferential attachment of every remaining node
        in_graph = set(core)
        for v in order[core_size:]:
            v = int(v)
            _preferential_attach(g, stubs, v, in_graph, rng)
            in_graph.add(v)

        # Step 4: consume remaining stubs pairwise, preferring stub-rich nodes
        _fill_degrees(g, stubs, rng)

    # Step 5: geometric embedding and link annotations
    pos = rng.random((n, 2))
    for i in range(n):
        g.nodes[i]["pos"] = tuple(pos[i])
    lo, hi = bandwidth_range
    if lo <= 0 or hi < lo:
        raise TopologyError(f"bad bandwidth range {bandwidth_range}")
    log_lo, log_hi = math.log(lo), math.log(hi)
    for u, v in g.edges:
        dist = float(np.hypot(*(pos[u] - pos[v])))
        g.edges[u, v]["delay"] = hop_delay + delay_per_unit * dist
        # core links (both endpoints high degree) skew toward high bandwidth
        boost = 0.5 if (g.degree(u) > 3 and g.degree(v) > 3) else 0.0
        frac = min(1.0, rng.random() * (1.0 - boost) + boost)
        g.edges[u, v]["bandwidth"] = math.exp(log_lo + frac * (log_hi - log_lo))

    assert n <= 1 or is_connected(g), "generator must produce a connected graph"
    return g


def _fill_degrees(g: Graph, stubs: np.ndarray, rng: np.random.Generator) -> None:
    """Greedy stub matching: repeatedly join the two stub-richest nodes."""
    # Work on a shuffled candidate list to avoid deterministic pathologies.
    for _ in range(4):  # a few passes; leftover stubs are acceptable (Inet's are too)
        candidates = [int(v) for v in np.flatnonzero(stubs > 0)]
        if len(candidates) < 2:
            return
        rng.shuffle(candidates)
        candidates.sort(key=lambda v: -stubs[v])
        used = set()
        for i, u in enumerate(candidates):
            if u in used or stubs[u] <= 0:
                continue
            for v in candidates[i + 1 :]:
                if v in used or stubs[v] <= 0 or g.has_edge(u, v) or u == v:
                    continue
                g.add_edge(u, v)
                stubs[u] -= 1
                stubs[v] -= 1
                if stubs[v] <= 0:
                    used.add(v)
                if stubs[u] <= 0:
                    used.add(u)
                    break
