"""The load-balancing cost aggregation function ψλ (paper Eq. 1).

    ψλ = Σ_{sⱼ/vⱼ ∈ λ} Σ_{i=1..n} wᵢ · rᵢ^{sⱼ}/raᵢ^{vⱼ}
         + w_{n+1} · Σ_{ℓⱼ/℘ⱼ ∈ λ} b_{ℓⱼ}/ba_{℘ⱼ}

Each component's resource demand is divided by the *current availability*
on its host peer; each service link's bandwidth demand by the available
bottleneck bandwidth of its overlay path.  Smaller ψλ ⇒ the service
graph's demands sit further below the available capacity ⇒ better load
balancing — the destination picks the qualified graph with minimum ψλ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from .resources import ResourcePool
from .service_graph import ServiceGraph

__all__ = ["CostWeights", "psi_cost"]


@dataclass(frozen=True)
class CostWeights:
    """The wᵢ of Eq. 1: one weight per end-system resource type plus one
    for bandwidth; must be non-negative and sum to 1."""

    resource_weights: Mapping[str, float]
    bandwidth_weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "resource_weights", dict(self.resource_weights))
        weights = list(self.resource_weights.values()) + [self.bandwidth_weight]
        if any(w < 0 for w in weights):
            raise ValueError(f"negative weight in {weights}")
        total = sum(weights)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls, resource_types: Tuple[str, ...] = ("cpu", "memory")) -> "CostWeights":
        n = len(resource_types) + 1
        return cls({t: 1.0 / n for t in resource_types}, 1.0 / n)


def psi_cost(
    graph: ServiceGraph,
    pool: ResourcePool,
    weights: Optional[CostWeights] = None,
    epsilon: float = 1e-9,
) -> float:
    """Evaluate ψλ against *current* availability in the resource pool.

    A component whose host has (near-)zero availability of a required
    resource, or a link whose path has no spare bandwidth, yields ``inf``
    — such a graph loses every comparison, which is the correct limit of
    Eq. 1 and what admission would reject anyway.
    """
    if weights is None:
        weights = CostWeights.uniform(pool.resource_types)
    total = 0.0
    res_weights = list(weights.resource_weights.items())
    available = pool.available_amount
    for meta in graph.components():
        demands = meta.resources.values
        peer = meta.peer
        for rtype, w in res_weights:
            demand = demands.get(rtype, 0.0)
            if w == 0.0 or demand == 0.0:
                continue
            a = available(peer, rtype)
            if a <= epsilon:
                return math.inf
            total += w * demand / a
    bandwidth_weight = weights.bandwidth_weight
    if bandwidth_weight > 0.0:
        path_available = pool.path_available_bandwidth
        for src, dst, bandwidth in graph.link_rows():
            if src == dst or bandwidth <= 0:
                continue
            ba = path_available(src, dst)
            if ba <= epsilon:
                return math.inf
            if math.isinf(ba):
                continue
            total += bandwidth_weight * bandwidth / ba
    return total
