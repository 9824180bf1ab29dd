"""Popularity models for request streams.

The paper's simulator generates "certain number of composition requests
... randomly ... on different peers" per time unit.  Measurement studies
of P2P workloads motivate one refinement of which functions they ask
for: **Zipf popularity** — real service demand is skewed: a few
functions (the popular transcoder) dominate requests.  Skew concentrates
load on those functions' replicas, stressing exactly the load-balancing
term ψλ optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..sim.rng import as_generator

__all__ = [
    "zipf_weights",
    "ZipfFunctionSampler",
]


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Normalised Zipf weights: wᵢ ∝ 1/(i+1)^skew.  skew=0 → uniform."""
    if n <= 0:
        raise ValueError("need at least one item")
    if skew < 0:
        raise ValueError("skew must be >= 0")
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks**-skew
    return w / w.sum()


@dataclass
class ZipfFunctionSampler:
    """Draws request function sets with Zipf-skewed popularity.

    Functions are ranked by their order in ``functions`` (rank 0 most
    popular).  ``sample(k)`` draws ``k`` distinct functions, so even
    heavy skew cannot produce duplicate functions in one request.
    """

    functions: Sequence[str]
    skew: float = 0.8
    rng: object = None

    def __post_init__(self) -> None:
        self.functions = list(self.functions)
        if not self.functions:
            raise ValueError("no functions to sample")
        self.rng = as_generator(self.rng)
        self._weights = zipf_weights(len(self.functions), self.skew)

    def sample(self, k: int) -> List[str]:
        k = min(k, len(self.functions))
        idx = self.rng.choice(
            len(self.functions), size=k, replace=False, p=self._weights
        )
        return [self.functions[int(i)] for i in idx]
