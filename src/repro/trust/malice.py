"""Malicious peer models for secure-composition experiments.

A malicious peer accepts compositions like any other (its components are
function-qualified and its advertised QoS looks normal) but sabotages
sessions at runtime: it drops/corrupts the stream with some probability
per session.  The trust layer must learn to route around such peers
from observed outcomes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set


from ..sim.rng import as_generator

__all__ = ["MaliciousPopulation"]


@dataclass
class MaliciousPopulation:
    """Which peers misbehave, and how often their sessions fail."""

    malicious: Set[int]
    sabotage_probability: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.sabotage_probability <= 1.0:
            raise ValueError("sabotage_probability must be in [0, 1]")

    @classmethod
    def random(
        cls, peers: Iterable[int], fraction: float, rng=None,
        sabotage_probability: float = 0.9,
        protected: Optional[Set[int]] = None,
    ) -> "MaliciousPopulation":
        """Mark a random ``fraction`` of peers as malicious."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        rng = as_generator(rng)
        pool = [p for p in peers if p not in (protected or set())]
        k = int(round(fraction * len(pool)))
        chosen = set(
            int(p) for p in rng.choice(pool, size=min(k, len(pool)), replace=False)
        ) if k else set()
        return cls(chosen, sabotage_probability)

    def session_outcome(self, service_peers: Iterable[int], rng) -> bool:
        """True = the session ran cleanly; False = sabotaged.

        Each malicious participant independently sabotages with its
        probability — one bad apple spoils the stream.
        """
        rng = as_generator(rng)
        for peer in service_peers:
            if peer in self.malicious and rng.random() < self.sabotage_probability:
                return False
        return True
