"""Deterministic randomness utilities.

Every stochastic component in the reproduction takes an explicit
``numpy.random.Generator``.  This module centralises seed handling so an
experiment seeded with one integer is reproducible bit-for-bit while its
sub-components (topology, workload, churn, protocol tie-breaking) draw
from independent streams.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["as_generator", "spawn"]

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce an int / Generator / SeedSequence / None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)] if hasattr(
        rng.bit_generator, "seed_seq"
    ) and rng.bit_generator.seed_seq is not None else [
        np.random.default_rng(rng.integers(0, 2**63 - 1)) for _ in range(n)
    ]

