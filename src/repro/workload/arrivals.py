"""Arrival processes and popularity models for request streams.

The paper's simulator generates "certain number of composition requests
... randomly ... on different peers" per time unit.  This module
provides the two standard refinements measurement studies of P2P
workloads motivate:

* **Poisson arrivals** — exponential inter-arrival times instead of a
  fixed per-tick batch, so load is bursty the way real request streams
  are (the mean matches the paper's requests-per-time-unit knob);
* **Zipf popularity** — real service demand is skewed: a few functions
  (the popular transcoder) dominate requests.  Skew concentrates load
  on those functions' replicas, stressing exactly the load-balancing
  term ψλ optimises.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..sim.rng import as_generator

__all__ = [
    "PoissonArrivals",
    "zipf_weights",
    "ZipfFunctionSampler",
]


class PoissonArrivals:
    """Schedules ``callback()`` on ``loop`` with Exp(1/rate) inter-arrival gaps.

    ``rate`` is arrivals per time unit (the paper's workload axis).  On a
    :class:`~repro.sim.vtime.VirtualTimeLoop` the gaps are virtual time;
    on a running asyncio loop they are wall time, and the stream is
    *open-loop*: arrivals keep coming at the configured rate no matter
    how long earlier requests take.  The process runs until :meth:`stop`,
    which cancels the armed arrival; a stopped process may be
    :meth:`start`-ed again.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        rate: float,
        callback: Callable[[], None],
        rng=None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        self.loop = loop
        self.rate = rate
        self.callback = callback
        self.rng = as_generator(rng)
        self.arrivals = 0
        self._timer = None  # the armed arrival while running

    @property
    def running(self) -> bool:
        return self._timer is not None

    def start(self) -> None:
        if self.running:
            raise RuntimeError("arrival process already running")
        self._arm()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.rate))
        self._timer = self.loop.call_later(gap, self._fire)

    def _fire(self) -> None:
        self.arrivals += 1
        self.callback()
        if self._timer is not None:  # not stopped by the callback
            self._arm()


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
