"""Peer churn processes.

Figure 9's dynamic P2P network is driven by a simple churn model: during
each time unit, a fixed fraction (1 % in the paper) of peers fail at
random.  We implement that model plus a session-time arrival process so
the overlay population can be held roughly stationary.

Listeners (DHT, discovery registry, session manager) subscribe to
departure/arrival callbacks; the churn process is the only component
allowed to flip liveness in the :class:`~repro.sim.network.MessageNetwork`.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional

from .network import MessageNetwork
from .rng import as_generator
from .vtime import every

__all__ = ["ChurnProcess"]

DepartureListener = Callable[[int, float], None]
ArrivalListener = Callable[[int, float], None]


class ChurnProcess:
    """Per-time-unit fractional failure churn (the paper's Fig. 9 model).

    Every ``time_unit`` of virtual time, each *alive* peer independently
    fails with probability ``fail_fraction``.  If ``revive`` is true, a
    failed peer rejoins after ``downtime`` time units (modelling peer
    arrivals that keep the population stationary, as P2P measurement
    studies of the era observed).
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        network: MessageNetwork,
        fail_fraction: float = 0.01,
        time_unit: float = 1.0,
        revive: bool = True,
        downtime: float = 10.0,
        rng=None,
        protected: Optional[set] = None,
    ) -> None:
        if not 0.0 <= fail_fraction <= 1.0:
            raise ValueError(f"fail_fraction out of range: {fail_fraction}")
        self.loop = loop
        self.network = network
        self.fail_fraction = fail_fraction
        self.time_unit = time_unit
        self.revive = revive
        self.downtime = downtime
        self.rng = as_generator(rng)
        # peers that must never fail (e.g. the measurement source/dest,
        # matching the paper's assumption that endpoints are stable)
        self.protected = set(protected or ())
        self._departure_listeners: List[DepartureListener] = []
        self._arrival_listeners: List[ArrivalListener] = []
        self._task = None
        self.failures = 0
        self.revivals = 0

    # ------------------------------------------------------------------
    def on_departure(self, fn: DepartureListener) -> None:
        self._departure_listeners.append(fn)

    def on_arrival(self, fn: ArrivalListener) -> None:
        self._arrival_listeners.append(fn)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("churn already started")
        self._task = every(self.loop, self.time_unit, self._tick)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        alive = [n for n in self.network.alive_nodes() if n not in self.protected]
        if not alive:
            return
        # Bernoulli per peer: matches "1% of peers randomly fail during
        # each time unit" in expectation and variance.
        draws = self.rng.random(len(alive))
        for node_id, u in zip(alive, draws):
            if u < self.fail_fraction:
                self.fail(node_id)

    def fail(self, node_id: int) -> None:
        """Force a specific peer down (also used by failure-injection tests)."""
        if not self.network.is_alive(node_id):
            return
        self.network.set_alive(node_id, False)
        self.failures += 1
        now = self.loop.time()
        for fn in self._departure_listeners:
            fn(node_id, now)
        if self.revive:
            self.loop.call_later(self.downtime, self._revive, node_id)

    def _revive(self, node_id: int) -> None:
        if node_id not in self.network.nodes():
            return
        if self.network.is_alive(node_id):
            return
        self.network.set_alive(node_id, True)
        self.revivals += 1
        now = self.loop.time()
        for fn in self._arrival_listeners:
            fn(node_id, now)
