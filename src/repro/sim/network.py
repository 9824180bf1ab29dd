"""Peer liveness: which peers of the overlay are up.

One table is the single source of truth for liveness shared by the churn
process, the DHT and the composition layer.  The churn process is the
only component that flips it; everything else reads it (BCP's candidate
filter and the session manager through ``is_alive``).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MessageNetwork", "UnknownNodeError"]


class UnknownNodeError(KeyError):
    """Raised when flipping the liveness of a peer that was never registered."""


class MessageNetwork:
    """The overlay's peers and whether each is up."""

    def __init__(self) -> None:
        self._alive: Dict[int, bool] = {}

    def register(self, node_id: int) -> None:
        self._alive[node_id] = True

    def unregister(self, node_id: int) -> None:
        self._alive.pop(node_id, None)

    def nodes(self) -> list[int]:
        return list(self._alive)

    def is_alive(self, node_id: int) -> bool:
        return self._alive.get(node_id, False)

    def set_alive(self, node_id: int, alive: bool) -> None:
        if node_id not in self._alive:
            raise UnknownNodeError(node_id)
        self._alive[node_id] = alive

    def alive_nodes(self) -> list[int]:
        return [n for n, a in self._alive.items() if a]
