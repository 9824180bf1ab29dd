"""Static views of the DHT id space for over-the-wire key resolution.

A live distributed peer must decide *which peer to ask* for a directory
key without reading the shared :class:`~repro.dht.pastry.PastryNetwork`
storage.  :class:`RingSnapshot` is the minimal bootstrap knowledge a
peer carries away from the join protocol: the sorted ring of node ids
and each node's host peer.  It answers ownership questions with exactly
the same arithmetic as :meth:`PastryNetwork.responsible_node` /
``_replica_nodes``, so a snapshot taken at build time and the routed
ground truth agree on every key while membership is stable.

Snapshots are deliberately *not* kept in sync with churn: a peer that
asks a dead owner gets an RPC timeout and retries the key's ring
successors — the replica set — which is the soft-state behaviour a real
Pastry deployment exhibits between failure and leaf-set repair.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping

from .id_space import circular_distance

__all__ = ["RingSnapshot"]


class RingSnapshot:
    """A frozen key → owner mapping over the Pastry ring.

    ``ring`` is the sorted list of alive node ids, ``peer_of`` maps each
    node id to its host peer, and ``replicas`` is the replication degree
    (ring successors of the root also store every key).
    """

    __slots__ = ("_ring", "_peer_of", "replicas")

    def __init__(
        self, ring: Iterable[int], peer_of: Mapping[int, int], replicas: int = 3
    ) -> None:
        self._ring: List[int] = sorted(ring)
        self._peer_of: Dict[int, int] = dict(peer_of)
        if not self._ring:
            raise ValueError("a ring snapshot needs at least one node")
        missing = [n for n in self._ring if n not in self._peer_of]
        if missing:
            raise ValueError(f"no host peer for nodes: {missing[:5]}")
        self.replicas = replicas

    def __len__(self) -> int:
        return len(self._ring)

    def responsible_node(self, key: int) -> int:
        """The node circularly closest to ``key`` — same tie-break as
        :meth:`PastryNetwork.responsible_node` (smaller id wins)."""
        i = bisect.bisect_left(self._ring, key) % len(self._ring)
        cands = {self._ring[i], self._ring[i - 1]}
        return min(cands, key=lambda c: (circular_distance(key, c), c))

    def owner_peer(self, key: int) -> int:
        """The peer hosting the key's responsible node."""
        return self._peer_of[self.responsible_node(key)]

    def replica_nodes(self, key: int) -> List[int]:
        """Root node plus its ``replicas`` ring successors, root first."""
        root = self.responsible_node(key)
        i = self._ring.index(root)
        n = len(self._ring)
        return [self._ring[(i + off) % n] for off in range(min(self.replicas + 1, n))]

    def replica_peers(self, key: int) -> List[int]:
        """Peers to ask for a key, in preference order (owner first)."""
        return [self._peer_of[nid] for nid in self.replica_nodes(key)]
