"""A live peer's slice of the decentralized service directory.

Every :class:`~repro.net.peer.PeerDaemon` stores the meta-data rows
whose DHT keys it owns (or replicates) — the live counterpart of one
Pastry node's ``store``.  Rows arrive exclusively as ``RegisterBatch``
frames and leave as ``LookupRequest`` replies; the slice never consults
the shared :class:`ServiceRegistry`, which is what the cluster's
shared-state guard asserts.

Rows are keyed by ``(key, component_id)`` so re-registration (a peer
retrying a boot-time RPC, or a replica receiving the same row from two
paths) is idempotent rather than duplicating directory entries.

Beside the rows, the slice remembers which peers queried each key.  A
peer that asked may hold the rows in its positive cache (see
``docs/ARCHITECTURE.md``), and no other peer can: so a content-changing
registration invalidates exactly those peers (``ReplicaInvalidate``)
rather than broadcasting.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..discovery.metadata import ServiceMetadata

__all__ = ["DirectorySlice"]

# querier sets are bounded: a peer left out here is still covered by the
# TTL on its cached entry, so the cap trades a bounded staleness window
# (at most the peer cache's TTL) for bounded memory
_QUERIER_CAP = 128


class DirectorySlice:
    """The directory rows one live peer holds for keys it is responsible for."""

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[int, ServiceMetadata]] = {}
        self.stores = 0  # registration frames applied (incl. repeats)
        self.serves = 0  # LookupRequest queries answered from this slice
        # key -> peers that queried it: the invalidation targets of a change
        self._queriers: Dict[int, Set[int]] = {}

    def store(self, key: int, meta: ServiceMetadata) -> bool:
        """Insert one row; True iff it changed the slice's content.

        A brand-new ``(key, component_id)`` row and a re-registration
        that *replaced* a row's meta-data both count as changes; an exact
        replay — an RPC retry, a replica receiving the same row twice —
        is a no-op and returns False.
        """
        rows = self._rows.setdefault(key, {})
        changed = rows.get(meta.component_id) != meta
        rows[meta.component_id] = meta
        self.stores += 1
        return changed

    def lookup(self, key: int) -> List[ServiceMetadata]:
        """Every row stored under ``key``, in deterministic order."""
        self.serves += 1
        rows = self._rows.get(key)
        if not rows:
            return []
        return [rows[cid] for cid in sorted(rows)]

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def note_querier(self, key: int, peer: int) -> None:
        holders = self._queriers.setdefault(key, set())
        if len(holders) < _QUERIER_CAP:
            holders.add(peer)

    def queriers(self, key: int) -> Set[int]:
        """Peers that may cache ``key``'s rows: the ones that asked for them."""
        return set(self._queriers.get(key, ()))

    def stats(self) -> Dict[str, int]:
        return {
            "rows": len(self),
            "keys": len(self._rows),
            "stores": self.stores,
            "serves": self.serves,
        }
