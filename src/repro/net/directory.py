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

Beyond the authoritative rows, the slice carries the bookkeeping for the
**directory tier**, the one way a live peer registers and looks up (see
``docs/ARCHITECTURE.md``; the sync engine, which routes every lookup, is
its per-lookup reference):

* a monotonic **version** counter, bumped on every content-*changing*
  store, stamped on lookup/registration replies so peer-local caches can
  be invalidated precisely on registration churn;
* per-key **serve-rate tracking** (an exponentially decayed counter):
  when remote demand for a key crosses the configured hotness threshold
  its holder pushes the rows to the ring peers past the base replica set
  (``ReplicatePush``), and lookups resolve in the key's routing
  neighbourhood instead of converging on the owner;
* a **Bloom summary** of the function names held, piggybacked on replies
  so queriers can prove absence without routing the DHT;
* **stale-holder tracking** — which peers recently queried a key, were
  pushed replica rows, or received the Bloom summary — so a
  content-changing registration can invalidate exactly the peers that
  may hold a stale copy (``ReplicaInvalidate``), rather than broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..discovery.metadata import ServiceMetadata
from .bloom import BloomFilter

__all__ = ["DirectorySlice", "DirectoryTierConfig"]

# stale-holder sets are bounded: a peer evicted here is still covered by
# the TTL backstop on its cached entry, so caps trade a bounded
# staleness window (<= cache_ttl) for bounded memory
_QUERIER_CAP = 128
_BLOOM_RECIPIENT_CAP = 512


@dataclass(frozen=True)
class DirectoryTierConfig:
    """Knobs for the directory tier: cache lifetime and hot-key fan-out.

    Positive and Bloom negative caching are always on; these fields only
    tune them.
    """

    # peer-local positive-cache TTL (seconds); also bounds the staleness
    # window for holders the precise invalidation could not reach
    cache_ttl: float = 30.0
    # decayed remote-serve count that triggers replica fan-out; 0 turns
    # fan-out off (peer-local caching still applies)
    hot_threshold: float = 8.0
    # ring successors past the base replica set that receive hot rows
    replica_span: int = 2
    # half-life (seconds) of the serve-rate decay
    popularity_halflife: float = 5.0


class DirectorySlice:
    """The directory rows one live peer holds for keys it is responsible for."""

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[int, ServiceMetadata]] = {}
        # replica tier: rows pushed here because the key ran hot at its
        # owner — served as a fallback, never authoritative for churn
        self._replica_rows: Dict[int, Tuple[int, Dict[int, ServiceMetadata]]] = {}
        self.stores = 0  # registration frames applied (incl. repeats)
        self.serves = 0  # LookupRequest queries answered from this slice
        self.replica_stores = 0  # ReplicatePush row sets accepted
        # monotonic content version: bumped on every store that changed
        # a row; per-key versions record the slice version at that key's
        # last change so invalidations can carry an exact watermark
        self.version = 0
        self._key_version: Dict[int, int] = {}
        # popularity: key -> (decayed remote-serve count, last bump time)
        self._rate: Dict[int, Tuple[float, float]] = {}
        # keys whose current version was already pushed to the extended
        # replica set (re-armed automatically when the version bumps)
        self._pushed_version: Dict[int, int] = {}
        self._pushed_peers: Dict[int, Set[int]] = {}
        # peers that recently queried a key / hold our Bloom summary —
        # the precise invalidation targets for a content change
        self._queriers: Dict[int, Set[int]] = {}
        self._bloom_recipients: Set[int] = set()
        self._bloom = BloomFilter()
        self._bloom_wire: Optional[List] = None

    # ------------------------------------------------------------------
    # authoritative rows
    # ------------------------------------------------------------------
    def store(self, key: int, meta: ServiceMetadata) -> bool:
        """Insert one row; True iff it changed the slice's content.

        A brand-new ``(key, component_id)`` row and a re-registration
        that *replaced* a row's meta-data both count as changes (and
        bump :attr:`version`); an exact replay — an RPC retry, a replica
        receiving the same row twice — is a no-op and returns False.
        """
        rows = self._rows.setdefault(key, {})
        changed = rows.get(meta.component_id) != meta
        rows[meta.component_id] = meta
        self.stores += 1
        if changed:
            self.version += 1
            self._key_version[key] = self.version
            self._bloom.add(meta.function)
            self._bloom_wire = None
        return changed

    def lookup(self, key: int) -> List[ServiceMetadata]:
        """Every row stored under ``key``, in deterministic order."""
        self.serves += 1
        rows = self._rows.get(key)
        if not rows:
            return []
        return [rows[cid] for cid in sorted(rows)]

    def rows(self, key: int) -> List[ServiceMetadata]:
        """Like :meth:`lookup` but without bumping the serve counter
        (internal reads: replica pushes, stats)."""
        rows = self._rows.get(key)
        if not rows:
            return []
        return [rows[cid] for cid in sorted(rows)]

    def key_version(self, key: int) -> int:
        """The slice version at ``key``'s last content change (0 = never)."""
        return self._key_version.get(key, 0)

    def keys(self) -> List[int]:
        return sorted(self._rows)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    # ------------------------------------------------------------------
    # replica tier (rows pushed here by a hot key's owner)
    # ------------------------------------------------------------------
    def store_replica(
        self, key: int, rows: Sequence[ServiceMetadata], version: int
    ) -> bool:
        """Accept a ``ReplicatePush`` row set; newest version wins."""
        held = self._replica_rows.get(key)
        if held is not None and held[0] >= version:
            return False
        self._replica_rows[key] = (version, {m.component_id: m for m in rows})
        self.replica_stores += 1
        return True

    def replica_lookup(self, key: int) -> Optional[List[ServiceMetadata]]:
        """Rows pushed here for ``key``, or None if it holds none."""
        held = self._replica_rows.get(key)
        if held is None:
            return None
        rows = held[1]
        return [rows[cid] for cid in sorted(rows)]

    def drop_replica(self, key: int) -> None:
        self._replica_rows.pop(key, None)

    def replica_keys(self) -> List[int]:
        return sorted(self._replica_rows)

    # ------------------------------------------------------------------
    # popularity + fan-out bookkeeping
    # ------------------------------------------------------------------
    def note_serve_rate(self, key: int, now: float, halflife: float) -> float:
        """Bump and return ``key``'s exponentially decayed serve count."""
        rate, last = self._rate.get(key, (0.0, now))
        if halflife > 0 and now > last:
            rate *= 0.5 ** ((now - last) / halflife)
        rate += 1.0
        self._rate[key] = (rate, now)
        return rate

    def mark_pushed(self, key: int) -> bool:
        """Claim the fan-out for ``key``'s current version.

        True iff this version was not already pushed — the caller that
        wins the claim performs the (async) push, so concurrent serves
        spawn exactly one fan-out per content version."""
        version = self.key_version(key)
        if self._pushed_version.get(key) == version:
            return False
        self._pushed_version[key] = version
        return True

    def note_pushed(self, key: int, peers: Sequence[int]) -> None:
        self._pushed_peers.setdefault(key, set()).update(peers)

    def note_querier(self, key: int, peer: int) -> None:
        holders = self._queriers.setdefault(key, set())
        if len(holders) < _QUERIER_CAP:
            holders.add(peer)

    def note_bloom_recipient(self, peer: int) -> None:
        if len(self._bloom_recipients) < _BLOOM_RECIPIENT_CAP:
            self._bloom_recipients.add(peer)

    def stale_holders(self, key: int) -> Set[int]:
        """Peers that may hold a stale copy after ``key``'s content changed:
        recent queriers (positive caches), pushed replica holders, and
        Bloom-summary recipients (negative caches)."""
        out: Set[int] = set()
        out |= self._queriers.get(key, set())
        out |= self._pushed_peers.get(key, set())
        out |= self._bloom_recipients
        return out

    # ------------------------------------------------------------------
    # Bloom summary
    # ------------------------------------------------------------------
    @property
    def bloom(self) -> BloomFilter:
        return self._bloom

    def bloom_wire(self) -> List:
        if self._bloom_wire is None:
            self._bloom_wire = self._bloom.to_wire()
        return self._bloom_wire

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "rows": len(self),
            "keys": len(self._rows),
            "stores": self.stores,
            "serves": self.serves,
            "version": self.version,
            "replica_keys": len(self._replica_rows),
            "replica_stores": self.replica_stores,
        }
