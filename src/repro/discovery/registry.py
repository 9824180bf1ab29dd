"""Keyword-based decentralized service discovery on top of the DHT (§3).

* **Registration** — a peer sharing a component hashes the function name
  into a DHT key and stores the component's static meta-data there; all
  duplicates of a function share the key, hence the same responsible
  peer, hence one lookup returns the full duplicate list.
* **Discovery** — a peer hashes the same function name, routes a query,
  and receives the meta-data list.

The registry also reacts to churn: a departed peer's registrations are
filtered out of query results while it is down (its components are
unreachable), matching what liveness-checked discovery would return.
BCP per-hop processing performs a discovery per next-hop function, and
the paper's prototype amortises these lookups within a session-setup
wave: :class:`WaveLookupCache` is that memo, one per ``BCP.compose()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..dht.id_space import key_for
from ..dht.pastry import PastryNetwork, RouteResult
from ..services.component import ComponentSpec
from .metadata import ServiceMetadata

__all__ = ["ServiceRegistry", "LookupResult", "WaveLookupCache"]


@dataclass
class LookupResult:
    """Outcome of a discovery query."""

    function: str
    components: List[ServiceMetadata]
    route: Optional[RouteResult] = None

    @property
    def latency(self) -> float:
        """One-way query latency (response adds the same on the way back)."""
        return self.route.latency if self.route is not None else 0.0

    @property
    def rtt(self) -> float:
        return 2.0 * self.latency


class ServiceRegistry:
    """The meta-data layer over :class:`~repro.dht.pastry.PastryNetwork`."""

    def __init__(self, dht: PastryNetwork) -> None:
        self.dht = dht
        self._down_peers: Set[int] = set()
        self._registered: Dict[int, List[ServiceMetadata]] = {}  # by hosting peer
        self._access_hook: Optional[Callable[[str], None]] = None

    def set_access_hook(self, hook: Optional[Callable[[str], None]]) -> None:
        """Install (or clear) a callable invoked with the method name
        before every registry read/write.  Live clusters use this to
        *prove* peers never consult the shared registry — the hook
        records a violation and raises."""
        self._access_hook = hook

    def _accessed(self, name: str) -> None:
        if self._access_hook is not None:
            self._access_hook(name)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, spec: ComponentSpec, origin_peer: Optional[int] = None, now: float = 0.0
    ) -> RouteResult:
        """Store a component's meta-data under hash(function name)."""
        self._accessed("register")
        meta = ServiceMetadata.from_spec(spec, registered_at=now)
        origin = spec.peer if origin_peer is None else origin_peer
        result = self.dht.put(key_for(spec.function), meta, origin)
        self._registered.setdefault(spec.peer, []).append(meta)
        return result

    def deregister_peer(self, peer: int) -> int:
        """Permanently remove a peer's registrations from the DHT."""
        self._accessed("deregister_peer")
        removed = 0
        for meta in self._registered.pop(peer, []):
            removed += self.dht.remove_values(
                key_for(meta.function), lambda v, cid=meta.component_id: getattr(v, "component_id", None) == cid
            )
        return removed

    # ------------------------------------------------------------------
    # churn visibility
    # ------------------------------------------------------------------
    def peer_departed(self, peer: int, _time: float = 0.0) -> None:
        self._down_peers.add(peer)

    def peer_arrived(self, peer: int, _time: float = 0.0) -> None:
        self._down_peers.discard(peer)

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def lookup(
        self,
        function: str,
        origin_peer: int,
        now: Optional[float] = None,
        include_down: bool = False,
    ) -> LookupResult:
        """Return the duplicate list for ``function`` as seen from a peer."""
        self._accessed("lookup")
        values, route = self.dht.get(key_for(function), origin_peer)
        components = [v for v in values if isinstance(v, ServiceMetadata)]
        if not include_down:
            components = [c for c in components if c.peer not in self._down_peers]
        return LookupResult(function, components, route=route)

    def duplicates(self, function: str, include_down: bool = False) -> List[ServiceMetadata]:
        """Global-knowledge view of a function's duplicates (for baselines
        and the centralized comparison algorithm — *not* used by BCP)."""
        self._accessed("duplicates")
        seen: Dict[int, ServiceMetadata] = {}
        for metas in self._registered.values():
            for m in metas:
                if m.function == function:
                    seen[m.component_id] = m
        comps = list(seen.values())
        if not include_down:
            comps = [c for c in comps if c.peer not in self._down_peers]
        return sorted(comps, key=lambda m: m.component_id)

    def functions(self) -> List[str]:
        """All function names with at least one registration."""
        self._accessed("functions")
        names = {m.function for metas in self._registered.values() for m in metas}
        return sorted(names)

    def registered_on(self, peer: int) -> List[ServiceMetadata]:
        self._accessed("registered_on")
        return list(self._registered.get(peer, []))

    def wave_cache(self, ledger=None) -> "WaveLookupCache":
        """A fresh per-wave lookup memo (one per ``BCP.compose()`` call)."""
        self._accessed("wave_cache")
        return WaveLookupCache(self, ledger=ledger)


class WaveLookupCache:
    """Memoizes :meth:`ServiceRegistry.lookup` within one composition wave.

    During one session-setup wave, N probes crossing the same peer each
    discover the same next-hop functions, re-routing identical DHT
    queries (the paper's prototype amortises these).  The wave cache runs
    the first query for a ``(peer, function)`` pair and serves repeats
    from memory — but *replays* the original query's ledger charges and
    RTT, so message-overhead figures and probe timing still count every
    logical lookup.  Behaviour-preserving by construction: DHT contents,
    liveness and routing are fixed while a wave runs, so the real repeat
    query would return exactly the memoized answer.
    """

    def __init__(self, registry: ServiceRegistry, ledger=None) -> None:
        self.registry = registry
        # lookups charge the DHT's ledger, not the caller's
        self.ledger = ledger if ledger is not None else registry.dht.ledger
        self._memo: Dict[Tuple[int, str, bool], Tuple[LookupResult, Dict]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(
        self,
        function: str,
        origin_peer: int,
        now: Optional[float] = None,
        include_down: bool = False,
    ) -> LookupResult:
        key = (origin_peer, function, include_down)
        hit = self._memo.get(key)
        if hit is not None:
            result, deltas = hit
            self.ledger.replay(deltas)
            self.hits += 1
            return result
        snap = self.ledger.snapshot()
        result = self.registry.lookup(
            function, origin_peer, now=now, include_down=include_down
        )
        self._memo[key] = (result, self.ledger.delta_since(snap))
        self.misses += 1
        return result
