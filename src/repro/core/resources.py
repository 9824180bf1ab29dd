"""End-system resources, link bandwidth, and soft-state allocation.

The paper's resource model: each service component needs a vector ``R``
of end-system resources (CPU, memory) on its host peer and a bandwidth
``b_ℓ`` on each service link, admitted against current availability.
During probing, peers perform **soft resource allocation** (§4.1 Step
2.1): resources are tentatively reserved so concurrent probes cannot
doubly admit the same capacity, and the reservation evaporates after a
timeout unless confirmed by the session-setup ack.

:class:`ResourcePool` is the single authority for both peer resources and
overlay-link bandwidth.  Allocations are grouped under a *token* (a probe
id or session id) so a whole probed path can be confirmed or cancelled
atomically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..topology.overlay import Overlay
from ..topology.routing import NoPathError

__all__ = ["ResourceVector", "InsufficientResources", "ResourcePool", "DEFAULT_RESOURCE_TYPES"]

DEFAULT_RESOURCE_TYPES: Tuple[str, ...] = ("cpu", "memory")

Link = Tuple[int, int]  # canonically ordered overlay edge


class InsufficientResources(RuntimeError):
    """Raised when a firm allocation is attempted beyond availability."""


@dataclass(frozen=True)
class ResourceVector:
    """Non-negative requirements/capacities over named end-system resources."""

    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        for k, v in self.values.items():
            if v < 0 or math.isnan(v):
                raise ValueError(f"resource {k!r} must be >= 0, got {v}")

    @classmethod
    def _from_trusted(cls, values: Dict[str, float]) -> "ResourceVector":
        """Construct from an already-validated plain dict, skipping the
        defensive copy + validation of ``__post_init__`` (arithmetic on
        validated vectors cannot produce negatives or NaNs)."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        return self

    @classmethod
    def zero(cls, types: Iterable[str] = DEFAULT_RESOURCE_TYPES) -> "ResourceVector":
        return cls._from_trusted({t: 0.0 for t in types})

    def get(self, rtype: str) -> float:
        return self.values.get(rtype, 0.0)

    def types(self) -> Tuple[str, ...]:
        return tuple(sorted(self.values))

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        keys = set(self.values) | set(other.values)
        return ResourceVector._from_trusted(
            {k: self.values.get(k, 0.0) + other.values.get(k, 0.0) for k in keys}
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        keys = set(self.values) | set(other.values)
        out = {k: self.values.get(k, 0.0) - other.values.get(k, 0.0) for k in keys}
        if min(out.values(), default=0.0) < -1e-9:
            raise ValueError(f"subtraction would go negative: {out}")
        return ResourceVector._from_trusted({k: max(v, 0.0) for k, v in out.items()})

    def fits_within(self, capacity: "ResourceVector") -> bool:
        return all(capacity.get(k) + 1e-12 >= v for k, v in self.values.items())

    def as_dict(self) -> Dict[str, float]:
        return dict(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.values.items()))
        return f"ResourceVector({inner})"


@dataclass
class _Claim:
    """One token's reservations on peers and links (by link index)."""

    peers: List[Tuple[int, ResourceVector]] = field(default_factory=list)
    links: List[Tuple[int, float]] = field(default_factory=list)
    soft: bool = True


class ResourcePool:
    """Tracks availability of peer resources and overlay link bandwidth.

    Availability seen by admission = capacity − firm − soft.  ``confirm``
    turns a token's soft claims firm (session established); ``cancel``
    releases soft claims (probe lost the selection or timed out);
    ``release`` frees firm claims (session teardown / peer failure).
    """

    def __init__(
        self,
        overlay: Overlay,
        peer_capacity: Mapping[int, ResourceVector],
        resource_types: Tuple[str, ...] = DEFAULT_RESOURCE_TYPES,
    ) -> None:
        self.overlay = overlay
        self.resource_types = resource_types
        peers = set(overlay.peers())
        missing = peers - set(peer_capacity)
        if missing:
            raise ValueError(f"no capacity given for peers: {sorted(missing)[:5]}...")
        self._capacity: Dict[int, ResourceVector] = dict(peer_capacity)
        self._used: Dict[int, ResourceVector] = {
            p: ResourceVector.zero(resource_types) for p in peers
        }
        # link bandwidth lives in two float lists indexed by the router's
        # canonical link order: a path's bottleneck is a walk up the
        # source's shortest-path tree (2-5 links), with no per-link dict
        # lookup
        link_order = overlay.router.link_order
        self._link_cap: List[float] = [
            float(overlay.graph.edges[l]["bandwidth"]) for l in link_order
        ]
        self._link_used: List[float] = [0.0] * len(link_order)
        self._claims: Dict[Hashable, _Claim] = {}

    def clone_empty(self, overlay: Optional[Overlay] = None) -> "ResourcePool":
        """A fresh pool over the same overlay and capacities, zero claims.

        Live distributed peers each own one: identical ground capacity,
        independent allocation state (``ResourceVector`` is frozen, so
        sharing the capacity values is safe).  ``overlay`` substitutes
        another overlay of the same topology (a measuring daemon's own
        copy, whose router its plane swaps); every router over that graph
        has the same peers and canonical link order, so the capacity
        lists stay aligned."""
        return ResourcePool(
            overlay if overlay is not None else self.overlay,
            dict(self._capacity),
            resource_types=self.resource_types,
        )

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def capacity(self, peer: int) -> ResourceVector:
        return self._capacity[peer]

    def available(self, peer: int) -> ResourceVector:
        cap, used = self._capacity[peer], self._used[peer]
        return ResourceVector._from_trusted(
            {t: max(cap.get(t) - used.get(t), 0.0) for t in cap.types()}
        )

    def available_amount(self, peer: int, rtype: str) -> float:
        """One resource type's availability, without building a vector —
        the ψλ evaluation loop calls this per (component, type)."""
        return max(
            self._capacity[peer].values.get(rtype, 0.0)
            - self._used[peer].values.get(rtype, 0.0),
            0.0,
        )

    def link_available(self, link: Link) -> float:
        i = self.overlay.router.link_index(*link)
        return max(self._link_cap[i] - self._link_used[i], 0.0)

    def path_available_bandwidth(self, src: int, dst: int) -> float:
        """Bottleneck available bandwidth on the routed overlay path ``℘``."""
        if src == dst:
            return math.inf
        cap, used = self._link_cap, self._link_used
        low = math.inf
        for i in self.overlay.router.link_index_list(src, dst):
            v = cap[i] - used[i]
            if v < low:
                low = v
        return low if low > 0.0 else 0.0

    def paths_available_bandwidth(self, src: int, dsts: Sequence[int]) -> List[float]:
        """``[path_available_bandwidth(src, d) for d in dsts]`` in one call:
        BCP's next-hop metric reads the headroom of the path to every
        duplicate it ranks.  Each path is walked up ``src``'s shortest-path
        tree from its destination, reading every link's headroom on the
        way (``min`` is exact, so the order of the walk is not the value)."""
        index, pred, pedge = self.overlay.router.tree(src)
        root = index[src]
        cap, used = self._link_cap, self._link_used
        out = []
        for dst in dsts:
            j = index[dst]
            p = pred[j]
            low = math.inf
            while p >= 0:
                k = pedge[j]
                v = cap[k] - used[k]
                if v < low:
                    low = v
                j = p
                p = pred[j]
            if j != root:
                raise NoPathError(f"no overlay path {src}->{dst}")
            out.append(low if low > 0.0 else 0.0)
        return out

    def can_host(self, peer: int, req: ResourceVector) -> bool:
        cap, used = self._capacity[peer].values, self._used[peer].values
        for k, v in req.values.items():
            if max(cap.get(k, 0.0) - used.get(k, 0.0), 0.0) + 1e-12 < v:
                return False
        return True

    def can_carry(self, src: int, dst: int, bandwidth: float) -> bool:
        return self.path_available_bandwidth(src, dst) + 1e-12 >= bandwidth

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def soft_allocate_peer(self, token: Hashable, peer: int, req: ResourceVector) -> bool:
        """Tentatively reserve ``req`` on ``peer``; False if it does not fit."""
        if not self.can_host(peer, req):
            return False
        self._used[peer] = self._used[peer] + req
        self._claims.setdefault(token, _Claim()).peers.append((peer, req))
        return True

    def soft_allocate_path(
        self, token: Hashable, src: int, dst: int, bandwidth: float
    ) -> bool:
        """Tentatively reserve bandwidth on every link of the overlay path."""
        if src == dst or bandwidth <= 0:
            return True
        idx = self.overlay.router.link_index_list(src, dst)
        cap, used = self._link_cap, self._link_used
        for i in idx:
            if max(cap[i] - used[i], 0.0) + 1e-12 < bandwidth:
                return False
        for i in idx:
            used[i] += bandwidth
        claim = self._claims.setdefault(token, _Claim())
        claim.links.extend([(i, bandwidth) for i in idx])
        return True

    def confirm(self, token: Hashable) -> None:
        """Make a token's soft reservations firm (session admitted)."""
        claim = self._claims.get(token)
        if claim is None:
            raise KeyError(f"unknown allocation token {token!r}")
        claim.soft = False

    def cancel(self, token: Hashable) -> None:
        """Drop a soft reservation (timeout / not selected).  Idempotent."""
        claim = self._claims.pop(token, None)
        if claim is None:
            return
        if not claim.soft:
            # firm claims must be released explicitly; put it back
            self._claims[token] = claim
            raise InsufficientResources(f"token {token!r} is firm; use release()")
        self._free(claim)

    def release(self, token: Hashable) -> None:
        """Free a firm reservation (session ended).  Idempotent."""
        claim = self._claims.pop(token, None)
        if claim is None:
            return
        self._free(claim)

    def transfer(self, old_token: Hashable, new_token: Hashable) -> None:
        """Re-key a claim (probe token becomes session token on setup)."""
        if old_token not in self._claims:
            raise KeyError(f"unknown allocation token {old_token!r}")
        if new_token in self._claims:
            raise KeyError(f"token {new_token!r} already exists")
        self._claims[new_token] = self._claims.pop(old_token)

    def _free(self, claim: _Claim) -> None:
        for peer, req in claim.peers:
            self._used[peer] = self._used[peer] - req
        used = self._link_used
        for i, bw in claim.links:
            used[i] = max(used[i] - bw, 0.0)

    # ------------------------------------------------------------------
    # introspection / invariants
    # ------------------------------------------------------------------
    def active_tokens(self) -> List[Hashable]:
        return list(self._claims)

    def has_token(self, token: Hashable) -> bool:
        return token in self._claims

    def claim_usage(
        self, token: Hashable
    ) -> Tuple[List[Tuple[int, Dict[str, float]]], List[Tuple[Link, float]]]:
        """One token's reservations as plain data:
        ``([(peer, {rtype: amount}), ...], [(link, bandwidth), ...])``.

        The live distributed runtime ships these to the composing
        destination (piggybacked on the probe wave) so ψλ can be
        evaluated against wave-wide load without reading remote pools.
        Raises ``KeyError`` for an unknown (e.g. already expired) token.
        """
        claim = self._claims[token]
        peers = [
            (p, {t: req.get(t) for t in req.types() if req.get(t)})
            for p, req in claim.peers
        ]
        order = self.overlay.router.link_order
        return peers, [(order[i], bw) for i, bw in claim.links]

    def utilisation(self, peer: int, rtype: str) -> float:
        cap = self._capacity[peer].get(rtype)
        return self._used[peer].get(rtype) / cap if cap > 0 else 0.0

    def check_invariants(self) -> None:
        """Assert no over-allocation anywhere (used by property tests)."""
        for p, cap in self._capacity.items():
            used = self._used[p]
            for t in cap.types():
                if used.get(t) > cap.get(t) + 1e-6:
                    raise AssertionError(
                        f"peer {p} over-allocated {t}: {used.get(t)} > {cap.get(t)}"
                    )
        for i, l in enumerate(self.overlay.router.link_order):
            used, cap = self._link_used[i], self._link_cap[i]
            if used > cap + 1e-6:
                raise AssertionError(f"link {l} over-allocated: {used} > {cap}")
