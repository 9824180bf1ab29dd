"""Runtime proof that live peers never touch shared ground truth.

The live cluster keeps the *environment* objects of the simulated
testbed around (the scenario's registry, resource pool, DHT storage) —
to a running cluster these must be dead weight: every daemon owns its
own pool and directory slice, and all coordination crosses the
transport.  Every :class:`~repro.net.cluster.LiveCluster` arms one for
its whole lifetime.

:class:`SharedStateGuard` enforces that claim mechanically.  While
sealed, every read or write of the shared registry / pool / DHT storage
layer both *records* a violation and *raises*, so an accidental
shared-object shortcut fails tests loudly instead of silently keeping
the runtime a "simulation with sockets".  The DHT *routing* fabric
(:meth:`PastryNetwork.route`) stays callable: it models the overlay
message path a query physically takes and charges ``dht_route`` to the
ledger — it is the network, not the state.
"""

from __future__ import annotations

from typing import Any, List, Tuple

__all__ = ["SharedStateGuard", "SharedStateViolation"]

# every public read/write of the shared ServiceRegistry goes through its
# access hook; these are the pool/DHT surfaces sealed by monkey-patching:
# every public pool method but ``clone_empty``, which builds each daemon's
# own pool
POOL_METHODS = (
    "capacity",
    "available",
    "available_amount",
    "link_available",
    "path_available_bandwidth",
    "paths_available_bandwidth",
    "can_host",
    "can_carry",
    "soft_allocate_peer",
    "soft_allocate_path",
    "confirm",
    "cancel",
    "release",
    "transfer",
    "active_tokens",
    "has_token",
    "claim_usage",
    "utilisation",
    "check_invariants",
)
DHT_STORAGE_METHODS = ("put", "get", "remove_values")


class SharedStateViolation(RuntimeError):
    """A live peer read or wrote shared in-process state."""


class SharedStateGuard:
    """Seals shared registry/pool/DHT-storage objects for a cluster's lifetime."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._registry = None

    def trip(self, what: str) -> None:
        self.violations.append(what)
        raise SharedStateViolation(
            f"live peer touched shared state: {what} "
            "(must go over the wire)"
        )

    # ------------------------------------------------------------------
    def seal(self, registry, pool, dht) -> None:
        """Arm the guard over a scenario's shared environment objects."""
        self._registry = registry
        registry.set_access_hook(lambda name: self.trip(f"registry.{name}"))
        for name in POOL_METHODS:
            self._patch(pool, "pool", name)
        for name in DHT_STORAGE_METHODS:
            self._patch(dht, "dht", name)

    def unseal(self) -> None:
        """Restore every sealed object (cluster teardown)."""
        if self._registry is not None:
            self._registry.set_access_hook(None)
            self._registry = None
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched.clear()

    def _patch(self, obj: Any, label: str, name: str) -> None:
        original = getattr(obj, name)

        def tripwire(*args: Any, _what: str = f"{label}.{name}", **kwargs: Any):
            self.trip(_what)

        setattr(obj, name, tripwire)
        self._patched.append((obj, name, original))
