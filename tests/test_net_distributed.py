"""Distributed-mode discovery: DHT-routed directory slices + failure paths.

The live cluster's default mode keeps no shared ground truth: component
meta-data lives in per-peer ``DirectorySlice`` instances addressed
through a frozen ``RingSnapshot`` of the DHT id space, and every
register/lookup crosses the wire.  These tests cover the unhappy paths
the parity test never hits: the key's owner dying mid-lookup (replica
failover), registration visibility (no read-your-own-unregistered-
write), and a composition surviving the death of a directory owner.
"""

import asyncio
import dataclasses

import pytest

from repro.dht.id_space import key_for
from repro.net import ClusterConfig, LiveCluster, SharedStateViolation
from repro.net.directory import DirectorySlice
from repro.net.guard import SharedStateGuard
from repro.net.rpc import RetryPolicy
from repro.discovery.metadata import ServiceMetadata


def _cluster(**overrides):
    fast = RetryPolicy(timeout=0.3, retries=2, backoff=0.02)
    base = dict(
        n_peers=10,
        n_functions=6,
        seed=7,
        capacity_scale=10.0,
        retry=fast,
    )
    base.update(overrides)
    return LiveCluster(ClusterConfig(**base))


def _functions(cluster):
    return sorted({s.function for s in cluster.scenario.population})


# ----------------------------------------------------------------------
# ring snapshot
# ----------------------------------------------------------------------
def test_ring_snapshot_matches_pastry_ownership():
    cluster = _cluster()
    dht = cluster.net.dht
    ring = dht.ring_snapshot()
    for fn in _functions(cluster):
        key = key_for(fn)
        assert ring.responsible_node(key) == dht.responsible_node(key)
        replicas = ring.replica_peers(key)
        assert replicas[0] == ring.owner_peer(key)
        assert len(replicas) == len(set(replicas))
        assert len(replicas) == min(dht.replicas + 1, len(ring))


# ----------------------------------------------------------------------
# directory slice
# ----------------------------------------------------------------------
def test_directory_slice_store_is_idempotent_by_component():
    cluster = _cluster()
    spec = cluster.scenario.population[0]
    key = key_for(spec.function)
    d = DirectorySlice()
    meta = ServiceMetadata.from_spec(spec, registered_at=0.0)
    assert d.store(key, meta) is True
    assert d.store(key, meta) is False  # replay (RPC retry) is a no-op
    assert len(d) == 1
    rows = d.lookup(key)
    assert [m.component_id for m in rows] == [spec.component_id]


# ----------------------------------------------------------------------
# guard
# ----------------------------------------------------------------------
def test_guard_seals_registry_pool_and_dht_storage():
    cluster = _cluster()
    net = cluster.net
    guard = SharedStateGuard()
    guard.seal(net.registry, net.pool, net.dht)
    try:
        with pytest.raises(SharedStateViolation):
            net.registry.lookup("anything", 0)
        with pytest.raises(SharedStateViolation):
            net.pool.available_amount(0, "cpu")
        with pytest.raises(SharedStateViolation):
            net.dht.get(key_for("anything"), 0)
    finally:
        guard.unseal()
    assert len(guard.violations) == 3
    # unsealed: the shared objects work again (sim-mode reuse)
    assert net.pool.available_amount(0, "cpu") >= 0.0


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
def test_lookup_falls_back_to_replica_when_owner_dies():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            ring = next(iter(cluster.daemons.values())).ring
            # a (function, querier) pair where the querier holds no
            # replica itself, so the lookup must go over the wire
            fn = owner = querier = None
            for cand_fn in _functions(cluster):
                replicas = ring.replica_peers(key_for(cand_fn))
                outsiders = [p for p in cluster.daemons if p not in replicas]
                if len(replicas) >= 2 and outsiders:
                    fn, owner, querier = cand_fn, replicas[0], outsiders[0]
                    break
            assert fn is not None, "fixture: no function with an outside querier"

            expected = sorted(
                s.component_id
                for s in cluster.scenario.population
                if s.function == fn
            )
            q = cluster.daemons[querier]
            before, _ = await q._lookup(fn, querier)
            cluster.kill_peer(owner)
            after, _ = await q._lookup(fn, querier)
            return expected, before, after, cluster.errors()

    expected, before, after, errors = asyncio.run(scenario())
    assert errors == []
    assert sorted(m.component_id for m in before) == expected
    # the owner is dead; a replica-ring successor served the same rows
    assert sorted(m.component_id for m in after) == expected


def test_registration_visible_only_after_rpc_completes():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            host = 3
            template = cluster.scenario.population[0]
            spec = dataclasses.replace(template, function="zz_fresh_fn", peer=host)
            daemon = cluster.daemons[host]
            before, _ = await daemon._lookup("zz_fresh_fn", host)
            await daemon.register_components([spec])
            after_own, _ = await daemon._lookup("zz_fresh_fn", host)
            after_other, _ = await cluster.daemons[0]._lookup("zz_fresh_fn", 0)
            return before, after_own, after_other, cluster.errors()

    before, after_own, after_other, errors = asyncio.run(scenario())
    assert errors == []
    # the hosting peer cannot see its own component before the RPCs ran
    assert before == []
    assert [m.peer for m in after_own] == [3]
    assert [m.peer for m in after_other] == [3]


def test_compose_survives_directory_owner_death():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            gen = cluster.scenario.requests
            first = await cluster.compose(gen.next_request(source=1, dest=2), timeout=60)

            # kill the peer owning the most function keys — every lookup
            # for those functions must fail over to replica successors
            ring = next(iter(cluster.daemons.values())).ring
            owners = [ring.owner_peer(key_for(fn)) for fn in _functions(cluster)]
            victim = max(
                (p for p in set(owners) if p not in (1, 2)),
                key=owners.count,
            )
            cluster.kill_peer(victim)

            after = [
                await cluster.compose(gen.next_request(source=1, dest=2), timeout=60)
                for _ in range(3)
            ]
            stats = cluster.rpc_stats()
            violations = list(cluster.shared_guard.violations)
            failures = cluster.rpc_failures()
            return first, after, stats, cluster.errors(), violations, failures, victim

    first, after, stats, errors, violations, failures, victim = asyncio.run(scenario())
    assert errors == []
    assert violations == []
    assert first.success
    # the dead owner slows discovery down but cannot stop it: replica
    # failover keeps the duplicate lists reachable
    assert any(r.success for r in after)
    # calls at the dead owner fail fast (the endpoint's peer_down check
    # sees the killed transport) instead of burning retry budget
    assert failures, "lookups at the dead owner should record RpcFailures"
    assert all(f.attempts == 0 for f in failures if f.peer == victim)
