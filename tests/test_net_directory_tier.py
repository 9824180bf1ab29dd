"""The directory tier: caching, churn, invalidation.

The tier rides on the directory slices: peer-local positive caches,
invalidated by registration churn, and batched boot registration.
These tests pin down the correctness edges the parity matrix cannot see:

* churn invalidation — a content-changing re-registration must be
  visible to every peer's next lookup, not after a TTL, even when the
  lookup that warmed the cache was still in flight;
* invalidation targets — exactly the peers that queried the function;
* hygiene — the miss single-flight map drains after every compose.
"""

import asyncio
import dataclasses

import pytest

from repro.core.bcp import BCPConfig
from repro.core.qos import QoSVector
from repro.dht.id_space import key_for
from repro.discovery.metadata import ServiceMetadata
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.sim import vtime
from repro.net.directory import DirectorySlice
from repro.net.rpc import RetryPolicy, RpcError


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


def _delay(rows, component_id):
    return {m.component_id: m.qp.values.get("delay") for m in rows}[component_id]


# ----------------------------------------------------------------------
# slice bookkeeping
# ----------------------------------------------------------------------
def test_slice_versions_track_content_changes():
    # (the id dates from per-key content versions; what is left of them
    # is store()'s answer, which decides whether a registration invalidates)
    cluster = _cluster()
    spec = cluster.scenario.population[0]
    key = key_for(spec.function)
    d = DirectorySlice()
    meta = ServiceMetadata.from_spec(spec, registered_at=0.0)

    assert d.store(key, meta) is True  # a new row = content change
    assert d.store(key, meta) is False  # exact replay: no change

    changed = ServiceMetadata.from_spec(
        dataclasses.replace(spec, qp=QoSVector({"delay": 99.0})), registered_at=1.0
    )
    assert d.store(key, changed) is True  # replaced row = content change


# ----------------------------------------------------------------------
# boot-time registration batching
# ----------------------------------------------------------------------
def test_register_batch_coalesces_boot_frames():
    async def scenario():
        # a small ring concentrates each registrant's specs on few
        # replicas, which is where per-target batching pays off
        cluster = _cluster(n_peers=5)
        async with cluster:
            wire = cluster.tap.wire_summary()
        assert cluster.errors() == []
        return cluster, wire.get("net_directory", (0, 0))[0]

    cluster, frames = asyncio.run(scenario())
    ring = next(iter(cluster.daemons.values())).ring
    sends = [
        (spec.peer, replica)
        for spec in cluster.scenario.population
        for replica in ring.replica_peers(key_for(spec.function))
        if replica != spec.peer
    ]
    # exactly one RegisterBatch per (registrant, remote base replica): a
    # batch split in two, or sent twice, is one frame too many here, and
    # boot sends no invalidation (no peer holds cached state yet)
    assert len(set(sends)) < len(sends)  # the fixture has specs to coalesce
    assert frames == len(set(sends))


# ----------------------------------------------------------------------
# churn invalidation
# ----------------------------------------------------------------------
def test_churn_invalidation_reaches_warm_caches_distributed():
    """Re-registering a component with changed QoS must be visible to
    the next lookup of *every* peer that cached the old rows — the
    precise ReplicaInvalidate fan-out, not the TTL, does this."""

    async def scenario():
        cluster = _cluster()
        async with cluster:
            spec = cluster.scenario.population[0]
            fn, key = spec.function, key_for(spec.function)
            host = cluster.daemons[spec.peer]
            queriers = [
                d
                for p, d in sorted(cluster.daemons.items())
                if p not in d.ring.replica_peers(key) and p != spec.peer
            ][:3]
            assert queriers, "fixture: no outside queriers"

            # warm every querier's positive cache over the wire
            warm = {}
            for d in queriers:
                rows, _ = await d._lookup(fn, d.peer_id)
                warm[d.peer_id] = {
                    m.component_id: m.qp.values.get("delay") for m in rows
                }
                assert fn in d._dir_cache  # really cached

            changed = dataclasses.replace(spec, qp=QoSVector({"delay": 99.0}))
            await host.register_components([changed], now=1.0)

            after = {}
            for d in queriers:
                rows, _ = await d._lookup(fn, d.peer_id)
                after[d.peer_id] = {
                    m.component_id: m.qp.values.get("delay") for m in rows
                }
            return spec, warm, after, cluster.errors()

    spec, warm, after, errors = asyncio.run(scenario())
    assert errors == []
    for peer, rows in warm.items():
        assert rows[spec.component_id] != 99.0, peer
    for peer, rows in after.items():
        assert rows[spec.component_id] == 99.0, peer


def test_reregistration_past_a_dead_replica_still_reaches_the_rest():
    """One replica target that cannot be reached must not stop a
    re-registration half-way: the surviving replicas get the new row, the
    invalidations their replies name still go out — a warm cache sees the
    change on its next lookup, not after its TTL — and the caller still
    hears that a replica was missed."""

    async def scenario():
        cluster = _cluster()
        async with cluster:
            ring = next(iter(cluster.daemons.values())).ring
            # the victim sorts first among the targets, so a registrant
            # that stops at the first failure has told nobody
            spec, replicas = next(
                (s, ring.replica_peers(key_for(s.function)))
                for s in cluster.scenario.population
                if s.peer not in ring.replica_peers(key_for(s.function))
                and min(ring.replica_peers(key_for(s.function)))
                != ring.replica_peers(key_for(s.function))[0]
            )
            fn, key = spec.function, key_for(spec.function)
            victim = min(replicas)
            querier = next(
                d for p, d in sorted(cluster.daemons.items())
                if p not in replicas and p != spec.peer
            )
            await querier._lookup(fn, querier.peer_id)
            assert fn in querier._dir_cache  # warm

            cluster.kill_peer(victim)
            changed = dataclasses.replace(spec, qp=QoSVector({"delay": 99.0}))
            with pytest.raises(RpcError):
                await cluster.daemons[spec.peer].register_components([changed], now=1.0)

            stored = {
                p: {m.component_id: m.qp.values.get("delay")
                    for m in cluster.daemons[p].directory.lookup(key)}
                for p in replicas
                if p != victim
            }
            rows, _ = await querier._lookup(fn, querier.peer_id)
            seen = {m.component_id: m.qp.values.get("delay") for m in rows}
            return spec, stored, seen, cluster.errors()

    spec, stored, seen, errors = asyncio.run(scenario())
    assert errors == []
    assert stored, "fixture: no surviving replica"
    for peer, rows in stored.items():
        assert rows[spec.component_id] == 99.0, peer
    assert seen[spec.component_id] == 99.0


def test_an_invalidation_is_not_lost_to_a_lookup_in_flight():
    """A re-registration that completes while a querier's lookup of the
    function is still in flight must reach that querier's cache as well.
    Here the lookup's reply is lost, the owner has already counted the
    querier, and the retry is answered from the owner's reply cache with
    the rows from before the change: those rows may answer the lookup
    that was waiting, but must not sit in the cache for its TTL."""

    async def scenario():
        cluster = _cluster(measurement=MeasurementConfig(enabled=False))
        spec = cluster.scenario.population[0]
        fn, key = spec.function, key_for(spec.function)
        replicas = next(iter(cluster.daemons.values())).ring.replica_peers(key)
        querier = next(p for p in sorted(cluster.daemons) if p not in replicas and p != spec.peer)
        lookups, dropped = set(), []
        send = cluster.transport.send

        async def lose_one_lookup_reply(src, dst, envelope):
            body = envelope.get("body")
            if envelope["kind"] == "req" and isinstance(body, codec.LookupRequest):
                lookups.add((src, envelope["id"]))
            elif envelope["kind"] == "res" and (dst, envelope["id"]) in lookups and not dropped:
                dropped.append(src)
                return
            await send(src, dst, envelope)

        cluster.transport.send = lose_one_lookup_reply
        async with cluster:
            daemon = cluster.daemons[querier]
            in_flight = asyncio.ensure_future(daemon._lookup(fn, querier))
            await asyncio.sleep(0.05)
            assert dropped == [replicas[0]] and not in_flight.done()
            changed = dataclasses.replace(spec, qp=QoSVector({"delay": 99.0}))
            await cluster.daemons[spec.peer].register_components([changed], now=1.0)
            during, _ = await in_flight
            await asyncio.sleep(1.0)
            after, _ = await daemon._lookup(fn, querier)
            return spec, during, after, cluster.errors()

    spec, during, after, errors = vtime.run(scenario())
    assert errors == []
    assert _delay(during, spec.component_id) != 99.0  # the replayed reply
    assert _delay(after, spec.component_id) == 99.0


def test_invalidation_reaches_exactly_the_functions_queriers():
    """A re-registration invalidates the peers that queried its function
    and no other: a peer that asked the same replica about another
    function caches nothing the change could make stale."""

    async def scenario():
        cluster = _cluster(measurement=MeasurementConfig(enabled=False))
        ring = next(iter(cluster.daemons.values())).ring
        functions = sorted({s.function for s in cluster.scenario.population})
        # function A (spec's) and a function B whose owner is one of A's replicas
        spec, other = next(
            (s, b)
            for s in cluster.scenario.population
            for b in functions
            if b != s.function
            and ring.owner_peer(key_for(b)) in ring.replica_peers(key_for(s.function))
        )
        fn = spec.function
        inside = set(ring.replica_peers(key_for(fn))) | set(ring.replica_peers(key_for(other)))
        outsiders = [p for p in sorted(cluster.daemons) if p not in inside and p != spec.peer]
        assert len(outsiders) >= 2, "fixture: too few peers outside both replica sets"
        querier_a, querier_b = outsiders[:2]
        invalidated = []
        send = cluster.transport.send

        async def record(src, dst, envelope):
            body = envelope.get("body")
            if envelope["kind"] == "req" and isinstance(body, codec.ReplicaInvalidate):
                invalidated.append((dst, body.function))
            await send(src, dst, envelope)

        cluster.transport.send = record
        async with cluster:
            await cluster.daemons[querier_a]._lookup(fn, querier_a)
            await cluster.daemons[querier_b]._lookup(other, querier_b)
            changed = dataclasses.replace(spec, qp=QoSVector({"delay": 99.0}))
            await cluster.daemons[spec.peer].register_components([changed], now=1.0)
            return fn, querier_a, invalidated, cluster.errors()

    fn, querier_a, invalidated, errors = vtime.run(scenario())
    assert errors == []
    assert invalidated == [(querier_a, fn)]


# ----------------------------------------------------------------------
# single-flight hygiene
# ----------------------------------------------------------------------
@pytest.mark.parametrize("soft", [True], ids=["tier-on"])
def test_lookup_flight_maps_drain_after_compose(soft):
    # a miss's flight entry lives only while its leader fetches: no
    # teardown message reaches every daemon, so none may outlive it
    async def scenario():
        cluster = _cluster(bcp_config=BCPConfig(soft_allocation=soft))
        async with cluster:
            gen = cluster.scenario.requests
            for _ in range(3):
                await cluster.compose(gen.next_request(), timeout=60)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            misses = {p: dict(d._miss_flight) for p, d in cluster.daemons.items()}
            return misses, cluster.errors(), cluster.soft_tokens()

    misses, errors, soft_tokens = asyncio.run(scenario())
    assert errors == []
    assert soft_tokens == {}
    assert all(not m for m in misses.values()), misses
