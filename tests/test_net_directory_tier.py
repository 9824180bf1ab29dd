"""The directory tier: caching, churn, Bloom, fan-out.

The tier (``DirectoryTierConfig``) rides on the directory slices: peer-local
positive caches invalidated by registration churn, Bloom-summary
negative caching, popularity-driven replica pushes and batched boot
registration.  These tests pin down the correctness edges the parity
matrix cannot see:

* churn invalidation — a content-changing re-registration must be
  visible to every peer's next lookup, not after a TTL;
* Bloom semantics — a false positive degrades to a real routed lookup
  (never a phantom *presence*), and absence proofs can never hide a
  registered function (no false negatives by construction);
* fan-out — a hot key's rows land past the base replica set and serve
  lookups there without touching the owner;
* hygiene — the miss single-flight map drains after every compose.
"""

import asyncio
import dataclasses

import pytest

from repro.core.bcp import BCPConfig
from repro.core.qos import QoSVector
from repro.dht.id_space import key_for
from repro.discovery.metadata import ServiceMetadata
from repro.net import ClusterConfig, DirectoryTierConfig, LiveCluster
from repro.net.bloom import BloomFilter
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


def _functions(cluster):
    return sorted({s.function for s in cluster.scenario.population})


def _wire_function(cluster, daemon):
    """A (function, key) pair the daemon must resolve over the wire."""
    for fn in _functions(cluster):
        key = key_for(fn)
        if daemon.peer_id not in daemon.ring.replica_peers(key):
            return fn, key
    pytest.skip("fixture: daemon replicates every function key")


# ----------------------------------------------------------------------
# Bloom filter
# ----------------------------------------------------------------------
def test_bloom_filter_no_false_negatives_and_wire_roundtrip():
    bloom = BloomFilter()
    names = [f"F{i:03d}" for i in range(40)]
    for name in names:
        bloom.add(name)
    # no false negatives, ever — that is the invariant negative caching
    # leans on (a FP costs a wasted lookup; a FN would hide a service)
    assert all(name in bloom for name in names)
    assert len(bloom) > 0

    wire = bloom.to_wire()
    m, k, bits = wire
    assert isinstance(bits, str)
    copy = BloomFilter.from_wire(wire)
    assert copy == bloom
    assert all(name in copy for name in names)

    with pytest.raises(ValueError):
        BloomFilter(m=0)
    with pytest.raises(ValueError):
        BloomFilter(k=0)


def test_bloom_false_positive_rate_is_small():
    bloom = BloomFilter(m=512, k=4)
    for i in range(30):
        bloom.add(f"member{i}")
    fps = sum(1 for i in range(1000) if f"absent{i}" in bloom)
    # 30 members in 512 bits / 4 hashes -> theoretical FP ~0.03%
    assert fps < 50


# ----------------------------------------------------------------------
# slice bookkeeping
# ----------------------------------------------------------------------
def test_slice_versions_track_content_changes():
    cluster = _cluster()
    spec = cluster.scenario.population[0]
    key = key_for(spec.function)
    d = DirectorySlice()
    meta = ServiceMetadata.from_spec(spec, registered_at=0.0)

    assert d.store(key, meta) is True
    v1 = d.key_version(key)
    assert v1 == d.version > 0
    assert d.store(key, meta) is False  # exact replay: no version bump
    assert d.key_version(key) == v1

    changed = ServiceMetadata.from_spec(
        dataclasses.replace(spec, qp=QoSVector({"delay": 99.0})), registered_at=1.0
    )
    assert d.store(key, changed) is True  # replaced row = content change
    assert d.key_version(key) > v1
    assert spec.function in d.bloom

    # replica rows: newest version wins, stale pushes are dropped
    assert d.store_replica(key, [meta], version=5) is True
    assert d.store_replica(key, [changed], version=4) is False
    assert [m.registered_at for m in d.replica_lookup(key)] == [0.0]
    assert d.store_replica(key, [changed], version=6) is True
    d.drop_replica(key)
    assert d.replica_lookup(key) is None


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


# ----------------------------------------------------------------------
# Bloom negative caching on the live path
# ----------------------------------------------------------------------
def test_bloom_short_circuits_absent_function_lookups():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            daemon = next(
                d for d in cluster.daemons.values()
                if d.ring.owner_peer(key_for("zz_nowhere")) != d.peer_id
            )
            first, _ = await daemon._lookup("zz_nowhere", daemon.peer_id)
            owner = daemon.ring.owner_peer(key_for("zz_nowhere"))
            learned = owner in daemon._owner_blooms
            # drop the positive (empty) cache entry so the second lookup
            # exercises the negative path, not the positive cache
            daemon._dir_cache.clear()
            frames_before = cluster.transport.frames_sent
            second, _ = await daemon._lookup("zz_nowhere", daemon.peer_id)
            frames_after = cluster.transport.frames_sent
            return (
                first, second, learned, daemon.neg_hits,
                frames_after - frames_before, cluster.errors(),
            )

    first, second, learned, neg_hits, frames, errors = asyncio.run(scenario())
    assert errors == []
    assert first == [] and second == []
    assert learned  # the miss carried the owner's summary back
    assert neg_hits >= 1
    assert frames == 0  # absence proved without touching the wire


def test_bloom_false_positive_falls_back_to_real_lookup():
    """A Bloom false positive must degrade to a routed wire lookup that
    returns the truth (no rows) — never to a phantom presence."""

    async def scenario():
        cluster = _cluster()
        async with cluster:
            fn = "zz_phantom"
            key = key_for(fn)
            daemon = next(
                d for d in cluster.daemons.values()
                if d.peer_id not in d.ring.replica_peers(key)
            )
            owner = daemon.ring.owner_peer(key)
            # forge a summary that claims the absent function is present
            # (the worst-case false positive)
            fp = BloomFilter()
            fp.add(fn)
            daemon._owner_blooms[owner] = (fp, 1e9)
            frames_before = cluster.transport.frames_sent
            rows, _ = await daemon._lookup(fn, daemon.peer_id)
            frames_after = cluster.transport.frames_sent
            return rows, frames_after - frames_before, cluster.errors()

    rows, frames, errors = asyncio.run(scenario())
    assert errors == []
    assert rows == []  # ground truth wins
    assert frames > 0  # the FP cost a real wire exchange, nothing more


# ----------------------------------------------------------------------
# popularity-driven replica fan-out
# ----------------------------------------------------------------------
def test_hot_function_rows_fan_out_past_base_replicas():
    async def scenario():
        tier = DirectoryTierConfig(
            hot_threshold=3.0, replica_span=2, popularity_halflife=100.0
        )
        cluster = _cluster(directory_tier=tier)
        async with cluster:
            ring = next(iter(cluster.daemons.values())).ring
            # a function whose extended ring has room past the base set
            fn = key = extended = None
            for cand in _functions(cluster):
                k = key_for(cand)
                base = ring.replica_peers(k)
                ext = [p for p in ring.extended_replica_peers(k, 2) if p not in base]
                if ext:
                    fn, key, extended = cand, k, ext
                    break
            assert fn is not None

            owner = ring.owner_peer(key)
            expected = sorted(
                s.component_id
                for s in cluster.scenario.population
                if s.function == fn
            )
            outsiders = [
                p for p in sorted(cluster.daemons)
                if p not in ring.replica_peers(key) and p not in extended
            ]
            for p in outsiders[:4]:
                await cluster.daemons[p]._lookup(fn, p)
            await cluster.daemons[owner].drain()  # let the spawned push land

            target = cluster.daemons[extended[0]]
            held = target.directory.replica_lookup(key)

            frames_before = cluster.transport.frames_sent
            rows, _ = await target._lookup(fn, target.peer_id)
            frames_local = cluster.transport.frames_sent - frames_before
            return expected, held, rows, frames_local, target.replica_serves, cluster.errors()

    expected, held, rows, frames_local, serves, errors = asyncio.run(scenario())
    assert errors == []
    assert held is not None, "hot rows never reached the extended replica"
    assert sorted(m.component_id for m in held) == expected
    # the holder now serves the hot key without any wire traffic
    assert sorted(m.component_id for m in rows) == expected
    assert frames_local == 0
    assert serves >= 1


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
