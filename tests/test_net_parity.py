"""Acceptance: the live runtime reproduces the synchronous BCP's choices.

A 10-peer loopback cluster and the plain synchronous ``BCP`` run the
same seeded request set against one shared scenario; both must select
the same service graph with the same probe accounting.  Credit-based
termination makes the live finalize quiescent (no in-flight probes),
which is what makes the comparison exact rather than statistical.

The live cluster serves repeated lookups from its directory tier's
peer-local caches, while the sync engine routes every lookup; selections
stay bit-identical all the same — the cached (components, rtt) pair is
exactly what re-routing a static ring would produce.  The sync engine is
therefore the per-lookup reference: what *does* differ is the
``dht_route`` charge per compose, which a dedicated test pins down
(fewer routes live, the same bcp_* books).  The matrix also spans the
event loop: the same cluster on the virtual-time loop (``repro.sim.vtime``)
makes the same choices, and so do diamond and commutation requests, which
the seeded request pools draw neither of.

A further test drives a real TCP cluster through a peer kill and shows a
composition still completing end-to-end with the retry/backoff path
exercised.
"""

import asyncio

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.sim import vtime
from repro.net.rpc import RetryPolicy
from repro.workload.generator import RequestConfig


def _parity_config(transport="loopback", **overrides):
    base = dict(
        n_peers=10,
        n_functions=6,
        transport=transport,
        seed=11,
        # bandwidth=0 keeps next-hop scoring independent of mid-wave pool
        # state, whose mutation *order* differs between substrates.
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
        capacity_scale=10.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


BCP_BOOKS = ("bcp_probe", "bcp_ack", "bcp_failure")
VIRTUAL_PHASES = ("discovery", "composition", "setup_ack")


def _matches_synchronous_bcp(run, **overrides):
    """The live cluster must reproduce the sync engine's exact choices,
    timings and ``bcp_*`` books — with *zero* reads of the scenario's
    registry / pool / DHT storage: the cluster's SharedStateGuard seals
    them for its whole lifetime and records (then raises on) any access.
    """

    async def scenario():
        cluster = LiveCluster(_parity_config(**overrides))
        requests = cluster.scenario.requests.batch(5)
        sync_bcp = cluster.scenario.net.bcp
        ledger = cluster.ledger

        # synchronous pass first: confirm=False releases every reservation,
        # so the live pass starts from identical pool state.  (Runs before
        # the cluster starts — the guard is sealed only while it runs.)
        snap = ledger.snapshot()
        expected = [sync_bcp.compose(r, confirm=False) for r in requests]
        sync_books = ledger.delta_since(snap)

        live = []
        async with cluster:
            snap = ledger.snapshot()
            for r in requests:
                live.append(await cluster.compose(r, confirm=False, timeout=60))
            live_books = ledger.delta_since(snap)
        leaked = cluster.soft_tokens()
        errors = cluster.errors()
        books = [(sync_books.get(c), live_books.get(c)) for c in BCP_BOOKS]
        return expected, live, books, leaked, errors, cluster.shared_guard.violations

    expected, live, books, leaked, errors, violations = run(scenario())
    assert errors == []
    assert leaked == {}
    assert violations == []
    assert any(e.success for e in expected), "fixture must compose something"
    for sync_r, live_r in zip(expected, live):
        rid = sync_r.request.request_id
        assert live_r.success == sync_r.success, rid
        if sync_r.success:
            assert live_r.best.signature() == sync_r.best.signature(), rid
        assert live_r.failure_reason == sync_r.failure_reason, rid
        assert live_r.best_qos == sync_r.best_qos, rid
        assert live_r.setup_time == sync_r.setup_time, rid
        for phase in VIRTUAL_PHASES:
            assert live_r.phases.get(phase) == sync_r.phases.get(phase), (rid, phase)
        assert live_r.probes_sent == sync_r.probes_sent, rid
        assert live_r.candidates_examined == sync_r.candidates_examined, rid
    for category, (sync_book, live_book) in zip(BCP_BOOKS, books):
        assert live_book == sync_book, category
    return expected


# (The ids date from a matrix that also had state-model, codec,
# coalescing and directory-cache axes; they are kept so test histories
# stay comparable.)
@pytest.mark.parametrize("run", [asyncio.run], ids=["distributed-v2-coalesced"])
def test_loopback_cluster_matches_synchronous_bcp(run):
    _matches_synchronous_bcp(run)


@pytest.mark.parametrize("run", [vtime.run], ids=["cache"])
def test_loopback_cluster_on_virtual_time_matches_synchronous_bcp(run):
    _matches_synchronous_bcp(run)


@pytest.mark.parametrize(
    "shape, requests",
    [
        ("diamond", RequestConfig(function_count=(4, 4), dag_probability=1.0)),
        ("commutation", RequestConfig(function_count=(3, 3), commutation_probability=1.0)),
    ],
    ids=["diamond", "commutation"],
)
def test_dag_and_commutation_requests_match_synchronous_bcp(shape, requests):
    expected = _matches_synchronous_bcp(vtime.run, request_config=requests)
    graphs = [r.request.function_graph for r in expected]
    if shape == "diamond":
        assert all(not g.is_linear() for g in graphs)
    else:
        assert all(g.commutations for g in graphs)


def test_directory_cache_changes_routing_charges_not_selections():
    """The directory tier's entire ledger effect must be the discovery
    plane: against the sync engine, which routes every lookup, the live
    cluster makes identical selections with identical bcp_* books,
    strictly fewer ``dht_route`` charges, and the saved work visible as
    the daemons' cache hits."""

    async def scenario():
        cluster = LiveCluster(
            _parity_config(
                # the 6th request has two candidates 0.35 % apart in ψλ:
                # with the measurement plane on, whether a link re-price
                # lands before it decides which wins.  This test is about
                # the directory tier only
                measurement=MeasurementConfig(enabled=False),
            )
        )
        requests = cluster.scenario.requests.batch(6)
        ledger = cluster.ledger
        # the sync pass runs before the cluster starts (the guard seals the
        # scenario only while it runs); confirm=False releases every
        # reservation, so the live pass starts from the same pool state
        snap = ledger.snapshot()
        expected = [cluster.scenario.net.bcp.compose(r, confirm=False) for r in requests]
        sync_delta = ledger.delta_since(snap)
        async with cluster:
            snap = ledger.snapshot()
            live = [await cluster.compose(r, confirm=False, timeout=60) for r in requests]
            live_delta = ledger.delta_since(snap)
        assert cluster.errors() == []
        assert cluster.soft_tokens() == {}
        assert cluster.shared_guard.violations == []
        return expected, live, sync_delta, live_delta, cluster.directory_stats()

    expected, live, sync_delta, live_delta, directory = vtime.run(scenario())

    def signatures(results):
        return [r.best.signature() if r.success else None for r in results]

    def counts(delta):
        return {cat: n for cat, (n, _bytes) in delta.items() if n}

    sync_counts, live_counts = counts(sync_delta), counts(live_delta)
    assert any(s is not None for s in signatures(expected)), "fixture must compose something"
    assert signatures(live) == signatures(expected)
    for cat in BCP_BOOKS:
        assert live_counts.get(cat, 0) == sync_counts.get(cat, 0), cat
    # the headline: cached lookups really skip the DHT routing work
    assert live_counts.get("dht_route", 0) < sync_counts.get("dht_route", 0)
    assert directory["cache_hits"] > 0


def test_tcp_cluster_survives_peer_kill():
    async def scenario():
        fast = RetryPolicy(timeout=0.3, retries=2, backoff=0.02)
        cluster = LiveCluster(
            _parity_config(transport="tcp", retry=fast)
        )
        async with cluster:
            gen = cluster.scenario.requests
            baseline = await cluster.compose(gen.next_request(source=1, dest=2), timeout=60)

            cluster.kill_peer(0)  # registry still routes probes at the corpse

            after = [
                await cluster.compose(gen.next_request(source=3, dest=4), timeout=60)
                for _ in range(3)
            ]
            stats = cluster.rpc_stats()
            errors = cluster.errors()
            failures = cluster.rpc_failures()
        return baseline, after, stats, errors, failures

    baseline, after, stats, errors, failures = asyncio.run(scenario())
    assert errors == []
    assert baseline.success
    # at least one composition completes end-to-end despite the dead peer
    assert any(r.success for r in after)
    # the kill is only a real test if probes actually hit the corpse —
    # they fail fast (peer_down sees the killed transport, 0 attempts)
    # instead of burning the retry/backoff budget per hop
    assert any(f.peer == 0 for f in failures)
    assert all(f.attempts == 0 for f in failures if f.peer == 0)
