"""End-to-end LiveCluster behaviour: sessions, ledger books, tracing."""

import asyncio

import pytest

from repro.core.bcp import BCPConfig
from repro.net import ClusterConfig, LiveCluster
from repro.sim.tracing import EventTrace


def _small_config(**overrides):
    base = dict(n_peers=6, n_functions=5, seed=2, capacity_scale=4.0)
    base.update(overrides)
    return ClusterConfig(**base)


def test_compose_with_confirm_establishes_sessions():
    async def scenario():
        trace = EventTrace()
        cluster = LiveCluster(_small_config(), trace=trace)
        async with cluster:
            requests = cluster.scenario.requests.batch(3)
            results = [await cluster.compose(r, confirm=True, timeout=60) for r in requests]
            sessions = {
                rid: s
                for d in cluster.daemons.values()
                for rid, s in d.sessions.items()
            }
        return cluster, trace, results, sessions

    cluster, trace, results, sessions = asyncio.run(scenario())
    assert cluster.errors() == []
    assert any(r.success for r in results)
    for r in results:
        if r.success:
            # confirmed sessions hold hard tokens and appear at the source
            assert r.session_tokens
            assert sessions[r.request.request_id].graph == r.best
            assert not sessions[r.request.request_id].failed
    # soft state fully promoted or released — nothing left dangling
    assert cluster.soft_tokens() == {}
    # trace carries the live categories
    cats = trace.categories()
    assert "cluster_started" in cats
    assert "compose_finished" in cats
    assert "session_established" in cats


def test_ledger_carries_sim_and_wire_books():
    async def scenario():
        cluster = LiveCluster(_small_config())
        async with cluster:
            request = cluster.scenario.requests.next_request()
            result = await cluster.compose(request, confirm=False, timeout=60)
        return cluster, result

    cluster, result = asyncio.run(scenario())
    assert result.probes_sent > 0
    ledger = cluster.ledger
    # sim-category books: identical keys to the simulated runtime, so the
    # overhead experiment's accounting works unchanged on a live cluster
    assert ledger.count["bcp_probe"] == result.probes_sent
    assert ledger.count["dht_route"] > 0
    # wire books: what actually crossed the transport, live-only keys
    assert ledger.count["net_ack"] > 0
    frames, nbytes = ledger.count["net_probe"], ledger.bytes["net_probe"]
    assert frames > 0 and nbytes > frames  # real encoded sizes, not nominal
    stats = cluster.rpc_stats()
    assert stats["frames_sent"] > 0
    assert stats["bytes_sent"] == cluster.transport.bytes_sent


def test_failed_composition_reports_reason_and_charges_failure():
    async def scenario():
        cluster = LiveCluster(_small_config())
        async with cluster:
            # an impossible budget of 1 starves the probe wave immediately
            request = cluster.scenario.requests.next_request()
            result = await cluster.compose(request, budget=1, confirm=True, timeout=60)
        return cluster, result

    cluster, result = asyncio.run(scenario())
    assert cluster.errors() == []
    if not result.success:
        assert result.failure_reason
        assert cluster.ledger.count.get("bcp_failure", 0) >= 1
    assert cluster.soft_tokens() == {}


def test_compose_concurrent_pipelines_isolated_sessions():
    async def scenario():
        cluster = LiveCluster(_small_config(capacity_scale=10.0))
        async with cluster:
            requests = cluster.scenario.requests.batch(8)
            results = await cluster.compose_concurrent(
                requests, concurrency=4, confirm=False, timeout=60
            )
        return cluster, requests, results

    cluster, requests, results = asyncio.run(scenario())
    # per-session isolation: no daemon errors, no leaked soft state, and
    # results come back in request order despite overlapped execution
    assert cluster.errors() == []
    assert cluster.soft_tokens() == {}
    assert len(results) == len(requests)
    assert [r.request.request_id for r in results] == [
        r.request_id for r in requests
    ]
    assert any(r.success for r in results)


def test_compose_concurrent_rejects_bad_concurrency():
    async def scenario():
        cluster = LiveCluster(_small_config())
        async with cluster:
            with pytest.raises(ValueError, match="concurrency"):
                await cluster.compose_concurrent(
                    cluster.scenario.requests.batch(1), concurrency=0
                )

    asyncio.run(scenario())


def test_unknown_transport_rejected():
    with pytest.raises(ValueError, match="transport"):
        LiveCluster(ClusterConfig(transport="carrier-pigeon"))


def test_compose_requires_started_cluster():
    cluster = LiveCluster(_small_config())
    request = cluster.scenario.requests.next_request()
    with pytest.raises(RuntimeError, match="not started"):
        asyncio.run(cluster.compose(request))


def test_the_no_soft_allocation_ablation_is_refused():
    # a live destination confirms the reservations its probes made; the
    # ablation without them runs on the synchronous engine
    with pytest.raises(ValueError, match="soft_allocation=False"):
        LiveCluster(_small_config(bcp_config=BCPConfig(soft_allocation=False)))
