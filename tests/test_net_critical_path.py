"""What a live compose waits for: one-way hops, not per-hop round trips.

Everything the destination must know before its window may close (who
reserved what, the discovery RTT) travels with the probes' termination
credit, so no admitting peer — and not the source — stops for a round
trip of its own to the destination; and the source does not wait for the
reply to its ``ComposeBegin`` either: the wave leaves right behind it.
Nor does the destination wait for its release wave: the releases are
handed to the transport just ahead of the ``ComposeResult``.  With a
constant one-way delay L on every frame and warm lookup caches, a
sequential measurement-only compose of an n-function chain therefore takes

    (n + 1) one-way probe hops + result
    = (n + 2) * L

and a confirmed one one setup-ack round trip more, ``(n + 4) * L``,
however many peers the chosen path has: the acks go out together.  A
report awaited at every admitting hop would add 2L per hop, a begin,
discovery or release round trip 2L more, an ack per path peer 2L each.
When ``compose`` returns the releases are on the wire, and one more L
applies them.

The same holds for a re-registration: the rows go to every replica
target at once and the invalidations they name to every stale holder at
once — two round trips, not one per peer.

The cluster runs on the virtual-time loop, where processing takes no
time: each duration is exactly its count of one-way delays, so one extra
hop anywhere on the path fails here instead of hiding in slack.
"""

import asyncio
import dataclasses

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.core.qos import QoSVector
from repro.dht.id_space import key_for
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.sim import vtime
from test_net_begin_overlap import sent_requests

ONE_WAY = 0.04


def _cluster():
    return LiveCluster(
        ClusterConfig(
            n_peers=16,
            n_functions=6,
            seed=7,
            capacity_scale=10.0,
            latency=ONE_WAY,
            # no PathProbe frames, no re-pricing between the passes
            measurement=MeasurementConfig(enabled=False),
            bcp_config=BCPConfig(
                budget=32,
                nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
            ),
        )
    )


def _chain_request(cluster):
    """A chain of at least three functions the sync engine composes (run
    before the cluster seals)."""
    return next(
        r
        for r in cluster.scenario.requests.batch(20)
        if r.function_graph.is_linear()
        and len(r.function_graph.functions) >= 3
        and cluster.scenario.net.bcp.compose(r, confirm=False).success
    )


def test_compose_waits_for_one_way_hops_not_per_hop_round_trips():
    async def scenario():
        cluster = _cluster()
        request = _chain_request(cluster)
        sent = sent_requests(cluster)
        loop = asyncio.get_running_loop()
        async with cluster:
            # first pass: fills every lookup cache the wave touches
            warm = await cluster.compose(request, confirm=False, timeout=60)
            results, times = {False: [], True: []}, {False: [], True: []}
            rid = request.request_id
            for confirm in (False, True):
                for _ in (1, 2):
                    rid += 10_000_000
                    again = dataclasses.replace(request, request_id=rid)
                    t0 = loop.time()
                    results[confirm].append(
                        await cluster.compose(again, confirm=confirm, timeout=60)
                    )
                    times[confirm].append(loop.time() - t0)
            soft, errors = cluster.soft_tokens(), cluster.errors()
        return request, warm, results, times, sent, soft, errors

    request, warm, results, times, sent, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert warm.success
    for result in results[False]:
        assert result.success and result.best.signature() == warm.best.signature()
    # the earlier sessions' firm load may move a later confirmed choice
    assert all(result.success and result.session_tokens for result in results[True])
    # on the wire a compose's begin is handed over before its first probe
    for result in (warm, *results[False], *results[True]):
        mine = [
            type(body)
            for body in sent
            if isinstance(body, (codec.ComposeBegin, codec.ProbeTransfer))
            and body.request_id == result.request.request_id
        ]
        assert mine[0] is codec.ComposeBegin and codec.ProbeTransfer in mine
    n = len(request.function_graph.functions)
    for confirm, hops in (
        (False, n + 2),  # probes n, final 1, result 1
        (True, n + 4),  # and one setup-ack round trip, whatever the path's length
    ):
        for elapsed in times[confirm]:
            assert elapsed / ONE_WAY == pytest.approx(hops, rel=1e-9), (
                f"{n}-function chain, confirm={confirm}: {elapsed / ONE_WAY:.3f} "
                f"one-way hops, not {hops}"
            )


def test_compose_returns_with_its_releases_on_the_wire():
    """The destination does not wait for the release wave, but it hands
    every ``SessionRelease`` to the transport before the ``ComposeResult``,
    so one more one-way delay after ``compose`` returns no soft token is
    left anywhere."""

    async def scenario():
        cluster = _cluster()
        request = _chain_request(cluster)
        sent = sent_requests(cluster)
        rids, settled = [], []
        async with cluster:
            for confirm in (False, False, True):
                rid = request.request_id + 10_000_000 * (len(rids) + 1)
                again = dataclasses.replace(request, request_id=rid)
                result = await cluster.compose(again, confirm=confirm, timeout=60)
                assert result.success
                rids.append(rid)
                await asyncio.sleep(ONE_WAY)
                settled.append(cluster.soft_tokens())
            errors = cluster.errors()
        return rids, settled, sent, errors

    rids, settled, sent, errors = vtime.run(scenario())
    assert errors == []
    assert settled == [{}] * len(rids)
    for rid in rids:
        mine = [
            type(body)
            for body in sent
            if isinstance(body, (codec.SessionRelease, codec.ComposeResult))
            and body.request_id == rid
        ]
        assert codec.SessionRelease in mine, "fixture: no remote holder to release"
        assert mine[-1] is codec.ComposeResult and mine.count(codec.ComposeResult) == 1


def test_reregistration_waits_for_two_round_trips_not_one_per_peer():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            spec, targets = next(
                (s, cluster.daemons[s.peer].ring.replica_peers(key_for(s.function)))
                for s in cluster.scenario.population
                if s.peer not in cluster.daemons[s.peer].ring.replica_peers(key_for(s.function))
            )
            host = cluster.daemons[spec.peer]
            queriers = [
                d for p, d in sorted(cluster.daemons.items())
                if p not in targets and p != spec.peer
            ][:4]
            for d in queriers:  # warm caches: the owner books them as stale holders
                await d._lookup(spec.function, d.peer_id)
            changed = dataclasses.replace(spec, qp=QoSVector({"delay": 99.0}))
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await host.register_components([changed], now=1.0)
            elapsed = loop.time() - t0
            seen = [
                {m.component_id: m.qp.values.get("delay")
                 for m in (await d._lookup(spec.function, d.peer_id))[0]}
                for d in queriers
            ]
            errors = cluster.errors()
        return spec, targets, queriers, elapsed, seen, errors

    spec, targets, queriers, elapsed, seen, errors = vtime.run(scenario())
    assert errors == []
    assert len(targets) >= 2 and len(queriers) >= 2, "fixture: nothing to serialise"
    assert all(rows[spec.component_id] == 99.0 for rows in seen)  # coherent on return
    # rows to every target, then invalidations to every holder: 2 round trips
    assert elapsed / ONE_WAY == pytest.approx(4, rel=1e-9), (
        f"re-registration with {len(targets)} replica targets and {len(queriers)} "
        f"stale holders took {elapsed / ONE_WAY:.3f} one-way hops, not 4"
    )
