"""The source does not wait for ``ComposeBegin``'s reply: early, open, late.

The begin goes to the transport first and the probe wave leaves behind
it, not behind its round trip.  On the source -> destination link the
begin therefore still precedes every frame of its compose, but a third
peer's ``FinalProbe`` / ``CreditReturn`` may overtake it.  The
destination parks such a frame (acked ``ok``) and counts it, in arrival
order, when the begin lands; a parked frame whose begin never comes is
treated as late after ``collect_wall_timeout``.  Where the begin's reply
can or must end the compose — admission configured, destination known
down — the source still waits for it, and a compose that does not run
costs one round trip and zero probes, exactly as before.

After each scenario: no soft token anywhere, every pool consistent,
every ``compose`` returned or raised, no daemon error.
"""

import asyncio
import dataclasses

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import (
    AdmissionConfig,
    ClusterConfig,
    LiveCluster,
    MeasurementConfig,
    codec,
)
from repro.net.peer import CREDIT
from repro.net.rpc import RetryPolicy, RpcTimeout
from repro.sim import vtime

WALL = 0.6  # collect_wall_timeout: how long a parked frame waits for its begin


def _cluster(**overrides):
    fast = RetryPolicy(timeout=0.2, retries=1, backoff=0.02)
    base = dict(
        n_peers=10,
        n_functions=6,
        seed=11,
        capacity_scale=10.0,
        retry=fast,
        collect_wall_timeout=WALL,
        measurement=MeasurementConfig(enabled=False),
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
    )
    base.update(overrides)
    return LiveCluster(ClusterConfig(**base))


def sent_requests(cluster):
    """Request bodies in the order their senders hand them to the wire."""
    bodies = []
    inner = cluster.transport.tap

    def tap(direction, envelope, n_bytes):
        if direction == "tx" and envelope.get("kind") == "req":
            bodies.append(envelope["body"])
        inner(direction, envelope, n_bytes)

    cluster.transport.tap = tap
    return bodies


def _probes(bodies, rid):
    return [b for b in bodies if isinstance(b, codec.ProbeTransfer) and b.request_id == rid]


def _a_request(cluster, remote_hops=False):
    """A request the sync engine composes (run before the cluster seals)."""
    for request in cluster.scenario.requests.batch(20):
        if request.source_peer == request.dest_peer:
            continue
        expected = cluster.scenario.net.bcp.compose(request, confirm=False)
        if not expected.success:
            continue
        hosts = set(expected.best.peers()) - {request.source_peer, request.dest_peer}
        if hosts or not remote_hops:
            return request, expected
    raise AssertionError("fixture: no composable request")


def _consistent(cluster):
    for daemon in cluster.daemons.values():
        daemon.bcp.pool.check_invariants()
    return cluster.soft_tokens(), cluster.errors()


def test_frames_that_overtake_the_begin_are_counted_when_it_lands():
    slow = {}

    def latency(src, dst):
        # source -> destination slower than any detour through a third peer
        return 0.25 if (src, dst) == slow.get("link") else 0.002

    async def scenario():
        cluster = _cluster(latency=latency)
        request, expected = _a_request(cluster, remote_hops=True)
        slow["link"] = (request.source_peer, request.dest_peer)
        dest = cluster.daemons[request.dest_peer]
        replies, waiting = [], []
        arrive, on_begin = dest._arrive, dest._on_begin

        def log_arrive(msg):
            reply = arrive(msg)
            replies.append(reply)
            return reply

        async def log_begin(src, msg):
            waiting.append(len(dest._parked.get(msg.request_id, (None, ()))[1]))
            return await on_begin(src, msg)

        dest._arrive = log_arrive
        dest.endpoint.on(codec.ComposeBegin, log_begin)
        async with cluster:
            result = await cluster.compose(request, confirm=False, timeout=30)
            parked = dict(dest._parked)
            soft, errors = _consistent(cluster)
        return expected, result, replies, waiting, parked, soft, errors

    expected, result, replies, waiting, parked, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert waiting and waiting[0] > 0, "fixture: no frame overtook the begin"
    assert replies and all(reply == {"ok": True} for reply in replies)
    assert parked == {}
    assert result.success
    assert result.best.signature() == expected.best.signature()
    assert result.probes_sent == expected.probes_sent
    assert result.candidates_examined == expected.candidates_examined


def test_a_begin_that_never_arrives_fails_the_compose_and_frees_the_holders():
    async def scenario():
        cluster = _cluster()
        request, _ = _a_request(cluster, remote_hops=True)
        dest = cluster.daemons[request.dest_peer]
        send = cluster.transport.send

        async def lose_the_begin(src, dst, envelope):
            if isinstance(envelope.get("body"), codec.ComposeBegin):
                return False
            return await send(src, dst, envelope)

        cluster.transport.send = lose_the_begin
        async with cluster:
            with pytest.raises(RpcTimeout):
                await cluster.compose(request, confirm=False, timeout=30)
            held = cluster.soft_tokens()
            parked = len(dest._parked.get(request.request_id, (None, ()))[1])
            await asyncio.sleep(WALL + 0.3)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            left = dict(dest._parked)
            soft, errors = _consistent(cluster)
        return held, parked, left, soft, errors, dict(dest._parked), len(dest._closed)

    held, parked, left, soft, errors, after_stop, closed = vtime.run(scenario())
    assert errors == []
    assert parked > 0 and held, "fixture: the wave reserved nothing"
    assert left == {} and soft == {}
    assert after_stop == {} and closed == 0  # stop() keeps no memory of either kind


def test_a_frame_for_a_closed_window_is_late_not_parked():
    async def scenario():
        cluster = _cluster()
        request, _ = _a_request(cluster)
        dest = cluster.daemons[request.dest_peer]
        holder = next(p for p in sorted(cluster.daemons) if p != dest.peer_id)
        released = []

        async def on_release(src, msg, _inner=cluster.daemons[holder]._on_release):
            released.append((msg.request_id, msg.soft_only))
            return await _inner(src, msg)

        cluster.daemons[holder].endpoint.on(codec.SessionRelease, on_release)
        async with cluster:
            result = await cluster.compose(request, confirm=False, timeout=30)
            del released[:]
            straggler = codec.CreditReturn(
                request.request_id, CREDIT // 8, "lost",
                reports=((holder, 1, ((holder, "cpu", 1.0),), (), 0),),
            )
            reply = await dest._on_credit(holder, straggler)
            await dest.drain()
            parked = dict(dest._parked)
            soft, errors = _consistent(cluster)
        return result, reply, parked, released, soft, errors

    result, reply, parked, released, soft, errors = asyncio.run(scenario())
    assert errors == [] and soft == {}
    assert result.success
    assert reply == {"late": True} and parked == {}
    assert released == [(result.request.request_id, True)]


def test_a_straggler_after_its_window_is_forgotten_is_parked_then_released():
    """A destination forgets a closed window ``soft_timeout`` after it
    closed (every soft token of its wave has expired by then).  A frame
    naming it after that looks early: it is parked, and released as late
    when no begin comes within ``collect_wall_timeout``."""
    async def scenario():
        cluster = _cluster(soft_timeout=2.0)
        request, _ = _a_request(cluster)
        rid = request.request_id
        dest = cluster.daemons[request.dest_peer]
        holder = next(p for p in sorted(cluster.daemons) if p != dest.peer_id)
        released = []

        async def on_release(src, msg, _inner=cluster.daemons[holder]._on_release):
            released.append((msg.request_id, msg.soft_only))
            return await _inner(src, msg)

        cluster.daemons[holder].endpoint.on(codec.SessionRelease, on_release)
        async with cluster:
            result = await cluster.compose(request, confirm=False, timeout=30)
            await asyncio.sleep(2.0 + 0.1)
            forgotten = rid not in dest._closed
            del released[:]
            straggler = codec.CreditReturn(
                rid, CREDIT // 8, "lost",
                reports=((holder, 1, ((holder, "cpu", 1.0),), (), 0),),
            )
            reply = await dest._on_credit(holder, straggler)
            parked = len(dest._parked.get(rid, (None, ()))[1])
            await asyncio.sleep(WALL + 0.3)
            await dest.drain()
            left, closed_again = dict(dest._parked), rid in dest._closed
            soft, errors = _consistent(cluster)
        return result, forgotten, reply, parked, left, closed_again, released, soft, errors

    result, forgotten, reply, parked, left, closed_again, released, soft, errors = vtime.run(
        scenario()
    )
    assert errors == [] and soft == {}
    assert result.success and forgotten
    assert reply == {"ok": True} and parked == 1
    assert left == {} and closed_again
    assert released == [(result.request.request_id, True)]


def test_a_refused_compose_costs_one_round_trip_and_no_probe():
    async def scenario():
        cluster = _cluster(admission=AdmissionConfig(max_sessions=1))
        request, _ = _a_request(cluster)
        bodies = sent_requests(cluster)
        dest = cluster.daemons[request.dest_peer]
        async with cluster:
            assert dest.guard.try_open_session(-1)  # the one window is taken
            result = await cluster.compose(request, confirm=True, timeout=30)
            dest.guard.close_session(-1)
            admitted = await cluster.compose(
                dataclasses.replace(request, request_id=request.request_id + 10_000_000),
                confirm=False, timeout=30,
            )
            pools = cluster.pool_tokens()
            soft, errors = _consistent(cluster)
        return request, result, admitted, bodies, pools, soft, errors

    request, result, admitted, bodies, pools, soft, errors = asyncio.run(scenario())
    assert errors == [] and soft == {}
    assert not result.success and result.failure_reason.startswith("busy")
    assert result.probes_sent == 0 and result.session_tokens == []
    assert _probes(bodies, request.request_id) == []
    assert all(tokens == [] for tokens in pools.values())
    assert admitted.success  # the guard sheds by load, not by habit


def test_a_compose_to_a_dead_destination_sends_no_probe():
    async def scenario():
        cluster = _cluster()
        request, _ = _a_request(cluster)
        bodies = sent_requests(cluster)
        async with cluster:
            cluster.kill_peer(request.dest_peer)
            with pytest.raises(RpcTimeout):
                await cluster.compose(request, confirm=False, timeout=30)
            soft, errors = _consistent(cluster)
        return request, bodies, soft, errors

    request, bodies, soft, errors = asyncio.run(scenario())
    assert errors == [] and soft == {}
    assert _probes(bodies, request.request_id) == []
