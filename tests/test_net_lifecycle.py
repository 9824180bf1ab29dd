"""The paper's event-driven dynamics, on the production daemon itself.

Every cluster here but the last two runs on the virtual-time loop
(``repro.sim.vtime``):
probes are in flight for real (virtual) time, so a peer can die under
one; soft reservations evaporate on their own timers; the destination's
window is a real window; sessions contend for capacity through their soft
reservations; a held session is watched by maintenance pings.  Waiting
120 seconds of protocol time costs milliseconds.  The last two stop the
cluster mid-burst and kill a peer under open-loop load on the real loop.

After each scenario: no soft token anywhere, every pool consistent,
every ``compose`` returned or raised, no daemon error.
"""

import asyncio
from collections import Counter, namedtuple

import numpy as np
import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.core.function_graph import FunctionGraph
from repro.core.qos import QoSRequirement, loss_to_additive
from repro.core.request import CompositeRequest
from repro.core.resources import ResourceVector
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.sim import vtime
from repro.net.rpc import RetryPolicy, RpcError
from repro.workload.generator import function_names
from test_net_release import SETUP_ACK_FAILED, _held

ONE_WAY = 0.02
LOOSE = QoSRequirement({"delay": 10.0, "loss": loss_to_additive(0.5)})


def _cluster(**overrides):
    base = dict(
        n_peers=12,
        n_functions=6,
        seed=5,
        capacity_scale=10.0,
        latency=ONE_WAY,
        measurement=MeasurementConfig(enabled=False),
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
    )
    base.update(overrides)
    return LiveCluster(ClusterConfig(**base))


def _sparse():
    """One component per peer over twice as many functions: some functions
    have one host, some two, some none."""
    return _cluster(n_peers=10, n_functions=12, components_per_peer=(1, 1), seed=1)


def _hosts(cluster):
    out = {}
    for spec in cluster.scenario.population:
        out.setdefault(spec.function, []).append(spec)
    return out


def _one_function_request(cluster, function, avoid=()):
    source, dest = sorted(set(cluster.daemons) - set(avoid))[:2]
    return CompositeRequest.create(FunctionGraph.linear([function]), LOOSE, source, dest)


def _settled(cluster, skip=()):
    """(soft tokens, daemon errors) of the live daemons, every pool checked."""
    for daemon in cluster.daemons.values():
        daemon.bcp.pool.check_invariants()
    soft = {
        (peer, rid): tokens
        for peer, daemon in cluster.daemons.items()
        if peer not in skip
        for rid, tokens in daemon._tokens.items()
        if tokens
    }
    return soft, cluster.errors()


def _kill_in_flight(cluster, victim):
    """Kill ``victim`` half a one-way delay after the first probe to it
    leaves: the probe is lost in flight, as a dropped message is."""
    loop = asyncio.get_running_loop()
    send, armed = cluster.transport.send, []

    async def send_and_kill(src, dst, envelope):
        if dst == victim and not armed and isinstance(envelope.get("body"), codec.ProbeTransfer):
            armed.append(loop.call_later(ONE_WAY / 2, cluster.kill_peer, victim))
        return await send(src, dst, envelope)

    cluster.transport.send = send_and_kill
    return armed


# ----------------------------------------------------------------------
# a peer dies with a probe in flight to it
# ----------------------------------------------------------------------
def test_a_probe_lost_in_flight_with_no_other_candidate_fails_the_compose():
    async def scenario():
        cluster = _sparse()
        function, (spec,) = next((f, s) for f, s in sorted(_hosts(cluster).items()) if len(s) == 1)
        request = _one_function_request(cluster, function, avoid={spec.peer})
        async with cluster:
            armed = _kill_in_flight(cluster, spec.peer)
            result = await cluster.compose(request, confirm=False, timeout=60)
            admitted = cluster.daemons[spec.peer]._tokens.get(request.request_id)
            soft, errors = _settled(cluster)
        return result, armed, admitted, soft, errors

    result, armed, admitted, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert armed and admitted is None  # the host never saw the probe
    assert not result.success
    assert result.failure_reason == "no probe reached the destination"


def test_a_probe_lost_in_flight_beside_a_survivor_leaves_the_survivor_the_winner():
    async def scenario():
        cluster = _sparse()
        function, specs = next((f, s) for f, s in sorted(_hosts(cluster).items()) if len(s) == 2)
        victim, survivor = sorted(s.peer for s in specs)
        request = _one_function_request(cluster, function, avoid={victim, survivor})
        async with cluster:
            armed = _kill_in_flight(cluster, victim)
            result = await cluster.compose(request, confirm=True, timeout=60)
            held = _held(cluster, skip={victim})
            soft, errors = _settled(cluster)
        return result, armed, survivor, held, soft, errors

    result, armed, survivor, held, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert armed and result.success
    assert result.best.component(result.request.function_graph.functions[0]).peer == survivor
    assert held == set(result.session_tokens)


def test_a_function_nobody_hosts_reaches_no_destination():
    async def scenario():
        cluster = _sparse()
        ghost = next(f for f in function_names(12) if f not in _hosts(cluster))
        request = _one_function_request(cluster, ghost)
        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            with pytest.raises(ValueError, match="budget"):
                await cluster.compose(request, budget=0)
            soft, errors = _settled(cluster)
        return result, soft, errors

    result, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert not result.success and result.probes_sent == 0
    assert result.failure_reason == "no probe reached the destination"


def test_a_path_peer_dying_before_the_setup_ack_fails_the_setup():
    async def scenario():
        cluster = _cluster()
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if (sync := cluster.scenario.net.bcp.compose(r, confirm=False)).success
            and set(sync.best.peers()) - {r.source_peer, r.dest_peer}
        )
        dest = cluster.daemons[request.dest_peer]
        confirm_session, killed = dest._confirm_session, []

        async def kill_a_path_peer_first(rid, keep, graph):
            killed.append(max(set(graph.peers()) - {request.source_peer, dest.peer_id}))
            cluster.kill_peer(killed[0])
            return await confirm_session(rid, keep, graph)

        dest._confirm_session = kill_a_path_peer_first
        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            held = _held(cluster, skip=killed)
            soft, errors = _settled(cluster, skip=killed)
        return result, killed, held, soft, errors

    result, killed, held, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert killed and not result.success
    assert result.failure_reason == SETUP_ACK_FAILED
    assert held == set()


# ----------------------------------------------------------------------
# soft state: expiry, and what confirmation keeps
# ----------------------------------------------------------------------
def test_unconfirmed_reservations_expire_while_the_window_is_held_open():
    """Every frame to the destination but the source's is held back past
    ``soft_timeout``: the begin opens the window at once, the credit comes
    home late, and in between every reservation the wave made expires on
    its own timer — so the setup ack finds none of the winner's."""
    hold, soft_timeout = 2.0, 1.0
    route = {}

    def latency(src, dst):
        return hold if dst == route.get("dest") and src != route.get("source") else 0.0

    async def scenario():
        cluster = _cluster(
            latency=latency,
            soft_timeout=soft_timeout,
            retry=RetryPolicy(timeout=5.0, retries=0),
        )
        request = cluster.scenario.requests.batch(1)[0]
        route.update(source=request.source_peer, dest=request.dest_peer)
        dest, rid = cluster.daemons[request.dest_peer], request.request_id

        def window_open():
            col = dest._collections.get(rid)
            return col is not None and not col.done

        async with cluster:
            compose = asyncio.ensure_future(cluster.compose(request, confirm=True, timeout=60))
            await asyncio.sleep(soft_timeout / 2)
            before = (window_open(), dict(cluster.soft_tokens()))
            await asyncio.sleep(soft_timeout)
            after = (window_open(), dict(cluster.soft_tokens()))
            result = await compose
            held = _held(cluster)
            soft, errors = _settled(cluster)
        return result, before, after, held, soft, errors

    result, before, after, held, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert before[0] and before[1], "fixture: nothing reserved before the expiry"
    assert after == (True, {})  # expired, with the window still open
    assert not result.success and result.failure_reason == SETUP_ACK_FAILED
    assert held == set()


def test_a_confirmed_session_still_holds_its_pool_120_seconds_later():
    async def scenario():
        cluster = _cluster(soft_timeout=2.0)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        loop = asyncio.get_running_loop()
        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            t0 = loop.time()
            await asyncio.sleep(120.0)
            waited = loop.time() - t0
            held = _held(cluster)
            host = result.best.components()[0]
            pool = cluster.daemons[host.peer].bcp.pool
            cpu = (pool.available_amount(host.peer, "cpu"), pool.capacity(host.peer).get("cpu"))
            soft, errors = _settled(cluster)
        return result, waited, held, cpu, soft, errors

    result, waited, held, (available, capacity), soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert result.success and waited == pytest.approx(120.0)
    assert held == set(result.session_tokens)  # firm, far past the soft timeout
    assert available < capacity


# ----------------------------------------------------------------------
# contention
# ----------------------------------------------------------------------
def test_two_composes_contending_for_one_slot_leave_exactly_one_winner():
    async def scenario():
        cluster = _sparse()
        function, (spec,) = next((f, s) for f, s in sorted(_hosts(cluster).items()) if len(s) == 1)
        # the host fits one instance of its component, not two
        pool = cluster.daemons[spec.peer].bcp.pool
        pool._capacity[spec.peer] = ResourceVector(
            {t: 1.5 * spec.resources.get(t) for t in spec.resources.types()}
        )
        peers = sorted(set(cluster.daemons) - {spec.peer})
        requests = [
            CompositeRequest.create(FunctionGraph.linear([function]), LOOSE, s, d)
            for s, d in (peers[0:2], peers[2:4])
        ]
        async with cluster:
            results = await asyncio.gather(
                *(cluster.compose(r, confirm=True, timeout=60) for r in requests)
            )
            on_host = set(pool.active_tokens())
            held = _held(cluster)
            soft, errors = _settled(cluster)
        return results, on_host, held, soft, errors

    results, on_host, held, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    winners = [r for r in results if r.success]
    assert len(winners) == 1  # no over-commitment
    assert held == set(winners[0].session_tokens)  # the loser holds nothing
    assert any(token[1] == "comp" for token in on_host)


def test_interleaved_confirmed_composes_keep_every_pool_consistent():
    async def scenario():
        cluster = _cluster()
        async with cluster:
            results = await cluster.compose_concurrent(
                cluster.scenario.requests.batch(6), concurrency=6, confirm=True, timeout=60
            )
            held = _held(cluster)
            soft, errors = _settled(cluster)
        return results, held, soft, errors

    results, held, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert any(r.success for r in results)
    assert held == {t for r in results for t in r.session_tokens}


# ----------------------------------------------------------------------
# maintenance: a held session is watched
# ----------------------------------------------------------------------
INTERVAL = 1.0


def _maintained():
    """A cluster whose sources ping their sessions' peers every second, and
    a log of (peer, seq, virtual time) of every ping a daemon answers."""
    cluster = _cluster(maint_interval=INTERVAL)
    pings = []
    for peer, daemon in cluster.daemons.items():

        async def on_ping(src, msg, _peer=peer, _inner=daemon._on_ping):
            pings.append((_peer, msg.request_id, msg.seq, asyncio.get_running_loop().time()))
            return await _inner(src, msg)

        daemon.endpoint.on(codec.MaintenancePing, on_ping)
    return cluster, pings


def _path_peers(session, source):
    return sorted(set(session.graph.peers()) - {source})


def test_maintenance_pings_every_path_peer_at_once_each_interval():
    async def scenario():
        cluster, pings = _maintained()
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if (sync := cluster.scenario.net.bcp.compose(r, confirm=False)).success
            and len(set(sync.best.peers()) - {r.source_peer}) >= 2
        )
        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            session = cluster.daemons[request.source_peer].sessions[request.request_id]
            await asyncio.sleep(3.5 * INTERVAL)
            counted = session.pings
            soft, errors = _settled(cluster)
        return request, result, session, counted, pings, soft, errors

    request, result, session, counted, pings, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert result.success and not session.failed
    peers = _path_peers(session, request.source_peer)
    assert len(peers) >= 2, "fixture: nothing to serialise"
    assert counted == 3 * len(peers)  # one ping per path peer per interval
    for seq in (1, 2, 3):
        handled = sorted((peer, at) for peer, rid, s, at in pings if s == seq)
        assert [peer for peer, _ in handled] == peers
        # all at once: every path peer answers one one-way delay after the
        # tick, and the next interval starts one round trip later
        for _, at in handled:
            assert at - session.established_at == pytest.approx(
                seq * INTERVAL + (2 * seq - 1) * ONE_WAY, rel=1e-9
            )


def test_a_killed_path_peer_fails_its_session_and_no_other():
    async def scenario():
        cluster, _ = _maintained()
        loop = asyncio.get_running_loop()
        async with cluster:
            results = [
                await cluster.compose(r, confirm=True, timeout=60)
                for r in cluster.scenario.requests.batch(8)
            ]
            sessions = {
                r.request.request_id: cluster.daemons[r.request.source_peer].sessions[
                    r.request.request_id
                ]
                for r in results
                if r.success
            }
            by_rid = {r.request.request_id: r.request for r in results}
            victim, doomed = next(
                (peer, rid)
                for rid, s in sorted(sessions.items())
                for peer in _path_peers(s, by_rid[rid].source_peer)
                if any(
                    peer not in _path_peers(o, by_rid[orid].source_peer)
                    and peer not in (by_rid[orid].source_peer, by_rid[orid].dest_peer)
                    for orid, o in sessions.items()
                    if orid != rid
                )
            )
            spared = {
                rid: s
                for rid, s in sessions.items()
                if victim not in _path_peers(s, by_rid[rid].source_peer)
                and victim != by_rid[rid].source_peer
                and _path_peers(s, by_rid[rid].source_peer)
            }
            pinged = {rid: s.pings for rid, s in spared.items()}
            killed_at = loop.time()
            cluster.kill_peer(victim)
            while not sessions[doomed].failed:
                await asyncio.sleep(0.01)
            failed_after = loop.time() - killed_at
            await asyncio.sleep(2 * INTERVAL)
            spared_now = {rid: (s.failed, s.pings) for rid, s in spared.items()}
            soft, errors = _settled(cluster, skip={victim})
        return failed_after, pinged, spared_now, cluster.config.retry, soft, errors

    failed_after, pinged, spared_now, retry, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    budget = sum(
        retry.timeout + retry.backoff * retry.factor**a * (1 + retry.jitter)
        for a in range(retry.retries + 1)
    )
    assert failed_after <= INTERVAL + budget
    assert spared_now, "fixture: every session crossed the victim"
    for rid, (failed, pings) in spared_now.items():
        assert not failed and pings > pinged[rid]


# ----------------------------------------------------------------------
# stop and kill under load, on the real loop
# ----------------------------------------------------------------------
def _small_config(**overrides):
    base = dict(n_peers=6, n_functions=5, seed=2, capacity_scale=4.0)
    base.update(overrides)
    return ClusterConfig(**base)


Record = namedtuple("Record", "outcome reason")


async def _soak(cluster, rate, duration, timeout, seed):
    """Open-loop load: each compose a free-running task, launched after a
    seeded exponential gap from a seeded source, so a slow compose never
    holds the next one back.  Returns one record per compose."""
    loop = asyncio.get_running_loop()
    rng = np.random.default_rng(seed)
    sources = sorted(cluster.daemons)
    records, tasks = [], []

    async def one(request):
        try:
            result = await cluster.compose(request, confirm=False, timeout=timeout)
        except asyncio.TimeoutError:
            records.append(Record("error", f"no result within {timeout}s"))
        except RpcError as exc:
            records.append(Record("error", f"{type(exc).__name__}: {exc}"))
        else:
            why = "" if result.success else result.failure_reason or "failed"
            records.append(Record("ok" if result.success else "failed", why))

    end = loop.time() + duration
    while True:
        await asyncio.sleep(float(rng.exponential(1.0 / rate)))
        if loop.time() >= end:
            break
        source = sources[int(rng.integers(len(sources)))]
        request = cluster.scenario.requests.next_request(source=source)
        tasks.append(asyncio.ensure_future(one(request)))
    await asyncio.gather(*tasks)
    return records


def test_stop_mid_burst_is_clean():
    """Stopping the cluster with compositions in flight resolves every
    caller with a structured result, leaves no stray tasks, and records
    no daemon errors."""

    async def scenario():
        # emulated loopback latency keeps the burst genuinely in flight
        # at the 50 ms mark (zero-latency queues can finish it first)
        cluster = LiveCluster(_small_config(seed=5, latency=0.02))
        await cluster.start()
        requests = cluster.scenario.requests.batch(8)
        burst = [
            asyncio.ensure_future(cluster.compose(r, confirm=True, timeout=30))
            for r in requests
        ]
        await asyncio.sleep(0.05)  # mid-flight: probe waves are live
        await cluster.stop()
        results = await asyncio.gather(*burst)
        await cluster.stop()  # idempotent: second stop is a no-op
        # no daemon-owned or compose task may survive the teardown
        stray = [
            t
            for t in asyncio.all_tasks()
            if t is not asyncio.current_task() and not t.done()
        ]
        return cluster, results, stray

    cluster, results, stray = asyncio.run(scenario())
    assert cluster.errors() == []
    assert stray == []
    assert len(results) == 8
    for r in results:
        # every caller got a real CompositionResult: either the session
        # finished before the teardown or it was aborted with a reason
        if not r.success:
            assert r.failure_reason
    aborted = [
        r
        for r in results
        if (r.failure_reason or "")
        in ("cluster stopping", "cluster stopped", "peer killed")
    ]
    assert aborted, "a 50 ms-old burst cannot have fully completed"


def test_kill_mid_soak_bounded_tail():
    """Killing a peer under sustained load fails the affected sessions
    fast — structured RpcFailures with zero burned attempts — instead of
    stacking retry timeouts on every hop."""

    async def scenario():
        fast = RetryPolicy(timeout=0.3, retries=2, backoff=0.02)
        cluster = LiveCluster(
            _small_config(
                n_peers=8,
                seed=7,
                collect_wall_timeout=2.0,
                retry=fast,
            )
        )
        async with cluster:
            soak = asyncio.ensure_future(
                _soak(cluster, rate=30.0, duration=2.0, timeout=8.0, seed=3)
            )
            await asyncio.sleep(0.6)
            victim = 5
            cluster.kill_peer(victim)
            records = await soak
            failures = cluster.rpc_failures()
            errors = cluster.errors()
        return records, failures, errors, victim

    records, failures, errors, victim = asyncio.run(scenario())
    assert errors == []
    assert len(records) > 10
    summary = Counter(r.outcome for r in records)
    assert summary["ok"] > 0  # the cluster kept composing around the corpse
    # every record resolved before the request timeout: no unbounded tail
    # (counted, not timed: on a loaded machine latency can graze the bound)
    assert [r for r in records if r.reason.startswith("no result within")] == []
    # and the kill actually bit: calls already in flight may burn the
    # attempt they had on the wire, but nothing exhausts the full retry
    # budget, and calls issued after the kill fail fast with 0 attempts
    at_victim = [f for f in failures if f.peer == victim]
    assert at_victim
    assert any(f.attempts == 0 for f in at_victim)
    assert all(f.attempts < 3 for f in at_victim)  # retries=2 -> 3 = exhausted
