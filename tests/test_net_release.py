"""Session teardown: one release wave, sent only where reservations are.

Every admitting peer's report of its fresh reservations travels with its probe's termination credit — a bundle
appended to the ones the probe carries, handed over by the ``FinalProbe``
or ``CreditReturn`` that ends the credit's journey — so when the credit
is whole the destination knows exactly which peers hold tokens for the
request and releases those, once.  These tests pin down what the parity
matrix cannot see:

* fan-out — ``SessionRelease`` frames per compose equal the number of
  distinct holders the bundles name, in one wave (two only when the
  setup ack fails);
* hygiene — no soft token survives a compose, without waiting for an
  expiry timer;
* the window's knowledge — at ``_finalize`` the booked holders and wave
  load are exactly what the remote pools hold and the probe count is the
  sync engine's, also when a bundle was delivered twice;
* stragglers — a frame that meets a closed window leaves nothing behind,
  not on its sender and not on the upstream holders it names;
* dead holders — a crashed holder neither fails nor stalls teardown,
  bundles lost with a crashed probe-holder fall to the expiry timers,
  and a revived holder keeps no claim from its previous life.
"""

import asyncio
import dataclasses

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.sim import vtime
from repro.net.peer import _Collection
from repro.net.rpc import RetryPolicy

N_PEERS = 16
SETUP_ACK_FAILED = "setup ack found expired reservation or dead peer"


def _cluster(**overrides):
    fast = RetryPolicy(timeout=0.5, retries=2, backoff=0.02)
    base = dict(
        n_peers=N_PEERS,
        n_functions=6,
        seed=7,
        capacity_scale=10.0,
        retry=fast,
        # active probing would interleave PathProbe frames with the
        # composes; the protocol under test is identical without it
        measurement=MeasurementConfig(enabled=False),
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
    )
    base.update(overrides)
    return LiveCluster(ClusterConfig(**base))


class _Wire:
    """Request frames as their senders put them on the wire."""

    def __init__(self, cluster):
        self.frames = []
        inner = cluster.transport.tap

        def tap(direction, envelope, n_bytes):
            if direction == "tx" and envelope.get("kind") == "req":
                self.frames.append((envelope["src"], envelope["body"]))
            inner(direction, envelope, n_bytes)

        cluster.transport.tap = tap

    def take(self):
        frames, self.frames = self.frames, []
        return frames


def _reporters(frames, rid=None):
    """Peers the destination was told hold reservations: the holders named
    in the bundles of the credit-carrying frames sent to it (a fan-out's
    count record reserves nothing and names no holder)."""
    return {
        holder
        for _, body in frames
        if isinstance(body, (codec.FinalProbe, codec.CreditReturn))
        and rid in (None, body.request_id)
        for holder, _, peers, links, _ in body.reports
        if peers or links
    }


def _releases(frames):
    return [body for _, body in frames if isinstance(body, codec.SessionRelease)]


def _log_release_handlers(cluster):
    """(peer, keep) for every SessionRelease a daemon handles."""
    handled = []
    for peer, daemon in cluster.daemons.items():

        async def on_release(src, msg, _peer=peer, _inner=daemon._on_release):
            handled.append((_peer, msg.keep))
            return await _inner(src, msg)

        daemon.endpoint.on(codec.SessionRelease, on_release)
    return handled


def _soft_holders(cluster, rid):
    return {peer for peer, daemon in cluster.daemons.items() if daemon._tokens.get(rid)}


def _admitted(cluster, rid, dest):
    """(holders, peer load, link load) of a request, read straight from
    the pools of the live daemons other than its destination."""
    holders, peer_load, link_load = set(), {}, {}
    for peer, daemon in cluster.daemons.items():
        tokens = daemon._tokens.get(rid)
        if peer == dest or daemon.stopped or not tokens:
            continue
        holders.add(peer)
        peers, links = daemon._reserved_usage(tokens)
        for at, rtype, amount in peers:
            peer_load[(at, rtype)] = peer_load.get((at, rtype), 0.0) + amount
        for u, v, bw in links:
            link_load[(u, v)] = link_load.get((u, v), 0.0) + bw
    return holders, peer_load, link_load


def _snapshot_windows(cluster):
    """Record, as each window closes: (why, what it booked, what is held)."""
    closed = []
    for peer, daemon in cluster.daemons.items():

        async def finalize(rid, why, _peer=peer, _daemon=daemon, _inner=daemon._finalize):
            col = _daemon._collections.get(rid)
            if col is not None and not col.done:
                booked = (set(col.holders), dict(col.wave_peer_used), dict(col.wave_link_used))
                closed.append((why, booked, _admitted(cluster, rid, _peer)))
            return await _inner(rid, why)

        daemon._finalize = finalize
    return closed


def _assert_booked_is_held(booked, held):
    assert booked[0] == held[0]
    assert booked[1] == pytest.approx(held[1])
    assert booked[2] == pytest.approx(held[2])


def _held(cluster, skip=()):
    """Every token any live pool still holds, soft or firm."""
    return {
        token
        for peer, tokens in cluster.pool_tokens().items()
        if peer not in skip
        for token in tokens
    }


# ----------------------------------------------------------------------
# fan-out: releases == reporters, one wave
# ----------------------------------------------------------------------
@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_release_goes_once_to_exactly_the_reporting_peers(confirm):
    async def scenario():
        cluster = _cluster()
        wire = _Wire(cluster)
        handled = _log_release_handlers(cluster)
        seen = []
        async with cluster:
            for request in cluster.scenario.requests.batch(4):
                wire.take()
                del handled[:]
                result = await cluster.compose(request, confirm=confirm, timeout=60)
                frames = wire.take()
                seen.append(
                    (
                        result,
                        _reporters(frames),
                        _releases(frames),
                        list(handled),
                        cluster.soft_tokens(),
                        _held(cluster),
                    )
                )
            errors = cluster.errors()
        return seen, errors

    seen, errors = asyncio.run(scenario())
    assert errors == []
    assert any(result.success for result, *_ in seen)
    firm = set()
    for result, reporters, releases, handled, soft, held in seen:
        assert result.success or result.failure_reason != SETUP_ACK_FAILED
        # the fan-out follows the wave, not the overlay
        assert 0 < len(reporters) < N_PEERS - 1
        assert len(releases) == len(reporters)
        assert sorted(peer for peer, _ in handled) == sorted(reporters)
        # one wave: every frame carries the same keep set — the winner's
        # tokens ahead of a setup ack, nothing on a measurement-only run
        (keep,) = {r.keep for r in releases}
        assert set(keep) >= set(result.session_tokens)
        assert bool(keep) == (confirm and result.success)
        # straight after the compose, no expiry timer advanced
        assert soft == {}
        firm |= set(result.session_tokens)
        assert held == firm


def test_failed_setup_ack_costs_exactly_one_more_wave():
    async def scenario():
        cluster = _cluster()
        wire = _Wire(cluster)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        dest = cluster.daemons[request.dest_peer]
        confirm_session = dest._confirm_session

        async def expire_one_holder_first(rid, keep, graph):
            # a winner's reservation evaporates between the release wave
            # and the ack, exactly as its expiry timer would do it
            victim = next(
                cluster.daemons[p]
                for p in sorted(graph.peers())
                if p != dest.peer_id and cluster.daemons[p]._tokens.get(rid)
            )
            for token in sorted(victim._tokens[rid]):
                victim._expire_token(rid, token)
            return await confirm_session(rid, keep, graph)

        dest._confirm_session = expire_one_holder_first
        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            frames = wire.take()
            soft, held, errors = cluster.soft_tokens(), _held(cluster), cluster.errors()
        return request, result, frames, soft, held, errors

    request, result, frames, soft, held, errors = asyncio.run(scenario())
    assert errors == []
    assert not result.success and result.failure_reason == SETUP_ACK_FAILED
    reporters = _reporters(frames)
    releases = _releases(frames)
    assert len(releases) == 2 * len(reporters)
    waves = [r.keep for r in releases]
    assert waves[: len(reporters)] == [waves[0]] * len(reporters) and waves[0]
    assert waves[len(reporters):] == [()] * len(reporters)
    # the second wave also frees what the partial ack had made firm
    assert soft == {} and held == set()


# ----------------------------------------------------------------------
# hygiene across the configuration matrix
# ----------------------------------------------------------------------
# (the ids date from a matrix that also had shared-state and directory-tier
# axes; they are kept so test histories stay comparable, and the tier
# parameter no longer reaches the cluster)
@pytest.mark.parametrize("tier", [None], ids=["tier-on-distributed"])
@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_no_soft_token_survives_a_compose(confirm, tier):
    async def scenario():
        cluster = _cluster()
        wire = _Wire(cluster)
        firm, seen = set(), []
        async with cluster:
            for request in cluster.scenario.requests.batch(3):
                wire.take()
                result = await cluster.compose(request, confirm=confirm, timeout=60)
                firm |= set(result.session_tokens)
                seen.append(
                    (len(_releases(wire.take())), cluster.soft_tokens(), _held(cluster) - firm)
                )
            errors = cluster.errors()
        return seen, errors

    seen, errors = asyncio.run(scenario())
    assert errors == []
    for releases, soft, stray in seen:
        assert soft == {} and stray == set()
        assert releases < N_PEERS - 1  # aimed by the reports, not one full wave


# ----------------------------------------------------------------------
# what the window knows when it closes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", [None], ids=["tier-on-distributed"])
@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_window_closes_knowing_every_holder_and_the_whole_wave_load(confirm, tier):
    async def scenario():
        cluster = _cluster()
        closed = _snapshot_windows(cluster)
        async with cluster:
            for request in cluster.scenario.requests.batch(2):
                await cluster.compose(request, confirm=confirm, timeout=60)
            errors = cluster.errors()
        return closed, errors

    closed, errors = asyncio.run(scenario())
    assert errors == [] and len(closed) == 2
    for why, booked, held in closed:
        assert why == "credit-complete"
        # no awaited ack says so: the credit could not be whole without
        # every bundle having come in with it
        assert held[0]
        _assert_booked_is_held(booked, held)


def test_bundles_delivered_twice_are_booked_once():
    """A ``ProbeTransfer`` whose replies are all dropped is processed by
    its receiver *and* reported lost by its sender: both hand the bundles
    it carried — reservations and probe counts — to the destination."""

    async def scenario():
        cluster = _cluster(retry=RetryPolicy(timeout=0.1, retries=1, backoff=0.01))
        closed = _snapshot_windows(cluster)
        request, expected = next(
            (r, sync_r)
            for r in cluster.scenario.requests.batch(10)
            if (sync_r := cluster.scenario.net.bcp.compose(r, confirm=False)).success
        )
        rid = request.request_id
        dest = cluster.daemons[request.dest_peer]
        seen = {"twice_in_window": False}
        doomed = set()  # (sender, rpc id) of the request whose replies vanish
        send = cluster.transport.send

        async def lose_replies_to_one_probe(src, dst, envelope):
            body = envelope.get("body")
            if envelope["kind"] == "req" and isinstance(body, codec.ProbeTransfer):
                if body.reports and (not doomed or (src, envelope["id"]) in doomed):
                    doomed.add((src, envelope["id"]))
            elif envelope["kind"] == "res" and (dst, envelope["id"]) in doomed:
                return
            await send(src, dst, envelope)

        cluster.transport.send = lose_replies_to_one_probe

        # the credit over-counts by the lost probe's share, so the window
        # would close just before the second copy lands: hand one final
        # probe over at once but withhold its credit until it has
        lost_booked = asyncio.Event()
        on_final, on_credit = dest._on_final, dest._on_credit
        parked = []

        async def withhold_one_credit(src, msg):
            if msg.request_id == rid and not parked:
                parked.append(msg)

                async def later():
                    await lost_booked.wait()
                    await on_credit(src, codec.CreditReturn(rid, msg.credit, "withheld"))

                dest._spawn(later())
                msg = dataclasses.replace(msg, credit=0)
            return await on_final(src, msg)

        async def note_lost(src, msg):
            col = dest._collections.get(rid)
            if msg.reason == "lost" and col is not None and not col.done:
                ids = {(holder, n) for holder, n, *_ in msg.reports}
                seen["twice_in_window"] = bool(ids) and ids <= col.absorbed
            reply = await on_credit(src, msg)
            if msg.reason == "lost":
                lost_booked.set()
            return reply

        dest.endpoint.on(codec.FinalProbe, withhold_one_credit)
        dest.endpoint.on(codec.CreditReturn, note_lost)
        async with cluster:
            result = await cluster.compose(request, confirm=False, timeout=60)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            soft, errors = cluster.soft_tokens(), cluster.errors()
        return result, expected, seen, doomed, parked, closed, soft, errors

    result, expected, seen, doomed, parked, closed, soft, errors = asyncio.run(scenario())
    assert errors == []
    assert len(doomed) == 1 and parked and seen["twice_in_window"]
    assert result.success
    # the doomed probe was sent once, and its sender's count arrives twice
    assert result.probes_sent == expected.probes_sent
    ((why, booked, held),) = closed
    assert why == "credit-complete"
    # fails without the (holder, n) check in _Collection.absorb: the
    # doubled rows overstate the wave's load
    _assert_booked_is_held(booked, held)
    assert soft == {}


def test_bundle_keys_survive_a_restart():
    """A holder killed and revived while a window stays open reports to it
    from both lives.  The revived daemon's bundle counter starts over, so
    without a boot nonce in ``n`` its ``(holder, 1)`` repeats the old
    life's and the window books only one of the two."""

    async def scenario():
        cluster = _cluster()
        wire = _Wire(cluster)
        handled = []  # (peer, ProbeTransfer) as each daemon processes one
        for peer, daemon in cluster.daemons.items():

            async def process(msg, _peer=peer, _inner=daemon._process_probe):
                handled.append((_peer, msg))
                return await _inner(msg)

            daemon._process_probe = process

        def bundles_of(peer, frames):
            return {
                bundle
                for src, body in frames
                if src == peer and hasattr(body, "reports")
                for bundle in body.reports
                if bundle[0] == peer
            }

        async with cluster:
            request = cluster.scenario.requests.batch(1)[0]
            await cluster.compose(request, confirm=False, timeout=60)
            frames = wire.take()
            # a probe hop whose receiver reserved something and said so
            holder, msg = next(
                (peer, msg) for peer, msg in handled
                if peer != request.dest_peer and bundles_of(peer, frames)
            )
            first_life = bundles_of(holder, frames)
            cluster.kill_peer(holder)
            await cluster.revive_peer(holder)
            await cluster.daemons[holder]._process_probe(msg)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            # (the replayed probe still carries what it gathered the first time)
            second_life = bundles_of(holder, wire.take()) - set(msg.reports)
            errors = cluster.errors()
        return request, first_life, second_life, errors

    request, first_life, second_life, errors = asyncio.run(scenario())
    assert errors == [] and first_life and second_life
    assert not {b[:2] for b in first_life} & {b[:2] for b in second_life}
    window = _Collection(request=request, confirm=False, budget=1, result=None, started=0.0)
    window.absorb(sorted(first_life))
    window.absorb(sorted(second_life))
    booked = {}
    for _, _, peers, _, _ in [*first_life, *second_life]:
        for peer, rtype, amount in peers:
            booked[(peer, rtype)] = booked.get((peer, rtype), 0.0) + amount
    assert booked and window.wave_peer_used == pytest.approx(booked)


# ----------------------------------------------------------------------
# stragglers: a frame that meets a closed window
# ----------------------------------------------------------------------
def test_straggler_after_wall_timeout_drops_its_reservations():
    delay = 0.8  # one-way, on frames headed at the slow peer once armed
    slow = {"peer": None}

    def latency(src, dst):
        return delay if dst == slow["peer"] else 0.0

    async def scenario():
        cluster = _cluster(
            latency=latency,
            collect_wall_timeout=0.3,
            soft_timeout=30.0,  # no expiry timer can fire inside this test
            retry=RetryPolicy(timeout=3.0, retries=0),
        )
        wire = _Wire(cluster)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        async with cluster:
            # first pass, undelayed: fills every lookup cache the wave
            # touches and shows which bundles travel through which peer
            warm = await cluster.compose(request, confirm=False, timeout=60)
            frames = wire.take()
            through = {}  # peer -> ids of the bundles its inbound probes carry
            first_level = {request.source_peer, request.dest_peer}
            for _, body in frames:
                if isinstance(body, codec.ProbeTransfer):
                    ids = through.setdefault(body.component.peer, set())
                    ids.update((holder, n) for holder, n, *_ in body.reports)
                    if body.parent.branch == ():
                        # the source awaits these acks before its result
                        first_level.add(body.component.peer)
            every = {
                (holder, n)
                for _, body in frames
                if isinstance(body, (codec.FinalProbe, codec.CreditReturn))
                for holder, n, *_ in body.reports
            }

            def stranded_by(peer):
                # holders the destination hears of only through this peer
                return {h for h, _ in through[peer]} - {h for h, _ in every - through[peer]}

            slow["peer"] = max(
                set(through) - first_level,
                key=lambda peer: (len(stranded_by(peer) - {peer}), peer),
            )
            again = dataclasses.replace(request, request_id=request.request_id + 10_000_000)
            result = await cluster.compose(again, confirm=False, timeout=60)
            closed_with = _soft_holders(cluster, again.request_id)
            # the delayed probes land, are admitted, and their credit
            # reaches a window that is gone
            await asyncio.sleep(2 * delay)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            late = wire.take()
            soft, held, errors = cluster.soft_tokens(), _held(cluster), cluster.errors()
        return warm, again, slow["peer"], late, closed_with, soft, held, errors

    warm, again, slow_peer, late, closed_with, soft, held, errors = vtime.run(scenario())
    assert errors == []
    assert warm.success
    # the wave released whom it knew; the bundles of these upstream holders
    # were still travelling with the delayed probes' credit
    assert closed_with and slow_peer not in closed_with
    # the slow peer really did admit after the window closed, and the
    # frames that carried its credit on named it and the stranded holders
    named_late = _reporters(late, again.request_id)
    assert slow_peer in named_late and closed_with <= named_late
    cleanup = [r for r in _releases(late) if r.request_id == again.request_id and r.soft_only]
    assert cleanup and all(r.keep == () for r in cleanup)
    # fails without the soft-only release: the tokens sat until expiry
    assert soft == {} and held == set()


# ----------------------------------------------------------------------
# dead holders
# ----------------------------------------------------------------------
def test_killed_holder_neither_fails_nor_stalls_the_compose():
    async def scenario():
        cluster = _cluster()
        wire = _Wire(cluster)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        dest = cluster.daemons[request.dest_peer]
        finalize = dest._finalize
        killed = []

        async def kill_a_holder_first(rid, why):
            holders = _reporters(wire.frames) - {request.source_peer}
            killed.append(max(holders))
            cluster.kill_peer(killed[0])
            return await finalize(rid, why)

        dest._finalize = kill_a_holder_first
        loop = asyncio.get_running_loop()
        async with cluster:
            t0 = loop.time()
            result = await cluster.compose(request, confirm=False, timeout=60)
            elapsed = loop.time() - t0
            held, errors = _held(cluster, skip=killed), cluster.errors()
        return result, killed, elapsed, held, errors

    result, killed, elapsed, held, errors = vtime.run(scenario())
    assert errors == []
    assert killed and result.success
    assert elapsed == 0.0  # an undelayed wire, and no retry timeout on the dead holder
    assert held == set()  # every live pool drained (soft and firm alike)


@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_bundles_lost_with_a_killed_probe_holder_expire(confirm):
    """A peer that dies holding a probe takes the probe's bundles with it:
    the holders they named get no release, only their expiry timers."""
    soft_timeout = 0.6

    async def scenario():
        cluster = _cluster(collect_wall_timeout=0.2, soft_timeout=soft_timeout)
        wire = _Wire(cluster)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        rid = request.request_id
        killed = []
        for peer, daemon in cluster.daemons.items():
            if peer in (request.source_peer, request.dest_peer):
                continue

            async def die_holding_it(src, msg, _peer=peer, _inner=daemon._on_probe):
                named = {holder for holder, *_ in msg.reports}
                if not killed and msg.request_id == rid and len(named - {_peer}) > 1:
                    killed.append(_peer)
                    cluster.kill_peer(_peer)  # acked nothing, forwards nothing
                    return {"ok": True}
                return await _inner(src, msg)

            daemon.endpoint.on(codec.ProbeTransfer, die_holding_it)
        async with cluster:
            result = await cluster.compose(request, confirm=confirm, timeout=60)
            frames = wire.take()
            stranded = _soft_holders(cluster, rid) - set(killed)
            await asyncio.sleep(soft_timeout + 0.3)
            soft, held, errors = cluster.soft_tokens(), _held(cluster, skip=killed), cluster.errors()
        return result, killed, frames, stranded, soft, held, errors

    result, killed, frames, stranded, soft, held, errors = vtime.run(scenario())
    assert errors == []
    assert killed
    # the credit died with the peer, so the wall clock closed the window,
    # and a holder it never heard of was left out of the release wave
    assert stranded and not stranded & _reporters(frames, result.request.request_id)
    # the backstop: every soft token is gone once soft_timeout has passed,
    # and nothing but the session's own firm tokens is held anywhere live
    assert soft == {}
    assert held == set(result.session_tokens)


@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_a_revived_holder_keeps_no_claim_from_its_previous_life(confirm):
    """Every release is lost, so the holders' expiry timers are all that
    frees a soft claim, and nothing frees a firm one but a release.  A
    holder killed and revived has neither: its old daemon's timers died
    with it and the new one starts with no record of its tokens.  So the
    revive itself must drop every claim of the previous life."""
    soft_timeout = 5.0

    async def scenario():
        cluster = _cluster(soft_timeout=soft_timeout)
        for daemon in cluster.daemons.values():

            async def lost(src, msg):
                return {"ok": True}

            daemon.endpoint.on(codec.SessionRelease, lost)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        rid = request.request_id
        async with cluster:
            result = await cluster.compose(request, confirm=confirm, timeout=60)
            ends = {request.source_peer, request.dest_peer}
            holders = {
                peer for peer, tokens in cluster.pool_tokens().items()
                if peer not in ends and any(t[0] == rid for t in tokens)
            }
            if confirm:
                holders &= set(result.best.peers())  # a holder of firm claims
            holder = min(holders)
            before = set(cluster.pool_tokens()[holder])
            cluster.kill_peer(holder)
            await cluster.revive_peer(holder)
            await asyncio.sleep(12 * soft_timeout)
            held = cluster.pool_tokens()
            errors = cluster.errors()
        return result, holder, before, held, errors

    result, holder, before, held, errors = vtime.run(scenario())
    assert errors == [] and result.success
    assert before
    # fails without the revive dropping the old life's claims
    assert held[holder] == []
    # every other holder expired its soft claims; only the session's own
    # firm tokens outlive the lost releases
    others = {token for peer, tokens in held.items() if peer != holder for token in tokens}
    assert others == set(result.session_tokens) - before
