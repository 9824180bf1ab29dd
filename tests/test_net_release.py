"""Session teardown: one release wave, sent only where reservations are.

In distributed mode every admitting peer reports its fresh reservations
to the destination before its probe's credit can move — a
``ReservationReport`` mid-path, rows inside the ``FinalProbe`` at the
last hop — so when the window closes the destination knows exactly which
peers hold tokens for the request and releases those, once.  These tests
pin down what the parity matrix cannot see:

* fan-out — ``SessionRelease`` frames per compose equal the number of
  reporting peers, in one wave (two only when the setup ack fails);
* hygiene — no soft token survives a compose in either state mode,
  without waiting for an expiry timer;
* stragglers — a probe admitted after the wall-clock fallback closed the
  window is told ``late`` and drops what it reserved;
* dead holders — a crashed reporter neither fails nor stalls teardown.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, DirectoryTierConfig, LiveCluster, MeasurementConfig, codec
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
        probe_retry=fast,
        control_retry=fast,
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


def _reporters(frames, dest):
    """Peers that told the destination they hold reservations."""
    return {
        src
        for src, body in frames
        if isinstance(body, codec.ReservationReport)
        or (isinstance(body, codec.FinalProbe) and src != dest)
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
                        _reporters(frames, request.dest_peer),
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
    reporters = _reporters(frames, request.dest_peer)
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
@pytest.mark.parametrize("distributed", [True, False], ids=["distributed", "shared"])
@pytest.mark.parametrize("tier", [True, False], ids=["tier-on", "tier-off"])
@pytest.mark.parametrize("confirm", [False, True], ids=["measure-only", "confirm"])
def test_no_soft_token_survives_a_compose(confirm, tier, distributed):
    async def scenario():
        cluster = _cluster(
            distributed=distributed, directory_tier=DirectoryTierConfig(enabled=tier)
        )
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
        if not distributed:
            assert releases == N_PEERS - 1  # no reports to aim with: one full wave


# ----------------------------------------------------------------------
# stragglers: a report that meets a closed window
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
            probe_retry=RetryPolicy(timeout=3.0, retries=0),
        )
        wire = _Wire(cluster)
        request = next(
            r
            for r in cluster.scenario.requests.batch(10)
            if cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        async with cluster:
            # first pass, undelayed: fills every lookup cache the wave
            # touches and names the peers its probes are admitted at
            warm = await cluster.compose(request, confirm=False, timeout=60)
            admitters = _reporters(wire.take(), request.dest_peer)
            slow["peer"] = max(admitters - {request.source_peer, request.dest_peer})
            again = dataclasses.replace(request, request_id=request.request_id + 10_000_000)
            result = await cluster.compose(again, confirm=False, timeout=60)
            closed_with = cluster.soft_tokens()
            # the delayed probes land, are admitted, report, hear "late"
            await asyncio.sleep(2 * delay)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            frames = wire.take()
            late_reports = [
                src
                for src, body in frames
                if isinstance(body, (codec.ReservationReport, codec.FinalProbe))
                and body.request_id == again.request_id
            ]
            soft, held, errors = cluster.soft_tokens(), _held(cluster), cluster.errors()
        return warm, result, slow["peer"], late_reports, closed_with, soft, held, errors

    warm, result, slow_peer, late_reports, closed_with, soft, held, errors = asyncio.run(
        scenario()
    )
    assert errors == []
    assert warm.success
    assert closed_with == {}  # the window's own wave was released at close
    # the slow peer really did admit and report after the window closed
    assert slow_peer in late_reports
    # fails at the parent commit: the straggler's tokens sat until expiry
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
            holders = _reporters(wire.frames, request.dest_peer) - {request.source_peer}
            killed.append(max(holders))
            cluster.kill_peer(killed[0])
            return await finalize(rid, why)

        dest._finalize = kill_a_holder_first
        async with cluster:
            t0 = time.monotonic()
            result = await cluster.compose(request, confirm=False, timeout=60)
            elapsed = time.monotonic() - t0
            held, errors = _held(cluster, skip=killed), cluster.errors()
        return result, killed, elapsed, held, errors

    result, killed, elapsed, held, errors = asyncio.run(scenario())
    assert errors == []
    assert killed and result.success
    assert elapsed < 2.0  # no retry budget burnt on the dead holder
    assert held == set()  # every live pool drained (soft and firm alike)
