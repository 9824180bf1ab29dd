"""Regression: a setup ack that loses the soft-state expiry race must not
leak the reservations it already made firm.

The scenario: the destination's confirm pass flips tokens firm peer by
peer; an injected one-way latency delays only the frames headed at one
*target* peer (armed once the destination starts finalizing, so the
probe wave itself is undisturbed and still matches the synchronous
engine).  The target's soft timer fires while the SessionConfirm is in
flight, the confirm pass comes up short, and the destination aborts the
session with a second, ``keep=∅`` release wave.

Pre-fix, that final release could only cancel *soft* claims —
``ResourcePool.cancel`` refuses firm ones — so every token the pass had
already confirmed stayed allocated forever.  The fix tracks firm tokens
per request and releases them explicitly; afterwards every pool in the
cluster must be empty.
"""

import asyncio

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.core.resources import ResourceVector
from repro.net import ClusterConfig, LiveCluster
from repro.sim import vtime

DELAY = 0.6  # one-way latency injected toward the target peer
# the release wave and the SessionConfirms leave together, and the wave
# before them takes no virtual time: the target's reservation expires
# while its SessionConfirm is in flight
SOFT = 0.5 * DELAY


def _find_race_fixture(cluster):
    """Pick a request whose winning graph lets the race fire.

    The *target* (the last peer the confirm pass reaches, i.e. the max
    peer id involved) must not be the source or destination, and at
    least one other peer must hold a required reservation — otherwise
    nothing goes firm before the failure and the test proves nothing.
    """
    sync_bcp = cluster.scenario.net.bcp
    for request in cluster.scenario.requests.batch(10):
        res = sync_bcp.compose(request, confirm=False)
        if not res.success:
            continue
        involved = set(res.best.peers()) | {request.dest_peer}
        target = max(involved)
        if target in (request.source_peer, request.dest_peer):
            continue
        others = involved - {target, request.source_peer}
        if not others:
            continue
        return request, target
    return None, None


def test_failed_setup_ack_releases_already_confirmed_tokens():
    armed = {"on": False, "target": None}

    def latency(src, dst):
        if armed["on"] and dst == armed["target"]:
            return DELAY
        return 0.0

    config = ClusterConfig(
        n_peers=10,
        n_functions=6,
        seed=11,
        latency=latency,
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
        capacity_scale=10.0,
        soft_timeout=SOFT,
    )

    async def scenario():
        cluster = LiveCluster(config)
        # learn phase (sync engine, before the cluster seals anything):
        # which request composes a graph with a usable race target?
        request, target = _find_race_fixture(cluster)
        assert request is not None, "fixture: no request produced a raceable graph"
        armed["target"] = target

        # arm the latency only once the destination starts finalizing, so
        # the wave runs undelayed and selects the learned winner exactly
        dest = cluster.daemons[request.dest_peer]
        orig_finalize = dest._finalize

        async def finalize_hook(rid, why):
            armed["on"] = True
            return await orig_finalize(rid, why)

        dest._finalize = finalize_hook

        # count pool.confirm calls: the race is only meaningful if some
        # token actually went firm before the confirm pass failed
        went_firm = []
        for peer, daemon in cluster.daemons.items():
            orig = daemon.bcp.pool.confirm

            def wrapped(token, _orig=orig, _peer=peer):
                went_firm.append((_peer, token))
                return _orig(token)

            daemon.bcp.pool.confirm = wrapped

        async with cluster:
            result = await cluster.compose(request, confirm=True, timeout=60)
            soft_left = cluster.soft_tokens()
            pool_left = cluster.pool_tokens()
            errors = cluster.errors()
        return result, went_firm, soft_left, pool_left, errors

    result, went_firm, soft_left, pool_left, errors = vtime.run(scenario())
    assert errors == []
    # the target's reservation expired mid-confirm: setup must fail ...
    assert not result.success
    assert result.failure_reason == "setup ack found expired reservation or dead peer"
    # ... *after* other peers already confirmed (the race actually ran)
    assert went_firm, "no token went firm before the failure — race never happened"
    # pre-fix: the firm tokens survive the final release and leak here
    assert soft_left == {}
    assert pool_left == {peer: [] for peer in pool_left}


def test_stale_expiry_callback_cannot_cancel_a_confirmed_token():
    """The confirm path disarms bookkeeping before flipping the claim
    firm, so an expiry callback already queued behind the confirm frame
    finds nothing to act on and the firm claim survives untouched."""

    async def scenario():
        cluster = LiveCluster(
            ClusterConfig(n_peers=4, n_functions=4, seed=3, capacity_scale=10.0)
        )
        async with cluster:
            daemon = cluster.daemons[1]
            pool = daemon.bcp.pool
            rid = 999
            token = (rid, "comp", "X")
            assert pool.soft_allocate_peer(token, 1, ResourceVector({"cpu": 0.1}))
            daemon._tokens.setdefault(rid, set()).add(token)
            daemon._arm_expiry(rid, token)

            confirmed = daemon._apply_confirm(rid, {token})
            assert confirmed == {token}
            # the timer fired anyway (stale callback): must be a no-op
            daemon._expire_token(rid, token)
            still_firm = pool.has_token(token)

            daemon._apply_release(rid, set())
            freed = not pool.has_token(token)
        return still_firm, freed

    still_firm, freed = asyncio.run(scenario())
    assert still_firm
    assert freed
