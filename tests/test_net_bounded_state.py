"""Per-daemon state is bounded by the requests still live, not by a capacity.

Two hundred composes run on a seeded 10-peer loopback cluster on virtual
time, a few at a time, and the cluster is then drained.  A daemon's
per-request tables must by then hold only what exchanges and requests
still in flight need:

* its RPC endpoint's reply books keep, per sender life, only the replies
  at or above the low-water mark that sender's last request to it
  carried — the exchanges the sender has not yet said are over;
* the probe-dedup table names no request that holds no soft token at the
  daemon (checked after every batch as well), and with every release
  applied it, ``_tokens`` and ``_timers`` are empty;
* no collection window and no parked frame is left;
* and once ``soft_timeout`` has passed, no closed window either: a
  destination remembers a closed request id (what tells a late credit
  frame from an early one) only while a soft token of its wave may live.

A reply cache bounded only by its capacity and a TTL keeps every
exchange of the run (8 192 entries, 120 s), and a FIFO probe-dedup set
every probe child, and one of closed windows every request id
(65 536 each).

What a finished exchange or a stopped cluster leaves must also go with
its last reference, not wait for the cycle collector: a finished or
failed RPC exchange, and the event loop a loopback or TCP cluster ran on.
"""

import asyncio
import dataclasses
import gc
import weakref
from collections import defaultdict

import pytest

from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.net.rpc import RetryPolicy, RpcError, _Exchange
from repro.sim import vtime

COMPOSES = 200
AT_ONCE = 4


def _record_requests(cluster):
    """(src, dst) -> [(msg_id, lw)] of every request frame sent, in order."""
    sent = defaultdict(list)
    send = cluster.transport.send

    async def record(src, dst, envelope):
        if envelope.get("kind") == "req":
            sent[(src, dst)].append((envelope["id"], envelope["lw"]))
        return await send(src, dst, envelope)

    cluster.transport.send = record
    return sent


@pytest.fixture(scope="module")
def drained():
    async def scenario():
        cluster = LiveCluster(
            ClusterConfig(
                n_peers=10, n_functions=5, seed=11, capacity_scale=10.0,
                measurement=MeasurementConfig(enabled=False),
            )
        )
        sent = _record_requests(cluster)
        requests = cluster.scenario.requests.batch(COMPOSES)
        stray_dedup = []
        async with cluster:
            results = []
            for at in range(0, COMPOSES, AT_ONCE):
                batch = requests[at : at + AT_ONCE]
                results += await asyncio.gather(
                    *(
                        cluster.compose(r, confirm=(i % 5 == 0), timeout=60)
                        for i, r in enumerate(batch, at)
                    )
                )
                stray_dedup += [
                    (peer, set(d._seen) - set(d._tokens))
                    for peer, d in cluster.daemons.items()
                    if not set(d._seen) <= set(d._tokens)
                ]
            for daemon in cluster.daemons.values():
                await daemon.drain()
            books = {
                peer: {life: sorted(book.replies) for life, book in d.endpoint._books.items()}
                for peer, d in cluster.daemons.items()
            }
            tables = {
                peer: {
                    "seen": len(d._seen), "tokens": len(d._tokens), "timers": len(d._timers),
                    "collections": len(d._collections), "parked": len(d._parked),
                }
                for peer, d in cluster.daemons.items()
            }
            lives = {d.endpoint.incarnation: peer for peer, d in cluster.daemons.items()}
            errors = cluster.errors()
            # every window closed at its destination; soft_timeout later
            # no frame of its wave can still hold a token anywhere
            closed = {"drained": sum(len(d._closed) for d in cluster.daemons.values())}
            await asyncio.sleep(cluster.config.soft_timeout + 1.0)
            closed["expired"] = {peer: len(d._closed) for peer, d in cluster.daemons.items()}
        return results, sent, books, tables, lives, stray_dedup, errors, closed

    return vtime.run(scenario())


def test_per_daemon_state_holds_only_what_live_exchanges_need(drained):
    results, sent, books, tables, lives, stray_dedup, errors, _ = drained
    assert errors == []
    assert sum(r.success for r in results) > COMPOSES // 2
    assert stray_dedup == []
    assert tables == {
        peer: {"seen": 0, "tokens": 0, "timers": 0, "collections": 0, "parked": 0}
        for peer in tables
    }
    exchanges = sum(len(frames) for frames in sent.values())
    cached = 0
    for peer, by_life in books.items():
        for (src, inc), ids in by_life.items():
            assert lives[inc] == src
            frames = sent[(src, peer)]
            mark = frames[-1][1]  # the low-water mark of src's last request here
            not_yet_over = {msg_id for msg_id, _ in frames if msg_id >= mark}
            assert set(ids) <= not_yet_over, (peer, src)
            cached += len(ids)
    # a few replies per (sender, receiver) pair are left of the run's
    # thousands of exchanges
    assert exchanges > 50 * len(sent)
    assert cached <= 3 * len(sent)


def test_a_closed_window_is_forgotten_once_its_soft_tokens_have_expired(drained):
    results, *_, closed = drained
    # one closed window per compose, each at its destination
    assert closed["drained"] == len(results) == COMPOSES
    assert closed["expired"] == {peer: 0 for peer in closed["expired"]}


def test_one_cluster_keeps_no_request_keyed_table_but_its_closed_windows():
    """After a run of composes, no dict on the cluster or a daemon is
    still keyed by one of its requests, but a destination's closed
    windows, which name exactly the requests it was destination of."""

    def keyed_by_request(cluster, rids):
        owners = {"cluster": cluster, **cluster.daemons}
        return {
            (owner, name)
            for owner, obj in owners.items()
            for name, value in vars(obj).items()
            if name != "_closed" and isinstance(value, dict) and rids & set(value)
        }

    async def scenario():
        cluster = LiveCluster(
            ClusterConfig(
                n_peers=8, n_functions=5, seed=2, capacity_scale=4.0, transport="tcp",
                measurement=MeasurementConfig(enabled=False),
            )
        )
        # ids no peer id can be mistaken for
        requests = [
            dataclasses.replace(r, request_id=r.request_id + 10_000_000)
            for r in cluster.scenario.requests.batch(6)
        ]
        rids = {r.request_id for r in requests}
        async with cluster:
            probes = [
                (await cluster.compose(r, confirm=False, timeout=30)).probes_sent
                for r in requests
            ]
            left_behind = keyed_by_request(cluster, rids)
            closed = {peer: rids & set(d._closed) for peer, d in cluster.daemons.items()}
        return requests, probes, left_behind, closed, cluster.errors()

    requests, probes, left_behind, closed, errors = asyncio.run(scenario())
    assert errors == []
    assert sum(probes) > 0
    assert left_behind == set()
    assert closed == {
        peer: {r.request_id for r in requests if r.dest_peer == peer} for peer in closed
    }


def _small_cluster():
    return LiveCluster(
        ClusterConfig(n_peers=5, seed=3, measurement=MeasurementConfig(enabled=False))
    )


def test_a_finished_exchange_goes_without_the_cycle_collector():
    """An exchange's deadline entry drops its arguments when it is
    cancelled or run, so the exchange (its message, envelope and futures)
    is freed with its last reference instead of sitting in a cycle with
    its own entry."""

    async def scenario():
        cluster = _small_cluster()
        async with cluster:
            for request in cluster.scenario.requests.batch(30):
                await cluster.compose(request, confirm=False, timeout=60)
            for daemon in cluster.daemons.values():
                await daemon.drain()
            return sum(isinstance(o, _Exchange) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        assert vtime.run(scenario()) == 0
    finally:
        gc.enable()


def test_a_failed_call_leaves_no_exchange_without_the_cycle_collector():
    """A call that runs out of retries raises the error its future holds;
    the call's frame drops the future and the exchange as the error
    leaves, so the error's traceback keeps neither alive."""

    async def scenario():
        cluster = LiveCluster(
            ClusterConfig(
                n_peers=5, seed=3, measurement=MeasurementConfig(enabled=False),
                retry=RetryPolicy(timeout=0.05, retries=0, backoff=0.01),
            )
        )
        async with cluster:
            cluster.kill_peer(4)
            endpoint = cluster.daemons[0].endpoint
            for seq in range(3):
                with pytest.raises(RpcError):
                    await endpoint.call(4, codec.MaintenancePing(0, seq))
            return sum(isinstance(o, _Exchange) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        assert vtime.run(scenario()) == 0
    finally:
        gc.enable()


def _loop_outlives_the_run(run, cluster_factory):
    """Whether the loop a stopped cluster ran on is still alive, with the
    collector off, once ``run`` returns."""
    loops = []

    async def scenario():
        loops.append(weakref.ref(asyncio.get_running_loop()))
        cluster = cluster_factory()
        async with cluster:
            for request in cluster.scenario.requests.batch(3):
                await cluster.compose(request, confirm=False, timeout=60)

    gc.collect()
    gc.disable()
    try:
        run(scenario())
        return loops[0]() is not None
    finally:
        gc.enable()


@pytest.mark.parametrize("run", [vtime.run, asyncio.run], ids=["vtime", "asyncio"])
def test_a_stopped_loopback_cluster_frees_its_loop_without_the_cycle_collector(run):
    """Nothing a stopped loopback cluster keeps refers to the loop it ran
    on (the transport's inbox queues go at close), so the loop is freed
    when the run ends, not when the collector next finds the cluster."""
    assert not _loop_outlives_the_run(run, _small_cluster)


def test_a_stopped_tcp_cluster_frees_its_loop_without_the_cycle_collector():
    """The same on TCP, on the real loop: the transport's flusher event and
    dial locks, bound to the loop on first use, are renewed at close, and
    no finished handler's traceback keeps a frame of the run alive."""
    config = ClusterConfig(
        n_peers=5, seed=3, transport="tcp", measurement=MeasurementConfig(enabled=False)
    )
    assert not _loop_outlives_the_run(asyncio.run, lambda: LiveCluster(config))
