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
"""

import asyncio
from collections import defaultdict

import pytest

from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
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
