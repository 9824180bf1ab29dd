"""Regression: the RPC reply cache must not survive an endpoint restart.

Message ids restart from 1 whenever an ``RpcEndpoint`` is recreated, so
a reply cache keyed only on ``(src, msg_id)`` serves a reborn peer the
replies recorded for its *previous* life — the restarted peer's first
calls get stale payloads without its handler ever running.  The fix
namespaces cache keys by a per-process incarnation nonce carried in the
request envelope, and additionally ages entries out after ``reply_ttl``
seconds.  (Both tests fail on the pre-fix endpoint: the first serves a
stale ``seq``, the second never re-invokes the handler.)

The tests after them pin the low-water mark each request carries: a
receiver keeps a reply only until its sender says the exchange ended,
and every handler still runs exactly once.
"""

import asyncio

from repro.net import codec
from repro.net.rpc import RpcEndpoint
from repro.net.transport import LoopbackTransport
from repro.sim import vtime


def test_restarted_endpoint_does_not_receive_stale_cached_replies():
    async def scenario():
        t = LoopbackTransport()
        served = []

        async def handler(src, msg):
            served.append(msg.seq)
            return {"seq": msg.seq}

        b = RpcEndpoint(t, 1)
        b.on(codec.MaintenancePing, handler)
        a1 = RpcEndpoint(t, 0)
        await t.start()
        first = await a1.call(1, codec.MaintenancePing(7, 1))

        # peer 0 restarts: new endpoint, msg_id counter back at 1
        t.unregister(0)
        a2 = RpcEndpoint(t, 0)
        await t.start()
        second = await a2.call(1, codec.MaintenancePing(7, 2))

        await t.close()
        return first, second, served

    first, second, served = asyncio.run(scenario())
    assert first == {"seq": 1}
    # pre-fix this was the cached {"seq": 1} and served == [1]
    assert second == {"seq": 2}
    assert served == [1, 2]


def test_reply_cache_entries_expire_after_ttl():
    async def scenario():
        t = LoopbackTransport()
        now = [0.0]
        served = []

        async def handler(src, msg):
            served.append(msg.seq)
            return {"seq": msg.seq}

        b = RpcEndpoint(t, 1, reply_ttl=5.0, clock=lambda: now[0])
        b.on(codec.MaintenancePing, handler)
        a = RpcEndpoint(t, 0)
        await t.start()

        envelope = {
            "kind": "req", "id": 9, "src": 0, "dst": 1,
            "inc": a.incarnation, "body": codec.MaintenancePing(7, 1),
        }
        b._on_envelope(dict(envelope))
        b._on_envelope(dict(envelope))  # dedup: handler ran once
        await asyncio.sleep(0.01)  # the request's task runs on the loop
        assert served == [1]

        now[0] = 6.0  # past the TTL: the cached reply has aged out
        b._on_envelope(dict(envelope))
        await asyncio.sleep(0.01)
        await t.close()
        return served

    served = asyncio.run(scenario())
    assert served == [1, 1]


def test_responses_from_a_previous_incarnation_are_dropped():
    async def scenario():
        t = LoopbackTransport()
        a = RpcEndpoint(t, 0)
        b = RpcEndpoint(t, 1)

        async def never(src, body):
            await asyncio.Event().wait()

        b.on(dict, never)
        await t.start()
        call = asyncio.ensure_future(a.call(1, {"x": 1}))  # msg id 1, unanswered
        await asyncio.sleep(0.01)

        stale = {"kind": "res", "id": 1, "src": 1, "dst": 0,
                 "inc": "someone-elses-life", "body": {"seq": 99}}
        a._on_envelope(stale)
        await asyncio.sleep(0)
        dropped = not call.done()

        fresh = {"kind": "res", "id": 1, "src": 1, "dst": 0,
                 "inc": a.incarnation, "body": {"seq": 1}}
        a._on_envelope(fresh)
        resolved = await asyncio.wait_for(call, 1) == {"seq": 1}
        b.stop()
        await b.drain()
        await t.close()
        return dropped, resolved

    dropped, resolved = asyncio.run(scenario())
    assert dropped
    assert resolved


# ----------------------------------------------------------------------
# the low-water mark: a cached reply lives while its exchange does
# ----------------------------------------------------------------------
def _req(msg_id, lw, seq, inc="life-1", src=0):
    return {
        "kind": "req", "id": msg_id, "src": src, "inc": inc, "lw": lw,
        "body": codec.MaintenancePing(7, seq),
    }


async def _receiver(**kwargs):
    """Endpoint 1 serving pings (each run recorded), and the replies it
    sends to peers 0 and 2, which are bare transport handlers."""
    t = LoopbackTransport()
    served, replies = [], []
    b = RpcEndpoint(t, 1, **kwargs)

    async def handler(src, msg):
        served.append(msg.seq)
        return {"seq": msg.seq}

    b.on(codec.MaintenancePing, handler)
    t.register(0, replies.append)
    t.register(2, replies.append)
    await t.start()
    return t, b, served, replies


def _book(endpoint, src=0, inc="life-1"):
    return endpoint._books[(src, inc)].replies


def test_a_retransmission_at_or_above_the_mark_is_served_from_the_cache():
    async def scenario():
        t, b, served, replies = await _receiver()
        b._on_envelope(_req(5, 5, seq=1))
        await asyncio.sleep(0.01)
        b._on_envelope(_req(6, 5, seq=2))  # exchange 5 is still live at its sender
        b._on_envelope(_req(5, 5, seq=1))  # ... which retransmits it
        await asyncio.sleep(0.01)
        book = sorted(_book(b))
        await t.close()
        return served, replies, book

    served, replies, book = vtime.run(scenario())
    assert served == [1, 2]  # the handler ran once per exchange
    assert [(r["id"], r["body"]) for r in replies] == [
        (5, {"seq": 1}), (6, {"seq": 2}), (5, {"seq": 1}),
    ]
    assert book == [5, 6]


def test_a_duplicate_of_an_ended_exchange_gets_no_reply_and_no_handler_run():
    async def scenario():
        t, b, served, replies = await _receiver()
        b._on_envelope(_req(5, 5, seq=1))
        b._on_envelope(_req(6, 6, seq=2))  # exchange 5 has ended at its sender
        await asyncio.sleep(0.01)
        before = len(replies)
        b._on_envelope(_req(5, 5, seq=1))  # a late copy of it
        b._on_envelope(_req(4, 4, seq=0))  # one never seen, below the mark too
        await asyncio.sleep(0.01)
        book = sorted(_book(b))
        await t.close()
        return served, replies[before:], book

    served, late_replies, book = vtime.run(scenario())
    assert served == [1, 2]
    assert late_replies == []
    assert book == [6]


def test_a_handler_that_finishes_after_the_mark_passed_its_id_caches_nothing():
    async def scenario():
        t, b, served, replies = await _receiver()
        gate = asyncio.Event()

        async def slow(src, msg):
            await gate.wait()
            served.append(msg.seq)
            return {"seq": msg.seq}

        b.on(codec.MaintenancePing, slow)
        b._on_envelope(_req(5, 5, seq=1))  # its handler waits
        await asyncio.sleep(0.01)
        b._on_envelope(_req(6, 6, seq=2))  # the sender gave exchange 5 up
        gate.set()
        await asyncio.sleep(0.01)
        book = sorted(_book(b))
        cached = b._cached
        await t.close()
        return served, book, cached

    served, book, cached = vtime.run(scenario())
    assert sorted(served) == [1, 2]
    assert book == [6] and cached == 1


def test_a_book_whose_last_entry_goes_is_deleted_with_a_previous_life_s():
    async def scenario():
        now = [0.0]
        t, b, served, replies = await _receiver(reply_ttl=5.0, clock=lambda: now[0])
        b._on_envelope(_req(1, 1, seq=1, inc="life-1"))
        b._on_envelope(_req(1, 1, seq=2, inc="life-2"))  # peer 0 restarted
        await asyncio.sleep(0.01)
        both = sorted(b._books)
        now[0] = 6.0  # both replies aged past the TTL
        b._on_envelope(_req(2, 2, seq=3, inc="life-2"))  # trims its book's 1 by the mark
        await asyncio.sleep(0.01)
        after_mark = {life: sorted(book.replies) for life, book in b._books.items()}
        now[0] = 12.0  # peer 0 falls quiet; another sender's reply sweeps the rest
        b._on_envelope(_req(1, 1, seq=4, inc="other", src=2))
        await asyncio.sleep(0.01)
        last = sorted(b._books)
        cached = b._cached
        await t.close()
        return served, both, after_mark, last, cached

    served, both, after_mark, last, cached = vtime.run(scenario())
    assert served == [1, 2, 3, 4]
    assert both == [(0, "life-1"), (0, "life-2")]
    # the previous life's book went with its last (expired) entry
    assert after_mark == {(0, "life-2"): [2]}
    assert last == [(2, "other")] and cached == 1


def test_each_request_carries_the_oldest_exchange_still_live_to_its_receiver():
    """A call left waiting holds its receiver's mark at its id; once it is
    over, the next request to that receiver moves the mark past it, and a
    receiver of none of it sees its own mark only."""

    async def scenario():
        t = LoopbackTransport()
        a, b, c = RpcEndpoint(t, 0), RpcEndpoint(t, 1), RpcEndpoint(t, 2)
        gate = asyncio.Event()

        async def held(src, msg):
            if msg.seq == 1:
                await gate.wait()
            return {"seq": msg.seq}

        b.on(codec.MaintenancePing, held)
        c.on(codec.MaintenancePing, held)
        sent = []
        send = t.send

        async def record(src, dst, envelope):
            if envelope["kind"] == "req":
                sent.append((dst, envelope["id"], envelope["lw"]))
            return await send(src, dst, envelope)

        t.send = record
        await t.start()
        first = asyncio.ensure_future(a.call(1, codec.MaintenancePing(7, 1)))  # id 1, held
        await asyncio.sleep(0.01)
        await a.call(1, codec.MaintenancePing(7, 2))  # id 2
        await a.call(2, codec.MaintenancePing(7, 3))  # id 3, to another receiver
        gate.set()
        await first
        await a.call(1, codec.MaintenancePing(7, 4))  # id 4
        book = sorted(b._books[(0, a.incarnation)].replies)
        live = dict(a._live)
        await t.close()
        return sent, book, live

    sent, book, live = vtime.run(scenario())
    assert sent == [(1, 1, 1), (1, 2, 1), (2, 3, 3), (1, 4, 4)]
    assert book == [4]  # 1 and 2 were trimmed by the mark request 4 carried
    assert live == {}  # nothing live: no mark kept for any receiver
