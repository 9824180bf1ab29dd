"""Regression: the RPC reply cache must not survive an endpoint restart.

Message ids restart from 1 whenever an ``RpcEndpoint`` is recreated, so
a reply cache keyed only on ``(src, msg_id)`` serves a reborn peer the
replies recorded for its *previous* life — the restarted peer's first
calls get stale payloads without its handler ever running.  The fix
namespaces cache keys by a per-process incarnation nonce carried in the
request envelope, and additionally ages entries out after ``reply_ttl``
seconds.  (Both tests fail on the pre-fix endpoint: the first serves a
stale ``seq``, the second never re-invokes the handler.)
"""

import asyncio

from repro.net import codec
from repro.net.rpc import RpcEndpoint
from repro.net.transport import LoopbackTransport


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
