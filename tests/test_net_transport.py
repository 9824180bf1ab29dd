"""Transport and RPC layer tests: loopback, TCP, retries, idempotency."""

import asyncio

import pytest

from repro.net import codec, vtime
from repro.net import rpc as net_rpc
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.codec import MAX_FRAME, MaintenancePing, encode_frame
from repro.net.rpc import DedupCache, RetryPolicy, RpcEndpoint, RpcFailure, RpcTimeout
from repro.net.transport import (
    LoopbackTransport,
    TcpTransport,
    TransportError,
    _Accepted,
    _Conn,
)
from repro.services.component import QualitySpec


def run(coro):
    return asyncio.run(coro)


def collector(received):
    async def handler(envelope):
        received.append(envelope)

    return handler


class TestLoopback:
    def test_delivers_decoded_envelopes(self):
        async def scenario():
            t = LoopbackTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            await t.send(0, 1, {"kind": "req", "n": 7})
            await asyncio.sleep(0.01)
            await t.close()
            return received

        out = run(scenario())
        assert out == [{"kind": "req", "n": 7}]

    def test_latency_delays_delivery(self):
        async def scenario():
            t = LoopbackTransport(latency=0.05)
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            await t.send(0, 1, {"n": 1})
            await asyncio.sleep(0.01)
            early = len(received)
            await asyncio.sleep(0.08)
            await t.close()
            return early, len(received)

        early, late = run(scenario())
        assert early == 0 and late == 1

    def test_loss_drops_frames(self):
        async def scenario():
            t = LoopbackTransport(loss=0.5, seed=3)
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            for i in range(200):
                await t.send(0, 1, {"n": i})
            await asyncio.sleep(0.05)
            await t.close()
            return t.frames_sent, t.frames_dropped, len(received)

        sent, dropped, delivered = run(scenario())
        assert sent == 200
        assert delivered == sent - dropped
        assert 50 < dropped < 150  # ~50% with a seeded generator

    def test_kill_is_a_silent_drop(self):
        async def scenario():
            t = LoopbackTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            t.kill(1)
            await t.send(0, 1, {"n": 1})  # no exception: packet into the void
            await asyncio.sleep(0.01)
            with pytest.raises(TransportError, match="down"):
                await t.send(1, 0, {"n": 2})  # a dead peer cannot send
            await t.close()
            return received, t.frames_dropped

        received, dropped = run(scenario())
        assert received == [] and dropped == 1

    def test_unknown_destination(self):
        async def scenario():
            t = LoopbackTransport()
            t.register(0, collector([]))
            await t.start()
            with pytest.raises(TransportError, match="no such peer"):
                await t.send(0, 99, {"n": 1})
            await t.close()

        run(scenario())

    def test_send_before_start_refused(self):
        async def scenario():
            t = LoopbackTransport()
            t.register(0, collector([]))
            with pytest.raises(TransportError, match="not started"):
                await t.send(0, 0, {"n": 1})

        run(scenario())

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            LoopbackTransport(loss=1.0)


class TestTcp:
    def test_round_trip_over_sockets(self):
        async def scenario():
            t = TcpTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            assert set(t.addresses) == {0, 1}
            for i in range(5):
                await t.send(0, 1, {"n": i})
            await asyncio.sleep(0.05)
            await t.close()
            return received

        out = run(scenario())
        assert [e["n"] for e in out] == list(range(5))

    def test_killed_peer_raises(self):
        async def scenario():
            t = TcpTransport()
            t.register(0, collector([]))
            t.register(1, collector([]))
            await t.start()
            t.kill(1)
            with pytest.raises(TransportError):
                await t.send(0, 1, {"n": 1})
            await t.close()

        run(scenario())


class FakeSocket:
    """Stands in for the asyncio transport under a protocol object."""

    def __init__(self):
        self.written = []
        self.aborted = False

    def write(self, data):
        self.written.append(data)

    def set_write_buffer_limits(self, high=None, low=None):
        pass

    def is_closing(self):
        return self.aborted

    def abort(self):
        self.aborted = True


def loop_errors():
    """Route the running loop's exception handler into a list."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: errors.append(ctx))
    return errors


class TestTcpReceive:
    @staticmethod
    def accepted(handler):
        t = TcpTransport()
        t.register(1, handler)
        proto = _Accepted(t, 1)
        proto.connection_made(FakeSocket())
        return t, proto

    def test_burst_split_at_every_offset_delivers_once_in_order(self):
        burst = b"".join(encode_frame({"kind": "req", "n": n}) for n in range(3))
        for cut in range(len(burst) + 1):
            received = []
            _, proto = self.accepted(received.append)  # a plain function: no loop needed
            proto.data_received(burst[:cut])
            proto.data_received(burst[cut:])
            assert [e["n"] for e in received] == [0, 1, 2], f"split at byte {cut}"

    @pytest.mark.parametrize(
        "header",
        [
            b"XX\x07\x00\x00\x00\x01",
            b"SN\x07" + (MAX_FRAME + 1).to_bytes(4, "big"),
            b"SN\x01\x00\x00\x00\x07" + b'{"n":5}',  # the retired JSON version
            b"SN\x02" + encode_frame({"n": 5})[3:],  # the retired all-terms version
            # a valid header over a typed layout that meets a value of the
            # wrong shape (QualitySpec's formats are the integer 5)
            b"SN\x07\x00\x00\x00\x04"
            + bytes([codec._T_OBJ, codec._BIN_IDS[QualitySpec], codec._T_INT8, 5]),
            b"SN\x03" + encode_frame({"n": 5})[3:],  # the retired count-less bundles
            b"SN\x04" + encode_frame({"n": 5})[3:],  # the retired type-id numbering
            b"SN\x05" + encode_frame({"n": 5})[3:],  # the retired Fraction credit
            b"SN\x06" + encode_frame({"n": 5})[3:],  # the retired replica push ids
        ],
        ids=[
            "bad-magic", "oversize", "version-1", "version-2", "bad-typed-payload", "version-3",
            "version-4", "version-5", "version-6",
        ],
    )
    def test_bad_header_closes_the_connection_quietly(self, header):
        async def scenario():
            errors = loop_errors()
            t = TcpTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            reader, writer = await asyncio.open_connection(*t.addresses[1])
            writer.write(encode_frame({"n": 0}) + header + b"\x00" * 64)
            await writer.drain()
            closed = await asyncio.wait_for(reader.read(), 1)  # EOF: peer 1 hung up
            writer.close()
            await t.send(0, 1, {"n": 1})  # the listener itself is unharmed
            await asyncio.sleep(0.05)
            await t.close()
            return closed, received, t.frames_dropped, errors

        closed, received, dropped, errors = run(scenario())
        # the good frame shared the poisoned chunk, so it went down with it
        assert closed == b"" and received == [{"n": 1}]
        assert dropped == 1 and errors == []

    @pytest.mark.parametrize("make", [LoopbackTransport, TcpTransport], ids=["loopback", "tcp"])
    def test_a_raising_handler_costs_the_frame_not_the_peer(self, make):
        async def scenario():
            errors = loop_errors()
            t = make()
            received = []

            def plain(envelope):
                if envelope["n"] == 0:
                    raise KeyError("boom")
                received.append(envelope["n"])

            async def coro(envelope):
                if envelope["n"] == 0:
                    raise KeyError("boom")
                received.append(envelope["n"])

            t.register(0, plain)
            t.register(1, coro)
            await t.start()
            for dst in (0, 1):
                for n in range(3):
                    await t.send(1 - dst, dst, {"n": n})
            await asyncio.sleep(0.05)
            await t.close()
            return received, t.frames_dropped, errors

        received, dropped, errors = run(scenario())
        assert sorted(received) == [1, 1, 2, 2] and dropped == 2 and errors == []


class TestTcpSend:
    @staticmethod
    def pooled():
        """A started-looking transport with one fake pooled connection."""
        t = TcpTransport()
        t._started = True
        conn = t._pool[(0, 1)] = _Conn(t, (0, 1))
        conn.connection_made(FakeSocket())
        return t, conn

    def test_sender_past_high_water_blocks_until_resume(self):
        async def scenario():
            t, conn = self.pooled()
            await t.send(0, 1, {"n": 0})  # below the mark: returns at once
            conn.pause_writing()
            blocked = asyncio.ensure_future(t.send(0, 1, {"n": 1}))
            await asyncio.sleep(0.02)
            was_blocked, sent_before = not blocked.done(), t.frames_sent
            conn.resume_writing()
            await asyncio.wait_for(blocked, 1)
            return was_blocked, sent_before, t.frames_sent, len(conn.buf)

        assert run(scenario()) == (True, 1, 2, 2)

    def test_sender_fails_if_the_connection_is_lost_while_it_waits(self):
        async def scenario():
            t, conn = self.pooled()
            conn.pause_writing()
            blocked = asyncio.ensure_future(t.send(0, 1, {"n": 1}))
            await asyncio.sleep(0.02)
            conn.connection_lost(ConnectionResetError("gone"))
            with pytest.raises(TransportError, match="gone"):
                await asyncio.wait_for(blocked, 1)
            return t.frames_sent, (0, 1) in t._pool

        assert run(scenario()) == (0, False)

    def test_kill_mid_burst_then_revive(self):
        async def scenario():
            t = TcpTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            await t.send(0, 1, {"n": 0})
            await asyncio.sleep(0.05)
            for n in range(1, 6):
                await t.send(0, 1, {"n": n})  # buffered: the flusher has not run yet
            t.kill(1)
            with pytest.raises(TransportError, match="down"):
                await t.send(0, 1, {"n": 6})
            await asyncio.sleep(0.05)
            after_kill = list(received)
            t.unregister(1)
            t.register(1, collector(received))
            await t.revive(1)
            await t.send(0, 1, {"n": 7})  # a fresh dial to the new listener
            await asyncio.sleep(0.05)
            await t.close()
            return after_kill, received

        after_kill, received = run(scenario())
        assert [e["n"] for e in after_kill] == [0]
        assert [e["n"] for e in received] == [0, 7]

    def test_refused_dial_leaves_no_open_socket(self):
        async def scenario():
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            nobody_home = server.sockets[0].getsockname()[:2]
            server.close()
            await server.wait_closed()
            t = TcpTransport()
            t.register(0, collector([]))
            await t.start()
            t.addresses[1] = nobody_home
            with pytest.raises(TransportError, match="dial 0->1 failed"):
                await t.send(0, 1, {"n": 1})
            pooled = dict(t._pool)
            await t.close()
            return pooled

        assert run(scenario()) == {}

    def test_cancelled_dial_leaves_no_open_socket(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            hung_up = loop.create_future()

            async def acceptor(reader, writer):
                await reader.read()  # EOF when the dialer lets go
                hung_up.set_result(True)
                writer.close()

            server = await asyncio.start_server(acceptor, "127.0.0.1", 0)
            t = TcpTransport()
            t.register(0, collector([]))
            await t.start()
            t.addresses[1] = server.sockets[0].getsockname()[:2]
            real_dial = loop.create_connection

            async def slow_dial(*args, **kwargs):
                made = await real_dial(*args, **kwargs)
                await asyncio.sleep(1)  # the sender is cancelled in here
                return made

            loop.create_connection = slow_dial
            sender = asyncio.ensure_future(t.send(0, 1, {"n": 1}))
            await asyncio.sleep(0.05)
            sender.cancel()
            await asyncio.gather(sender, return_exceptions=True)
            await asyncio.wait_for(hung_up, 1)
            pooled = dict(t._pool)
            await t.close()
            server.close()
            await server.wait_closed()
            return pooled

        assert run(scenario()) == {}

    def test_bytes_on_a_dialled_connection_abort_it(self):
        async def scenario():
            async def acceptor(reader, writer):
                writer.write(b"anything")  # frames flow one way only
                await reader.read()  # until the dialler hangs up
                writer.close()

            server = await asyncio.start_server(acceptor, "127.0.0.1", 0)
            t = TcpTransport()
            t.register(0, collector([]))
            await t.start()
            t.addresses[1] = server.sockets[0].getsockname()[:2]
            await t.send(0, 1, {"n": 1})
            conn = t._pool[(0, 1)]
            await asyncio.sleep(0.05)
            pooled = dict(t._pool)
            await t.close()
            server.close()
            await server.wait_closed()
            return conn.lost, pooled

        lost, pooled = run(scenario())
        assert lost is not None and pooled == {}

    def test_idle_cluster_owns_no_task_per_connection(self):
        async def scenario():
            peers = 16
            cluster = LiveCluster(
                ClusterConfig(n_peers=peers, n_functions=6, seed=2, capacity_scale=4.0, transport="tcp")
            )
            async with cluster:
                for request in cluster.scenario.requests.batch(10):
                    await cluster.compose(request, confirm=False, timeout=60)
                await asyncio.sleep(0.2)
                return peers, len(asyncio.all_tasks()), len(cluster.transport._pool)

        peers, tasks, connections = run(scenario())
        # listeners + measurement loops + flusher + this one; the parent ran
        # two more per pooled connection
        assert connections > peers and tasks <= 2 * peers + 8


class TestCoalescing:
    @staticmethod
    async def _burst_scenario(t):
        received = []
        t.register(0, collector([]))
        t.register(1, collector(received))
        await t.start()
        await asyncio.gather(*(t.send(0, 1, {"n": i}) for i in range(50)))
        await asyncio.sleep(0.1)
        await t.close()
        return received

    def test_loopback_burst_preserves_order(self):
        out = run(self._burst_scenario(LoopbackTransport()))
        assert [e["n"] for e in out] == list(range(50))

    def test_tcp_burst_preserves_order(self):
        out = run(self._burst_scenario(TcpTransport()))
        assert [e["n"] for e in out] == list(range(50))

    def test_loopback_coalescing_batches_queue_items(self):
        async def scenario():
            t = LoopbackTransport()
            received = []
            t.register(0, collector([]))
            t.register(1, collector(received))
            await t.start()
            # all sends land within one event-loop turn: the dispatcher
            # must see them as a single batched queue item
            for i in range(10):
                await t.send(0, 1, {"n": i})
            depth = t._queues[1].qsize()
            await asyncio.sleep(0.05)
            await t.close()
            return depth, received

        depth, received = run(scenario())
        assert depth <= 1
        assert [e["n"] for e in received] == list(range(10))


class TestRpc:
    @staticmethod
    def make_pair(transport=None, retry=None):
        t = transport or LoopbackTransport()
        a = RpcEndpoint(t, 0, retry=retry, seed=1)
        b = RpcEndpoint(t, 1, retry=retry, seed=2)
        return t, a, b

    def test_call_returns_handler_reply(self):
        async def scenario():
            t, a, b = self.make_pair()

            async def handler(src, body):
                return {"echo": body["x"], "from": src}

            b.on(dict, handler)
            await t.start()
            reply = await a.call(1, {"x": 42})
            await t.close()
            return reply

        assert run(scenario()) == {"echo": 42, "from": 0}

    def test_missing_handler_reports_error(self):
        async def scenario():
            t, a, b = self.make_pair()
            await t.start()
            reply = await a.call(1, {"x": 1})
            await t.close()
            return reply

        assert "error" in run(scenario())

    def test_handler_exception_becomes_error_reply(self):
        async def scenario():
            t, a, b = self.make_pair()

            async def handler(src, body):
                raise KeyError("boom")

            b.on(dict, handler)
            await t.start()
            reply = await a.call(1, {"x": 1})
            await t.close()
            return reply

        assert "KeyError" in run(scenario())["error"]

    def test_timeout_after_bounded_retries(self):
        async def scenario():
            policy = RetryPolicy(timeout=0.05, retries=2, backoff=0.01)
            t, a, b = self.make_pair(retry=policy)
            await t.start()
            t.kill(1)
            with pytest.raises(RpcTimeout, match="3 attempts"):
                await a.call(1, {"x": 1})
            await t.close()
            return a.retries_performed

        assert run(scenario()) == 2

    def test_lossy_link_retries_until_reply(self):
        async def scenario():
            policy = RetryPolicy(timeout=0.05, retries=8, backoff=0.005, jitter=0.0)
            t = LoopbackTransport(loss=0.4, seed=7)
            a = RpcEndpoint(t, 0, retry=policy, seed=1)
            b = RpcEndpoint(t, 1, retry=policy, seed=2)
            calls = []

            async def handler(src, body):
                calls.append(body["n"])
                return {"ok": True}

            b.on(dict, handler)
            await t.start()
            for n in range(10):
                await a.call(1, {"n": n})
            await t.close()
            return calls, a.retries_performed

        # timeouts and backoff are timers: on virtual time they cost no wall time
        calls, retries = vtime.run(scenario())
        # every logical message processed exactly once despite loss + retries
        assert calls == list(range(10))
        assert retries > 0

    def test_duplicate_request_replays_cached_reply(self):
        async def scenario():
            t, a, b = self.make_pair()
            invocations = []

            async def handler(src, body):
                invocations.append(body)
                return {"val": len(invocations)}

            b.on(dict, handler)
            await t.start()
            envelope = {"kind": "req", "id": 777, "src": 0, "dst": 1, "body": {"x": 1}}
            fut = asyncio.get_running_loop().create_future()
            a._pending[777] = fut
            await t.send(0, 1, envelope)
            first = await asyncio.wait_for(fut, 1)
            fut2 = asyncio.get_running_loop().create_future()
            a._pending[777] = fut2
            await t.send(0, 1, envelope)  # identical retry
            second = await asyncio.wait_for(fut2, 1)
            await t.close()
            return invocations, first, second

        invocations, first, second = run(scenario())
        assert len(invocations) == 1  # handler ran once
        assert first == second == {"val": 1}


    @pytest.mark.parametrize("make", [LoopbackTransport, TcpTransport], ids=["loopback", "tcp"])
    def test_malformed_envelope_does_not_silence_a_peer(self, make):
        async def scenario():
            errors = loop_errors()
            policy = RetryPolicy(timeout=0.2, retries=1, backoff=0.01)
            t, a, b = self.make_pair(make(), retry=policy)

            async def pong(src, msg):
                return {"seq": msg.seq}

            b.on(MaintenancePing, pong)
            await t.start()
            first = await a.call(1, MaintenancePing(0, 1))
            await t.send(0, 1, {"kind": "req", "id": 7})  # decodes fine, lacks src
            await t.send(0, 1, {"kind": "res", "id": [7]})
            await t.send(0, 1, ["not", "an", "envelope"])
            second = await a.call(1, MaintenancePing(0, 2))
            await t.close()
            return first, second, b.envelopes_rejected, errors

        first, second, rejected, errors = run(scenario())
        assert (first, second) == ({"seq": 1}, {"seq": 2})
        assert rejected == 3 and errors == []

    def test_a_call_whose_send_dialled_or_waited_is_not_an_rtt_sample(self):
        """Over a real socket: the first call on a fresh ``(src, dst)``
        pair waits for ``create_connection``, a later one for a paused
        connection — neither wait is the link's, so neither reports
        ``on_rtt`` (at the parent both did, and the first locked the
        measurement plane's baseline several times too high)."""

        async def scenario():
            t, a, b = self.make_pair(TcpTransport())
            samples = []
            a.on_rtt = lambda dst, rtt, method: samples.append((dst, method))

            async def handler(src, body):
                return {"seq": body.seq}

            b.on(MaintenancePing, handler)
            await t.start()
            await a.call(1, MaintenancePing(0, 1))  # dials 0 -> 1
            after_dial = list(samples)
            await a.call(1, MaintenancePing(0, 2))  # connection is pooled
            pooled = list(samples)
            conn = t._pool[(0, 1)]
            conn.pause_writing()
            held = asyncio.ensure_future(a.call(1, MaintenancePing(0, 3)))
            await asyncio.sleep(0.02)
            conn.resume_writing()
            await asyncio.wait_for(held, 1)
            await t.close()
            return after_dial, pooled, list(samples), a

        after_dial, pooled, after_pause, a = run(scenario())
        assert after_dial == []
        assert pooled == after_pause == [(1, "MaintenancePing")]
        assert a.samples_discarded == 2

    def test_no_reply_times_out_after_exactly_retries_plus_one_attempts(self):
        async def scenario():
            policy = RetryPolicy(timeout=0.03, retries=2, backoff=0.005)
            t, a, b = self.make_pair(retry=policy)
            release = asyncio.Event()
            failures = []
            a.on_failure = failures.append

            async def never(src, body):
                await release.wait()

            b.on(dict, never)
            await t.start()
            with pytest.raises(RpcTimeout, match="3 attempts: no reply within"):
                await a.call(1, {"x": 1})
            outcome = t.frames_sent, a.retries_performed, failures, dict(a._pending)
            release.set()
            await asyncio.sleep(0.01)
            await t.close()
            return outcome

        frames, retries, failures, pending = run(scenario())
        assert frames == 3 and retries == 2 and pending == {}
        assert failures == [
            RpcFailure(peer=1, method="dict", attempts=3, error="no reply within 0.03s")
        ]

    def test_cancelled_call_leaves_no_pending_entry_or_live_deadline(self):
        async def scenario():
            t, a, b = self.make_pair(retry=RetryPolicy(timeout=0.05, retries=0))
            loop = asyncio.get_running_loop()
            deadlines = []
            real_call_later = loop.call_later

            def call_later(delay, callback, *args):
                handle = real_call_later(delay, callback, *args)
                if callback is net_rpc._expire:
                    deadlines.append((handle, args[0]))
                return handle

            loop.call_later = call_later
            release = asyncio.Event()

            async def slow(src, body):
                await release.wait()

            b.on(dict, slow)
            await t.start()
            call = asyncio.ensure_future(a.call(1, {"x": 1}))
            await asyncio.sleep(0.01)
            in_flight = len(a._pending)
            call.cancel()
            await asyncio.gather(call, return_exceptions=True)
            await asyncio.sleep(0.08)  # past the deadline: it must not fire
            release.set()
            await asyncio.sleep(0.01)
            await t.close()
            return in_flight, dict(a._pending), deadlines

        in_flight, pending, deadlines = run(scenario())
        assert in_flight == 1 and pending == {}
        [(handle, future)] = deadlines
        assert handle.cancelled() and future.cancelled()

    def test_requests_are_delivered_in_order_not_run_serially(self):
        async def scenario():
            t, a, b = self.make_pair()
            release = asyncio.Event()
            log = []

            async def handler(src, body):
                log.append(("start", body["n"]))
                if body["n"] == 1:
                    await release.wait()
                log.append(("end", body["n"]))

            b.on(dict, handler)
            await t.start()
            first = asyncio.ensure_future(a.call(1, {"n": 1}))
            second = asyncio.ensure_future(a.call(1, {"n": 2}))
            await asyncio.wait_for(second, 1)
            overlapped = not first.done()
            release.set()
            await asyncio.wait_for(first, 1)
            await t.close()
            return overlapped, log

        overlapped, log = run(scenario())
        assert overlapped
        assert log == [("start", 1), ("start", 2), ("end", 2), ("end", 1)]


class TestPolicyAndDedup:
    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)

    def test_dedup_cache_fifo_eviction(self):
        cache = DedupCache(capacity=3)
        assert not cache.seen("a")
        assert not cache.seen("b")
        assert not cache.seen("c")
        assert cache.seen("a")
        assert not cache.seen("d")  # evicts "a" (oldest)
        assert "a" not in cache
        assert not cache.seen("a")
        assert len(cache) == 3

    def test_dedup_cache_capacity_validation(self):
        with pytest.raises(ValueError):
            DedupCache(capacity=0)
