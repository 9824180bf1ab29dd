"""The wire path's task-free machinery: eager starts, posts, one timer.

* :func:`repro.net.rpc.eager` runs a coroutine up to its first
  suspension: a served request or a spawned daemon step that never waits
  costs no task, and one that does finishes in a task as before.
* :meth:`RpcEndpoint.post` sends with :meth:`~RpcEndpoint.call`'s retries
  and RTT rules and waits for nothing.
* :class:`repro.net.rpc.Deadlines` holds every reply deadline and backoff
  of an endpoint (and every timeout of a daemon) on one loop timer.
* the transports' delay pump arms one timer for its head frame.

Everything runs on the virtual-time loop, so each deadline is checked at
its exact instant.
"""

import asyncio
import gc
import warnings

from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.net.measurement import PROBE_RETRY
from repro.net.rpc import RetryPolicy, RpcEndpoint, RpcFailure, eager
from repro.net.transport import LoopbackTransport, _DelayPump
from repro.sim import vtime


def _count_tasks(loop):
    """Install a task factory that records every task the loop makes
    (remove it before the run ends: shutting the loop down makes one)."""
    made = []

    def factory(loop, coro, **kwargs):
        made.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(factory)
    return made


def _live_deadlines(endpoint):
    return [entry for entry in endpoint._deadlines._heap if entry[2] is not None]


def _small_cluster():
    return LiveCluster(
        ClusterConfig(
            n_peers=4, n_functions=3, seed=1, measurement=MeasurementConfig(enabled=False)
        )
    )


async def _never(src, body):
    await asyncio.Event().wait()


# ----------------------------------------------------------------------
# eager starts
# ----------------------------------------------------------------------
def test_a_coroutine_that_never_suspends_runs_now_and_makes_no_task():
    async def add(a, b):
        return a + b

    async def boom():
        raise ValueError("no")

    async def main():
        made = _count_tasks(asyncio.get_running_loop())
        task, value = eager(add(2, 3))
        try:
            eager(boom())
        except ValueError as exc:
            raised = str(exc)
        asyncio.get_running_loop().set_task_factory(None)
        return task, value, raised, made

    task, value, raised, made = vtime.run(main())
    assert (task, value, raised) == (None, 5, "no")
    assert made == []


def test_a_coroutine_that_suspends_finishes_in_a_task_with_the_same_result():
    async def main():
        loop = asyncio.get_running_loop()
        log = []

        async def twice(fut):
            log.append("before")  # runs inside eager(), synchronously
            value = await fut
            log.append("after")
            return 2 * value

        fut = loop.create_future()
        task, value = eager(twice(fut))
        started = list(log)
        loop.call_later(1.0, fut.set_result, 21)
        result = await task

        # a task cancelled before its first step still reaches the
        # coroutine: the future it waits on is cancelled and its finally runs
        cleaned = []

        async def guarded(fut):
            try:
                await fut
            finally:
                cleaned.append(True)

        waited_on = loop.create_future()
        cancelled, _ = eager(guarded(waited_on))
        cancelled.cancel()
        await asyncio.gather(cancelled, return_exceptions=True)
        return value, started, result, log, cleaned, waited_on.cancelled()

    value, started, result, log, cleaned, fut_cancelled = vtime.run(main())
    assert value is None and started == ["before"]
    assert result == 42 and log == ["before", "after"]
    assert cleaned == [True] and fut_cancelled


def test_a_served_request_that_does_not_suspend_is_answered_without_a_task():
    async def main():
        t = LoopbackTransport()
        a, b = RpcEndpoint(t, 0), RpcEndpoint(t, 1)

        async def echo(src, msg):
            return {"seq": msg.seq}

        async def broken(src, msg):
            raise ValueError("handler bug")

        b.on(codec.MaintenancePing, echo)
        b.on(codec.ReplicaInvalidate, broken)
        await t.start()
        made = _count_tasks(asyncio.get_running_loop())
        replies = [
            await a.call(1, codec.MaintenancePing(0, 7)),
            await a.call(1, codec.ReplicaInvalidate("f")),
        ]
        asyncio.get_running_loop().set_task_factory(None)
        await t.close()
        return replies, made

    replies, made = vtime.run(main())
    assert replies == [{"seq": 7}, {"error": "ValueError: handler bug"}]
    assert made == []


def test_a_spawned_step_runs_next_turn_eagerly_and_its_error_is_the_daemons():
    async def main():
        cluster = _small_cluster()
        daemon = cluster.daemons[0]
        made = _count_tasks(asyncio.get_running_loop())
        log = []

        async def step():
            log.append("ran")

        async def boom():
            raise RuntimeError("step bug")

        daemon._spawn(step())
        daemon._spawn(boom())
        first = list(log)  # _spawn defers the first step, as create_task does
        await asyncio.sleep(0)
        asyncio.get_running_loop().set_task_factory(None)
        return first, log, daemon.errors, made

    first, log, errors, made = vtime.run(main())
    assert first == [] and log == ["ran"]
    assert errors == ["RuntimeError: step bug"]
    assert made == []


# ----------------------------------------------------------------------
# post: call's retry engine, nothing awaited
# ----------------------------------------------------------------------
def test_a_post_makes_retries_plus_one_attempts_then_reports_once():
    policy = RetryPolicy(timeout=0.5, retries=2, backoff=0.05)

    async def main():
        t = LoopbackTransport()
        a, b = RpcEndpoint(t, 0, retry=policy), RpcEndpoint(t, 1)
        b.on(codec.MaintenancePing, _never)
        failures, lost = [], []
        a.on_failure = failures.append
        await t.start()
        msg = codec.MaintenancePing(0, 1)
        a.post(1, msg, lost.append)
        await asyncio.sleep(10.0)
        frames = t.frames_sent
        b.stop()
        await t.close()
        return frames, failures, lost, msg, dict(a._pending), _live_deadlines(a), dict(a._live)

    frames, failures, lost, msg, pending, deadlines, live = vtime.run(main())
    assert frames == 3
    assert failures == [
        RpcFailure(peer=1, method="MaintenancePing", attempts=3, error="no reply within 0.5s")
    ]
    assert lost == [msg]
    assert pending == {} and deadlines == [] and live == {}


def test_a_post_to_a_peer_known_down_fails_fast_without_a_frame():
    async def main():
        t = LoopbackTransport()
        a, b = RpcEndpoint(t, 0), RpcEndpoint(t, 1)
        b.on(codec.MaintenancePing, _never)
        a.peer_down = lambda dst: True
        failures, lost = [], []
        a.on_failure = failures.append
        await t.start()
        a.post(1, codec.MaintenancePing(0, 1), lost.append)
        now = asyncio.get_running_loop().time()
        frames = t.frames_sent
        await t.close()
        return frames, failures, len(lost), now, dict(a._pending), _live_deadlines(a)

    frames, failures, lost, now, pending, deadlines = vtime.run(main())
    assert frames == 0 and lost == 1 and now == 0.0
    assert failures == [
        RpcFailure(peer=1, method="MaintenancePing", attempts=0, error="peer 1 marked down")
    ]
    assert pending == {} and deadlines == []


def test_a_post_samples_the_rtt_of_its_first_attempt_only():
    async def main():
        t = LoopbackTransport(latency=0.01)
        a, b = RpcEndpoint(t, 0), RpcEndpoint(t, 1)
        answered = []

        async def echo(src, msg):
            answered.append(msg.seq)
            return {"seq": msg.seq}

        b.on(codec.MaintenancePing, echo)
        send, lost = t.send, []

        async def lose_the_first_copy_of_2(src, dst, envelope):
            if envelope["kind"] == "req" and envelope["body"].seq == 2 and not lost:
                lost.append(envelope["id"])
                return False
            return await send(src, dst, envelope)

        t.send = lose_the_first_copy_of_2
        samples = []
        a.on_rtt = lambda dst, rtt, method: samples.append((dst, round(rtt, 9), method))
        await t.start()
        a.post(1, codec.MaintenancePing(0, 1))
        await asyncio.sleep(1.0)
        a.post(1, codec.MaintenancePing(0, 2))
        await asyncio.sleep(5.0)
        await t.close()
        return samples, answered, a.retries_performed

    samples, answered, retries = vtime.run(main())
    # the retried exchange's round trip is ambiguous: no sample
    assert answered == [1, 2] and retries == 1
    assert samples == [(1, 0.02, "MaintenancePing")]


# ----------------------------------------------------------------------
# one deadline timer per endpoint
# ----------------------------------------------------------------------
def test_short_and_long_deadlines_on_one_endpoint_each_expire_on_time():
    """PROBE_RETRY's 0.25 s and a 1.0 s timeout, interleaved: the short
    ones must not wait behind the long one armed before them."""
    long = RetryPolicy(timeout=1.0, retries=0)

    async def main():
        loop = asyncio.get_running_loop()
        t = LoopbackTransport()
        a, b = RpcEndpoint(t, 0), RpcEndpoint(t, 1)
        b.on(codec.MaintenancePing, _never)
        expired = []
        a.on_failure = lambda failure: expired.append((failure.error, loop.time()))
        await t.start()
        calls = []
        for seq, (start, policy) in enumerate(
            [(0.0, long), (0.1, PROBE_RETRY), (0.2, long), (0.3, PROBE_RETRY)]
        ):
            await asyncio.sleep(start - loop.time())
            calls.append(
                asyncio.ensure_future(
                    a.call(1, codec.MaintenancePing(0, seq), retry=policy)
                )
            )
        await asyncio.gather(*calls, return_exceptions=True)
        b.stop()
        await t.close()
        return expired

    expired = vtime.run(main())
    assert [(error, round(at, 9)) for error, at in expired] == [
        ("no reply within 0.25s", 0.35),
        ("no reply within 0.25s", 0.55),
        ("no reply within 1.0s", 1.0),
        ("no reply within 1.0s", 1.2),
    ]


# ----------------------------------------------------------------------
# the delay pump: one timer for the head frame
# ----------------------------------------------------------------------
def test_the_delay_pump_keeps_link_order_under_a_latency_that_varies():
    delays = iter([0.05, 0.01, 0.03, 0.005, 0.02])

    async def main():
        loop = asyncio.get_running_loop()
        got = []
        t = LoopbackTransport(latency=lambda src, dst: next(delays))
        t.register(0, lambda env: None)
        t.register(1, lambda env: got.append((env["n"], round(loop.time(), 9))))
        await t.start()
        for n in range(5):
            await t.send(0, 1, {"n": n})
            await asyncio.sleep(0.001)
        await asyncio.sleep(1.0)
        await t.close()
        return got

    got = vtime.run(main())
    # a frame never overtakes the one ahead of it: the short delays wait
    # behind the 50 ms one, then leave at once
    assert [n for n, _ in got] == [0, 1, 2, 3, 4]
    assert [at for _, at in got] == [0.05, 0.05, 0.05, 0.05, 0.05]


def test_a_stopped_pump_delivers_what_is_in_flight_and_takes_no_more():
    async def main():
        loop = asyncio.get_running_loop()
        got = []
        pump = _DelayPump(lambda item: got.append((item, round(loop.time(), 9))))
        pump.put(0.02, "a")
        pump.put(0.01, "b")
        pump.stop()
        pump.put(0.0, "late")
        await asyncio.sleep(0.1)
        return got

    assert vtime.run(main()) == [("a", 0.02), ("b", 0.02)]


# ----------------------------------------------------------------------
# teardown
# ----------------------------------------------------------------------
def test_stop_closes_every_spawned_coroutine_that_did_not_finish():
    async def main():
        cluster = _small_cluster()
        daemon = cluster.daemons[0]
        closed = []

        async def waits():
            try:
                await asyncio.Event().wait()
            finally:
                closed.append("started")

        async def never_started():
            closed.append("ran")  # pragma: no cover - stop() comes first

        daemon._spawn(waits())
        await asyncio.sleep(0)  # waits() runs up to its await, then is a task
        suspended = len(daemon._tasks)
        daemon._spawn(never_started())  # its first step is still queued
        daemon.stop()
        await daemon.drain()
        return suspended, closed, daemon._tasks, daemon._unstarted

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        suspended, closed, tasks, unstarted = vtime.run(main())
        gc.collect()
    assert suspended == 1 and closed == ["started"]
    assert tasks == set() and unstarted == {}
    assert not [w for w in caught if "never awaited" in str(w.message)]


def test_stop_drops_posts_and_fails_calls_in_flight():
    async def main():
        t = LoopbackTransport()
        a, b = RpcEndpoint(t, 0, retry=RetryPolicy(timeout=5.0, retries=3)), RpcEndpoint(t, 1)
        b.on(codec.MaintenancePing, _never)
        lost = []
        await t.start()
        a.post(1, codec.MaintenancePing(0, 1), lost.append)
        call = asyncio.ensure_future(a.call(1, codec.MaintenancePing(0, 2)))
        await asyncio.sleep(1.0)
        a.stop()
        outcome = await asyncio.gather(call, return_exceptions=True)
        await asyncio.sleep(30.0)  # nothing left to retry
        frames = t.frames_sent
        b.stop()
        await t.close()
        return lost, outcome, frames, dict(a._pending), dict(a._live), a._posts

    lost, (outcome,), frames, pending, live, posts = vtime.run(main())
    assert lost == [] and "stopped" in str(outcome)
    assert frames == 2 and pending == {} and live == {} and posts == 0
