"""Request/response messaging with retries, backoff and idempotent dedup.

Every protocol exchange in the live runtime is an acked RPC: the sender
retries on timeout with exponential backoff + seeded jitter, and the
receiver deduplicates by ``(src, incarnation, msg_id)`` — a retried
request re-sends the cached reply instead of re-invoking the handler, so
handlers observe each logical message exactly once.  (Application-level
dedup — probes keyed on :meth:`Probe.dedup_key` — sits one layer up in
:class:`~repro.net.peer.PeerDaemon`, kept per request while the request
holds tokens there.)

The *incarnation* is a per-process nonce carried in every request
envelope (``"inc"``) and echoed in its response.  The ``msg_id`` counter
restarts from 1 when an endpoint restarts, so without the nonce a reborn peer
reusing ``msg_id`` values would be served stale cached replies recorded
for its previous life; responses bearing a foreign incarnation are
likewise dropped instead of resolving the wrong in-flight call.

A cached reply lives about as long as its exchange.  Every request also
carries the sender's *low-water mark* (``"lw"``): the oldest ``msg_id``
it still has live to that receiver, so every exchange below it has ended
(replied, failed or abandoned) and will never be sent again.  A lower
mark is always safe, which is why the wire may round it down.  The
receiver keeps one book per ``(src, incarnation)``: the highest mark
seen, and the replies at or above it.  A reply is dropped as soon as a
later request from its sender carries a mark past its id; a request
below the mark is dropped with no reply and no handler run, and a
handler that finishes after the mark passed its id caches nothing.  For
a sender that goes quiet, whose mark no longer moves, ``reply_ttl``
(seconds) and ``reply_cache`` (entries, across books) remain the
backstop; a book whose last entry goes is deleted.
"""

from __future__ import annotations

import asyncio
import collections.abc
import heapq
import itertools
import math
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import (
    Any, Awaitable, Callable, Coroutine, Dict, List, Optional, Set, Tuple, Type,
)

from ..sim.rng import as_generator
from .transport import TransportError
from ..sim.vtime import loop_time

__all__ = [
    "RpcError",
    "RpcTimeout",
    "RpcFailure",
    "RetryPolicy",
    "RpcEndpoint",
    "Deadlines",
    "eager",
]


class RpcError(RuntimeError):
    """A call failed for a non-timeout reason (e.g. remote handler error)."""


class RpcTimeout(RpcError):
    """All attempts of a call timed out or found the peer unreachable."""


@dataclass(frozen=True)
class RpcFailure:
    """Structured record of a call that exhausted its retries.

    Emitted through :attr:`RpcEndpoint.on_failure` just before the
    :class:`RpcTimeout` raises, so failure scenarios (dead peers, lossy
    links) are inspectable as data — per destination peer, message type
    and attempt count — rather than only as stringified exceptions."""

    peer: int  # destination peer id
    method: str  # message class name
    attempts: int
    error: str


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries: ``retries`` re-sends after the first attempt, each
    preceded by ``backoff * factor**(attempt-1)`` seconds of sleep, scaled
    by up to ``1 + jitter`` (uniform, from the endpoint's seeded RNG)."""

    timeout: float = 2.0
    retries: int = 3
    backoff: float = 0.05
    factor: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout <= 0 or self.retries < 0:
            raise ValueError("timeout must be > 0 and retries >= 0")
        if self.backoff < 0 or self.factor < 1.0 or self.jitter < 0:
            raise ValueError("need backoff >= 0, factor >= 1, jitter >= 0")


_INFLIGHT = object()  # reply-cache sentinel: handler still running


class _Book:
    """What one sender life ``(src, incarnation)`` may still ask again: the
    highest low-water mark it has sent, and its replies at or above it,
    ``msg_id -> (expires_at | None, reply)`` in arrival order."""

    __slots__ = ("lw", "replies")

    def __init__(self) -> None:
        self.lw = 0
        self.replies: Dict[int, Tuple[Optional[float], Any]] = {}


def eager(coro: Coroutine) -> Tuple[Optional[asyncio.Task], Any]:
    """Run ``coro`` now, up to its first suspension.

    ``(None, value)`` when it finished without suspending (an exception it
    raised propagates here); ``(task, None)`` when it suspended, the task
    driving the rest.  A step that cannot suspend — a loopback send, a
    handler with nothing to wait for — so costs no task and no loop turn.
    Python 3.12's ``eager_task_factory`` does this loop-wide; this does it
    for one coroutine, on any Python and under any task factory."""
    try:
        yielded = coro.send(None)
    except StopIteration as done:
        return None, done.value
    return asyncio.get_running_loop().create_task(_Rest(coro, yielded)), None


_RESUMED = object()


class _Rest(collections.abc.Coroutine):
    """The rest of an eagerly started coroutine, as the coroutine its task
    drives.  The task's first step gets what the coroutine yielded when it
    suspended; each later step goes into the coroutine.  A task cancelled
    before its first step cancels that yielded future, as it would have
    had it been awaiting it all along, so what the coroutine waits on
    (a ``gather``'s children) is cancelled with it."""

    __slots__ = ("_coro", "_yielded")

    def __init__(self, coro: Coroutine, yielded: Any) -> None:
        self._coro = coro
        self._yielded = yielded

    def send(self, value):
        yielded = self._yielded
        if yielded is _RESUMED:
            return self._coro.send(value)
        self._yielded = _RESUMED
        return yielded

    def throw(self, *exc):
        yielded, self._yielded = self._yielded, _RESUMED
        if asyncio.isfuture(yielded):
            yielded.cancel()
        try:
            return self._coro.throw(*exc)
        finally:
            exc = yielded = None  # the raised error's traceback holds this frame

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class Deadlines:
    """Many deadlines on one loop timer.

    A heap of ``[due, seq, fn, args]`` entries with the loop's timer armed
    at the earliest; when it fires, every entry due by then runs in
    ``(due, seq)`` order — ties in the order they were added — and the
    timer is re-armed at the next.  Cancelling only marks an entry: it
    leaves the heap when it reaches the head, or when dead entries
    outnumber live ones.  A deadline that is usually cancelled (an RPC
    attempt's, a soft token's) thus costs a heap push, not a timer."""

    __slots__ = ("_heap", "_seq", "_timer", "_armed", "_dead")

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed = math.inf  # when the timer fires; -inf while it runs
        self._dead = 0

    def add(self, due: float, fn: Callable, *args) -> list:
        entry = [due, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        if due < self._armed:
            self._arm(due)
        return entry

    def cancel(self, entry: list) -> None:
        if entry[2] is None:
            return  # already run or cancelled
        # the args go with the callback: an entry its owner still holds
        # (an exchange's own deadline) must not hold the owner back
        entry[2] = entry[3] = None
        self._dead += 1
        heap = self._heap
        if self._dead > 64 and self._dead * 2 > len(heap):
            heap[:] = [e for e in heap if e[2] is not None]
            heapq.heapify(heap)
            self._dead = 0

    def close(self) -> None:
        """Drop every deadline, run none."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._heap.clear()
        self._armed = math.inf
        self._dead = 0

    def _arm(self, due: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._armed = due
        self._timer = asyncio.get_running_loop().call_at(due, self._fire)

    def _fire(self) -> None:
        # whatever was due when the loop ran the timer is due now, even if
        # the loop ran it a clock tick early
        now = max(self._armed, asyncio.get_running_loop().time())
        self._timer = None
        self._armed = -math.inf  # an add() from a callback arms nothing: below does
        heap = self._heap
        try:
            while heap and (heap[0][2] is None or heap[0][0] <= now):
                entry = heapq.heappop(heap)
                fn, args = entry[2], entry[3]
                if fn is None:
                    self._dead -= 1
                else:
                    entry[2] = entry[3] = None
                    fn(*args)
        finally:
            self._armed = math.inf
            if heap:
                self._arm(heap[0][0])


def _resolve(sent: Optional[asyncio.Future]) -> None:
    """Tell a sender its frame has left (or never will)."""
    if sent is not None and not sent.done():
        sent.set_result(None)


class _Exchange:
    """One request in flight, from its first attempt to its reply or its
    last failure: what was sent, and how far it got."""

    __slots__ = (
        "dst", "msg_id", "message", "envelope", "policy", "ignore_down",
        "future", "on_failure", "sent", "attempts", "sent_at", "waited",
        "deadline", "error",
    )

    def __init__(
        self, dst, msg_id, message, envelope, policy, ignore_down, future, on_failure, sent
    ) -> None:
        self.dst = dst
        self.msg_id = msg_id
        self.message = message
        self.envelope = envelope
        self.policy = policy
        self.ignore_down = ignore_down
        self.future = future  # a call's caller waits on it; a post has none
        self.on_failure = on_failure
        self.sent = sent
        self.attempts = 0
        self.sent_at = 0.0
        self.waited = False
        self.deadline: Optional[list] = None  # the reply's, or the backoff's
        self.error = "timeout"


class RpcEndpoint:
    """One peer's message port: typed handlers + outbound calls.

    Handlers are registered per message *class* (``endpoint.on(ProbeTransfer,
    fn)``) and return the reply payload (a JSON-able dict, possibly with
    typed values) or ``None`` for a bare ack.  A handler runs as soon as
    its frame is delivered, and one that does not suspend is answered in
    the same turn: only a handler (or a reply send) that waits becomes a
    task.

    Outbound, every exchange runs on one retry engine driven by
    callbacks — the transport's send, the reply, and the endpoint's one
    :class:`Deadlines` timer for every reply deadline and backoff.
    :meth:`call` awaits the reply; :meth:`post` sends and returns, for a
    frame whose reply says nothing the sender needs.
    """

    def __init__(
        self,
        transport,
        peer_id: int,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        reply_cache: int = 8192,
        reply_ttl: float = 120.0,
        clock: Optional[Callable[[], float]] = None,
        incarnation: Optional[str] = None,
    ) -> None:
        self.transport = transport
        self.peer_id = peer_id
        self.retry = retry or RetryPolicy()
        if reply_ttl <= 0:
            raise ValueError("reply_ttl must be positive")
        # the per-process nonce: a restarted endpoint gets a fresh one,
        # so its msg_id counter restarting from 1 cannot collide with
        # reply-cache entries recorded for the previous incarnation
        self.incarnation = incarnation if incarnation is not None else uuid.uuid4().hex[:16]
        self.reply_ttl = reply_ttl
        self._clock = clock if clock is not None else loop_time
        self._rng = as_generator(seed)
        self._ids = itertools.count(1)
        # msg_id -> the exchange whose attempt awaits that reply
        self._pending: Dict[int, _Exchange] = {}
        # every exchange not yet over, by destination: dst -> msg_id ->
        # exchange, oldest first, so the first msg_id is the low-water mark
        # each request to dst carries
        self._live: Dict[int, Dict[int, _Exchange]] = {}
        self._posts = 0  # how many of them are posts
        self._idle: Optional[asyncio.Future] = None  # drain()'s wait for _posts == 0
        self._deadlines = Deadlines()
        self._handlers: Dict[Type, Callable[[int, Any], Awaitable[Optional[dict]]]] = {}
        # (src, incarnation) -> its _Book, the least recently written first
        self._books: "OrderedDict[tuple, _Book]" = OrderedDict()
        self._cached = 0  # entries in all books
        self._reply_cache = reply_cache
        # requests being served and sends that suspended (a dial, backpressure)
        self._tasks: Set[asyncio.Task] = set()
        self.calls_sent = 0
        self.retries_performed = 0
        self.envelopes_rejected = 0  # inbound envelopes that were not a req/res
        # measurement hooks (assigned by the daemon, never required):
        # on_rtt(dst, rtt_seconds, method_name) fires for first-attempt
        # successes only — Karn's algorithm: a retransmitted exchange's
        # RTT is ambiguous, so retried calls are never sampled.  Nor is a
        # call whose send waited for a dial or on backpressure: that wait
        # is the connection's, not the link's (samples_discarded counts
        # those instead).
        # on_failure(RpcFailure) fires once per call that exhausts its
        # retries, just before RpcTimeout raises.
        self.on_rtt: Optional[Callable[[int, float, str], None]] = None
        self.on_failure: Optional[Callable[[RpcFailure], None]] = None
        self.samples_discarded = 0
        # fail-fast hook (assigned by the daemon, never required):
        # peer_down(dst) -> True aborts a call's remaining attempts
        # immediately instead of burning the full retry/timeout budget
        # against a peer already known to be dead.  The call still fails
        # with the same structured RpcFailure/RpcTimeout pair; only the
        # wasted wait disappears.  Callers that *measure* liveness pass
        # ignore_down=True (recovery probes must reach a marked-down
        # peer, or the path could never be marked back up).
        self.peer_down: Optional[Callable[[int], bool]] = None
        transport.register(peer_id, self._on_envelope)

    def on(self, msg_type: Type, handler: Callable[[int, Any], Awaitable[Optional[dict]]]) -> None:
        self._handlers[msg_type] = handler

    def stop(self) -> None:
        """End everything in flight: a post is dropped, a call fails with
        :class:`RpcError`, and a request still being served is cancelled."""
        for x in [x for live in self._live.values() for x in live.values()]:
            self._abandon(x)
            if x.future is not None and not x.future.done():
                x.future.set_exception(RpcError(f"endpoint {self.peer_id} stopped"))
        self._deadlines.close()
        for task in list(self._tasks):
            task.cancel()

    async def drain(self) -> None:
        """Await every request still being served and every post still in
        flight (until its reply, its last failure or :meth:`stop`)."""
        while self._tasks or self._posts:
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            elif self._posts:
                self._idle = asyncio.get_running_loop().create_future()
                await self._idle

    # ------------------------------------------------------------------
    # outbound
    # ------------------------------------------------------------------
    async def call(
        self,
        dst: int,
        message: Any,
        retry: Optional[RetryPolicy] = None,
        ignore_down: bool = False,
        sent: Optional[asyncio.Future] = None,
    ) -> dict:
        """Send ``message`` to ``dst`` and await its reply payload.

        ``ignore_down=True`` bypasses the :attr:`peer_down` fail-fast
        check — for callers whose whole job is to discover that a
        marked-down peer came back (the measurement plane's recovery
        probes).  ``sent``, if given, resolves once the first attempt's
        frame is with the transport (a dial included), or once that
        attempt or the call fails: a caller can queue a later frame behind
        this one without waiting for the reply."""
        future = asyncio.get_running_loop().create_future()
        x = self._start(dst, message, retry or self.retry, ignore_down, future, None, sent)
        try:
            return await future
        finally:
            self._abandon(x)  # cancelled: no retry, no deadline, no entry left
            # a raised error's traceback holds this frame, and the future
            # holds the error: drop both ends of that cycle here
            future = x = None

    def post(
        self,
        dst: int,
        message: Any,
        on_failure: Optional[Callable[[Any], None]] = None,
        sent: Optional[asyncio.Future] = None,
    ) -> None:
        """Send ``message`` to ``dst`` with :meth:`call`'s retries and RTT
        sampling, and return without waiting for anything: the reply is
        dropped, and ``on_failure(message)`` runs once if the retries run
        out (after :attr:`on_failure` has the :class:`RpcFailure`).
        ``sent`` is :meth:`call`'s."""
        self._start(dst, message, self.retry, False, None, on_failure, sent)

    def _start(self, dst, message, policy, ignore_down, future, on_failure, sent) -> _Exchange:
        msg_id = next(self._ids)
        # note there is no "dst" field: the transport connection already
        # identifies the receiver, so carrying it would be dead bytes on
        # every frame (receivers never read it); "lw" is set per attempt
        envelope = {
            "kind": "req",
            "id": msg_id,
            "src": self.peer_id,
            "inc": self.incarnation,
            "body": message,
        }
        self.calls_sent += 1
        x = _Exchange(dst, msg_id, message, envelope, policy, ignore_down, future, on_failure, sent)
        live = self._live.get(dst)
        if live is None:
            live = self._live[dst] = {}
        live[msg_id] = x
        if future is None:
            self._posts += 1
        if self._down(x):
            self._fail(x)
        else:
            self._attempt(x)
        return x

    def _down(self, x: _Exchange) -> bool:
        if x.ignore_down or self.peer_down is None or not self.peer_down(x.dst):
            return False
        # the peer is already known dead: abort the remaining attempts
        # instead of waiting out their timeouts — the caller gets the same
        # structured failure, minus the burn
        x.error = f"peer {x.dst} marked down"
        return True

    def _attempt(self, x: _Exchange) -> None:
        x.deadline = None
        x.attempts += 1
        self._pending[x.msg_id] = x
        # a retransmission tells of every exchange that ended meanwhile
        x.envelope["lw"] = next(iter(self._live[x.dst]))
        # the sample window opens before send(): queueing and coalescing
        # delays are genuine sojourn time the next caller will also pay
        x.sent_at = asyncio.get_running_loop().time()
        try:
            task, waited = eager(self.transport.send(self.peer_id, x.dst, x.envelope))
        except TransportError as exc:
            self._sent(x, False, str(exc))
            return
        except BaseException:
            self._abandon(x)
            raise
        if task is None:
            self._sent(x, waited)
        else:
            if x.attempts == 1:
                # a send that suspends waits for the network (a dial,
                # backpressure) — known now, before any reply can land
                x.waited = True
            self._track(task)
            task.add_done_callback(partial(self._send_done, x))

    def _send_done(self, x: _Exchange, task: asyncio.Task) -> None:
        if task.cancelled():
            self._sent(x, True, "send cancelled")
        elif task.exception() is not None:
            self._sent(x, True, str(task.exception()))
        else:
            self._sent(x, task.result())

    def _sent(self, x: _Exchange, waited: bool, error: Optional[str] = None) -> None:
        """The attempt's frame is with the transport, or (``error``) never
        will be."""
        _resolve(x.sent)
        if x.msg_id not in self._live.get(x.dst, ()):
            return  # answered or abandoned while the send waited
        if x.attempts == 1:
            # a dial or a paused connection is not the link's wait: the
            # next caller finds the connection open
            x.waited = waited
        if error is None:
            x.deadline = self._deadlines.add(
                asyncio.get_running_loop().time() + x.policy.timeout, self._timed_out, x
            )
        else:
            del self._pending[x.msg_id]
            self._retry(x, error)

    def _timed_out(self, x: _Exchange) -> None:
        del self._pending[x.msg_id]
        self._retry(x, f"no reply within {x.policy.timeout}s")

    def _retry(self, x: _Exchange, error: str) -> None:
        x.error = error
        policy = x.policy
        if x.attempts > policy.retries or self._down(x):
            self._fail(x)
            return
        self.retries_performed += 1
        delay = policy.backoff * policy.factor ** (x.attempts - 1)
        delay *= 1.0 + policy.jitter * float(self._rng.random())
        x.deadline = self._deadlines.add(
            asyncio.get_running_loop().time() + delay, self._attempt, x
        )

    def _replied(self, x: _Exchange, body: Any) -> None:
        del self._pending[x.msg_id]
        self._end(x)
        if x.deadline is not None:
            self._deadlines.cancel(x.deadline)
        if x.attempts == 1 and self.on_rtt is not None:
            if x.waited:
                self.samples_discarded += 1
            else:
                self.on_rtt(
                    x.dst,
                    asyncio.get_running_loop().time() - x.sent_at,
                    type(x.message).__name__,
                )
        if x.future is not None and not x.future.done():
            x.future.set_result(body)

    def _fail(self, x: _Exchange) -> None:
        self._end(x)
        _resolve(x.sent)
        method = type(x.message).__name__
        if self.on_failure is not None:
            self.on_failure(
                RpcFailure(peer=x.dst, method=method, attempts=x.attempts, error=x.error)
            )
        if x.future is not None:
            if not x.future.done():
                x.future.set_exception(
                    RpcTimeout(
                        f"{method} {self.peer_id}->{x.dst} failed after "
                        f"{x.attempts} attempts: {x.error}"
                    )
                )
        elif x.on_failure is not None:
            x.on_failure(x.message)

    def _abandon(self, x: _Exchange) -> None:
        """End ``x`` with no outcome: nothing more is sent or reported."""
        if x.msg_id not in self._live.get(x.dst, ()):
            return
        self._end(x)
        _resolve(x.sent)
        if self._pending.get(x.msg_id) is x:
            del self._pending[x.msg_id]
        if x.deadline is not None:
            self._deadlines.cancel(x.deadline)

    def _end(self, x: _Exchange) -> None:
        live = self._live[x.dst]
        del live[x.msg_id]
        if not live:
            del self._live[x.dst]
        if x.future is None:
            self._posts -= 1
            if not self._posts and self._idle is not None:
                if not self._idle.done():
                    self._idle.set_result(None)
                self._idle = None

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_envelope(self, envelope: dict) -> None:
        """The transport's handler, called synchronously once per frame: a
        reply resolves its exchange on the spot, a request's handler runs
        on the spot — so two requests from one sender *start* in order,
        but the second may start before the first finishes."""
        get = envelope.get if isinstance(envelope, dict) else {}.get
        kind, msg_id, inc, src = get("kind"), get("id"), get("inc"), get("src")
        lw = get("lw")
        if (
            (kind != "req" and kind != "res")
            or not isinstance(msg_id, int)
            or not (inc is None or isinstance(inc, str))
            or (kind == "req" and not isinstance(src, int))
            or not (lw is None or isinstance(lw, int))
        ):
            self.envelopes_rejected += 1  # malformed or unknown: dropped, not fatal
            return
        if kind == "res":
            if inc is not None and inc != self.incarnation:
                return  # a reply addressed to a previous life of this peer
            x = self._pending.get(msg_id)
            if x is not None:
                self._replied(x, get("body"))
            return
        life = (src, inc)
        book = self._books.get(life)
        if book is None:
            book = self._books[life] = _Book()
        if lw is not None and lw > book.lw:
            self._trim(book, lw)
        if msg_id < book.lw:
            # the sender has ended this exchange: nobody waits for a reply
            if not book.replies:
                del self._books[life]
            return
        replies = book.replies
        key = (src, inc, msg_id)
        cached = replies.get(msg_id)
        if cached is not None:
            expires, value = cached
            if value is _INFLIGHT:
                return  # duplicate while the first delivery is still processing
            if expires > self._clock():
                self._serve(self._respond(key, value))
                return
            del replies[msg_id]  # aged out: served as new
            self._cached -= 1
        # in-flight markers never expire on their own: the handler's
        # completion always overwrites them with the real (TTL'd) reply
        replies[msg_id] = (None, _INFLIGHT)
        self._cached += 1
        self._serve(self._handle(key, get("body")))

    def _trim(self, book: _Book, lw: int) -> None:
        """Raise ``book``'s mark to ``lw`` and drop the replies below it."""
        book.lw = lw
        replies = book.replies
        while replies:
            msg_id = next(iter(replies))
            if msg_id >= lw:
                break
            del replies[msg_id]
            self._cached -= 1

    def _serve(self, coro: Coroutine) -> None:
        task, _ = eager(coro)
        if task is not None:
            self._track(task)

    async def _handle(self, key: tuple, body: Any) -> None:
        handler = self._handlers.get(type(body))
        if handler is None:
            reply: dict = {"error": f"no handler for {type(body).__name__}"}
        else:
            try:
                reply = await handler(key[0], body) or {"ok": True}
            except Exception as exc:  # a handler bug must not kill the daemon
                reply = {"error": f"{type(exc).__name__}: {exc}"}
        self._cache_reply(key, reply)
        await self._respond(key, reply)

    def _cache_reply(self, key: tuple, value: Any) -> None:
        src, inc, msg_id = key
        life = (src, inc)
        book = self._books.get(life)
        if book is None or msg_id < book.lw or msg_id not in book.replies:
            return  # the sender ended the exchange (or the backstop took its marker)
        now = self._clock()
        book.replies[msg_id] = (now + self.reply_ttl, value)
        self._books.move_to_end(life)
        self._sweep(now)

    def _sweep(self, now: float) -> None:
        """The backstop for a sender gone quiet, whose mark no longer moves:
        from the least recently written book on, drop the replies past
        ``reply_ttl`` and the oldest past ``reply_cache``; a book goes with
        its last entry."""
        books = self._books
        while books:
            life = next(iter(books))
            replies = books[life].replies
            while replies:
                msg_id = next(iter(replies))
                expires = replies[msg_id][0]
                if self._cached <= self._reply_cache and (expires is None or expires > now):
                    return
                del replies[msg_id]
                self._cached -= 1
            del books[life]

    async def _respond(self, key: tuple, body: Any) -> None:
        dst, req_inc, msg_id = key
        envelope = {"kind": "res", "id": msg_id, "src": self.peer_id, "body": body}
        if req_inc is not None:
            envelope["inc"] = req_inc  # echo the requester's incarnation
        try:
            await self.transport.send(self.peer_id, dst, envelope)
        except TransportError:
            pass  # the caller's retry will re-request the cached reply
