"""Request/response messaging with retries, backoff and idempotent dedup.

Every protocol exchange in the live runtime is an acked RPC: the sender
retries on timeout with exponential backoff + seeded jitter, and the
receiver deduplicates by ``(src, incarnation, msg_id)`` — a retried
request re-sends the cached reply instead of re-invoking the handler, so
handlers observe each logical message exactly once.  (Application-level
dedup — probes keyed on :meth:`Probe.dedup_key` — sits one layer up in
:class:`~repro.net.peer.PeerDaemon`, backed by :class:`DedupCache`.)

The *incarnation* is a per-process nonce carried in every request
envelope (``"inc"``) and echoed in its response.  The ``msg_id`` counter
restarts from 1 when an endpoint restarts, so without the nonce a reborn peer
reusing ``msg_id`` values would be served stale cached replies recorded
for its previous life; responses bearing a foreign incarnation are
likewise dropped instead of resolving the wrong in-flight call.  Cached
replies additionally age out after ``reply_ttl`` seconds, so the cache
cannot serve arbitrarily old state even within one incarnation.
"""

from __future__ import annotations

import asyncio
import itertools
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional, Set, Tuple, Type

from ..sim.rng import as_generator
from .transport import TransportError
from ..sim.vtime import loop_time

__all__ = [
    "RpcError",
    "RpcTimeout",
    "RpcFailure",
    "RetryPolicy",
    "RpcEndpoint",
    "DedupCache",
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


class DedupCache:
    """A bounded seen-set with FIFO eviction (insertion order)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()

    def seen(self, key: Hashable) -> bool:
        """Record ``key``; True iff it was already present."""
        if key in self._seen:
            return True
        self._seen[key] = None
        if len(self._seen) > self.capacity:
            self._seen.popitem(last=False)
        return False

    def __contains__(self, key: Hashable) -> bool:
        return key in self._seen

    def __len__(self) -> int:
        return len(self._seen)


_INFLIGHT = object()  # reply-cache sentinel: handler still running


def _expire(future: asyncio.Future) -> None:
    """A call attempt's deadline: fail the wait unless the reply won."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


def _resolve(sent: Optional[asyncio.Future]) -> None:
    """Tell a ``call``'s caller its frame has left (or never will)."""
    if sent is not None and not sent.done():
        sent.set_result(None)


class RpcEndpoint:
    """One peer's message port: typed handlers + outbound calls.

    Handlers are registered per message *class* (``endpoint.on(ProbeTransfer,
    fn)``) and return the reply payload (a JSON-able dict, possibly with
    typed values) or ``None`` for a bare ack.
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
        self._pending: Dict[int, asyncio.Future] = {}
        self._handlers: Dict[Type, Callable[[int, Any], Awaitable[Optional[dict]]]] = {}
        # (src, incarnation, msg_id) -> (expires_at | None, reply)
        self._replies: "OrderedDict[tuple, Tuple[Optional[float], Any]]" = OrderedDict()
        self._reply_cache = reply_cache
        self._tasks: Set[asyncio.Task] = set()  # one per request being served
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
        try:
            return await self._call(dst, message, retry, ignore_down, sent)
        finally:
            _resolve(sent)

    async def _call(
        self,
        dst: int,
        message: Any,
        retry: Optional[RetryPolicy],
        ignore_down: bool,
        sent: Optional[asyncio.Future],
    ) -> dict:
        policy = retry or self.retry
        msg_id = next(self._ids)
        # note there is no "dst" field: the transport connection already
        # identifies the receiver, so carrying it would be dead bytes on
        # every frame (receivers never read it)
        envelope = {
            "kind": "req",
            "id": msg_id,
            "src": self.peer_id,
            "inc": self.incarnation,
            "body": message,
        }
        self.calls_sent += 1
        loop = asyncio.get_running_loop()
        last_error = "timeout"
        attempts = 0
        for attempt in range(policy.retries + 1):
            if (
                not ignore_down
                and self.peer_down is not None
                and self.peer_down(dst)
            ):
                # the peer is already known dead: abort the remaining
                # attempts instead of waiting out their timeouts — the
                # caller gets the same structured failure, minus the burn
                last_error = f"peer {dst} marked down"
                break
            if attempt:
                self.retries_performed += 1
                delay = policy.backoff * policy.factor ** (attempt - 1)
                delay *= 1.0 + policy.jitter * float(self._rng.random())
                await asyncio.sleep(delay)
            attempts += 1
            future: asyncio.Future = loop.create_future()
            self._pending[msg_id] = future
            sent_at = loop.time()
            deadline: Optional[asyncio.TimerHandle] = None
            try:
                try:
                    waited = await self.transport.send(self.peer_id, dst, envelope)
                finally:
                    _resolve(sent)
                deadline = loop.call_later(policy.timeout, _expire, future)
                reply = await future
            except TransportError as exc:
                last_error = str(exc)
            except asyncio.TimeoutError:
                last_error = f"no reply within {policy.timeout}s"
            else:
                if attempt == 0 and self.on_rtt is not None:
                    # the sample window opens before send(): queueing and
                    # coalescing delays are genuine sojourn time the next
                    # caller will also pay.  A dial or a paused connection
                    # is not — the next caller finds the connection open
                    if waited:
                        self.samples_discarded += 1
                    else:
                        self.on_rtt(
                            dst, loop.time() - sent_at, type(message).__name__
                        )
                return reply
            finally:
                if deadline is not None:
                    deadline.cancel()
                del self._pending[msg_id]
        if self.on_failure is not None:
            self.on_failure(
                RpcFailure(
                    peer=dst,
                    method=type(message).__name__,
                    attempts=attempts,
                    error=last_error,
                )
            )
        raise RpcTimeout(
            f"{type(message).__name__} {self.peer_id}->{dst} failed after "
            f"{attempts} attempts: {last_error}"
        )

    # ------------------------------------------------------------------
    # inbound
    # ------------------------------------------------------------------
    def _on_envelope(self, envelope: dict) -> None:
        """The transport's handler, called synchronously once per frame: a
        reply resolves its caller's future on the spot, a request gets one
        task (handler + reply) — so two requests from one sender *start*
        in order, but the second may start before the first finishes."""
        get = envelope.get if isinstance(envelope, dict) else {}.get
        kind, msg_id, inc, src = get("kind"), get("id"), get("inc"), get("src")
        if (
            (kind != "req" and kind != "res")
            or not isinstance(msg_id, int)
            or not (inc is None or isinstance(inc, str))
            or (kind == "req" and not isinstance(src, int))
        ):
            self.envelopes_rejected += 1  # malformed or unknown: dropped, not fatal
            return
        if kind == "res":
            if inc is not None and inc != self.incarnation:
                return  # a reply addressed to a previous life of this peer
            future = self._pending.get(msg_id)
            if future is not None and not future.done():
                future.set_result(get("body"))
            return
        key = (src, inc, msg_id)
        cached = self._cached_reply(key)
        if cached is _INFLIGHT:
            return  # duplicate while the first delivery is still processing
        if cached is not None:
            self._spawn(self._respond(key, cached))
        else:
            # in-flight markers never expire on their own: the handler's
            # completion always overwrites them with the real (TTL'd) reply
            self._replies[key] = (None, _INFLIGHT)
            self._spawn(self._handle(key, get("body")))

    def _spawn(self, coro: Awaitable) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

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

    def _cached_reply(self, key: tuple) -> Any:
        entry = self._replies.get(key)
        if entry is None:
            return None
        expires, value = entry
        if expires is not None and expires <= self._clock():
            del self._replies[key]
            return None
        return value

    def _cache_reply(self, key: tuple, value: Any) -> None:
        now = self._clock()
        replies = self._replies
        replies[key] = (now + self.reply_ttl, value)
        replies.move_to_end(key)
        while replies:  # TTL eviction from the stale end
            head_exp = next(iter(replies.values()))[0]
            if head_exp is None or head_exp > now:
                break
            replies.popitem(last=False)
        while len(replies) > self._reply_cache:
            replies.popitem(last=False)

    async def _respond(self, key: tuple, body: Any) -> None:
        dst, req_inc, msg_id = key
        envelope = {"kind": "res", "id": msg_id, "src": self.peer_id, "body": body}
        if req_inc is not None:
            envelope["inc"] = req_inc  # echo the requester's incarnation
        try:
            await self.transport.send(self.peer_id, dst, envelope)
        except TransportError:
            pass  # the caller's retry will re-request the cached reply
