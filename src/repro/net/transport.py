"""Datagram-style message transports for the live runtime.

Both transports move *frames* (see :mod:`.codec`) between numbered
peers.  Messages are serialized on every send and parsed on every
delivery — even in-process — so the loopback path exercises the exact
bytes a TCP deployment puts on the network.

* :class:`LoopbackTransport` — asyncio queues with injectable one-way
  latency and probabilistic loss; the deterministic substrate for tests
  and the sim-parity harness.
* :class:`TcpTransport` — :class:`asyncio.Protocol` objects on localhost
  (or any address book), one listener per hosted peer, a per-``(src,
  dst)`` outbound connection pool, and write backpressure through
  ``pause_writing``/``resume_writing``.

Delivery contract (both transports): a peer's handler is *called
synchronously*, once per envelope, in the order the frames of one link
arrived.  If the call returns a coroutine it is scheduled as a task —
so delivery is ordered, execution is not serial.  A handler that raises
costs that frame (``frames_dropped``), never the receive path.

Writes are coalesced: frames sent to one peer within an event-loop turn
leave in one write (TCP: one flusher task per transport; loopback: one
queue item), so a burst costs one syscall or wakeup.  Coalescing batches
*frames*, never messages: each logical message is still one frame,
counted once by the tap.  A TCP connection carries frames one way and
nothing else — a dial is ``create_connection``, and bytes arriving on
the dialled side abort it.

Failure model: sending to a *killed* peer is a silent drop (a packet
into the void) on loopback and a connection error on TCP; both surface
to callers as an RPC timeout, which is what drives the retry/backoff
path and, ultimately, credit-loss reporting to the destination.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union

from ..sim.rng import as_generator
from .codec import CodecError, FrameReader, decode_frame, encode_frame

__all__ = ["TransportError", "LoopbackTransport", "TcpTransport"]

# called synchronously per envelope; a coroutine result runs as a task
Handler = Callable[[dict], Optional[Awaitable[None]]]
# tap(direction, envelope, n_bytes) — see net.accounting.LedgerTap
Tap = Callable[[str, dict, int], None]

# a connection whose socket holds this many unsent bytes pauses its
# *senders* until the kernel drains it — per-connection backpressure
_HIGH_WATER = 256 * 1024


class TransportError(RuntimeError):
    """Raised when a frame cannot be handed to the network at all."""


class _DelayPump:
    """One link's delayed-dispatch pump — the shared latency-emulation
    engine of both transports.

    Items are enqueued with a due time (``now + one-way delay``) and
    handed to ``deliver`` in FIFO order once due: a burst entering the
    link back-to-back shares one delay instead of serializing N sleeps,
    and per-link ordering is preserved because due times on one pump are
    monotone.  ``stop()`` drains what is already in flight and then ends
    the task; cancelling the task abandons it immediately.
    """

    __slots__ = ("_deliver", "_queue")

    def __init__(self, deliver: Callable[[object], None]) -> None:
        self._deliver = deliver
        self._queue: asyncio.Queue = asyncio.Queue()

    def put(self, delay: float, item) -> None:
        due = asyncio.get_running_loop().time() + max(0.0, delay)
        self._queue.put_nowait((due, item))

    def stop(self) -> None:
        self._queue.put_nowait(None)

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                break
            due, payload = item
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
            self._deliver(payload)


class _BaseTransport:
    def __init__(self, tap: Optional[Tap] = None) -> None:
        self._handlers: Dict[int, Handler] = {}
        self._killed: Set[int] = set()
        # every task the transport owns: listeners, dispatchers, pumps,
        # the flusher, and coroutine handler results still running
        self._tasks: Set[asyncio.Task] = set()
        self.tap = tap
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_dropped = 0

    def register(self, peer_id: int, handler: Handler) -> None:
        if peer_id in self._handlers:
            raise ValueError(f"peer {peer_id} already registered")
        self._handlers[peer_id] = handler
        self._killed.discard(peer_id)

    def unregister(self, peer_id: int) -> None:
        """Detach a peer's handler (endpoint restart); queue/port survive,
        so a replacement endpoint can ``register`` under the same id."""
        self._handlers.pop(peer_id, None)

    def kill(self, peer_id: int) -> None:
        """Simulate a peer crash: it neither receives nor sends frames."""
        self._killed.add(peer_id)

    async def revive(self, peer_id: int) -> None:
        """Undo :meth:`kill`: the peer sends and receives again.

        A replacement endpoint should ``register`` under the id first
        (which also clears the killed flag); subclasses additionally
        restore whatever :meth:`kill` tore down (e.g. a TCP listener)."""
        self._killed.discard(peer_id)

    def is_killed(self, peer_id: int) -> bool:
        return peer_id in self._killed

    def _tap_send(self, envelope: dict, n_bytes: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += n_bytes
        if self.tap is not None:
            self.tap("tx", envelope, n_bytes)

    def _deliver(self, peer_id: int, envelope) -> None:
        """Hand one envelope to ``peer_id``'s handler, on the spot."""
        handler = self._handlers.get(peer_id)
        if handler is None or peer_id in self._killed:
            return
        try:
            result = handler(envelope)
        except Exception:  # a handler bug costs the frame, not the receive path
            self.frames_dropped += 1
            return
        if result is not None:
            self._spawn(result)

    def _spawn(self, coro, name: Optional[str] = None) -> None:
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.frames_dropped += 1  # a coroutine handler raised

    async def _cancel_tasks(self) -> None:
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def start(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    async def close(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    async def send(self, src: int, dst: int, envelope: dict) -> bool:  # pragma: no cover
        """Queue one frame for ``dst``.  True when the call first had to
        wait for the network itself — a dial, another sender's dial, a
        connection paused by backpressure — so the exchange's round trip
        says nothing about the link (:class:`~repro.net.rpc.RpcEndpoint`
        reports no RTT sample for it)."""
        raise NotImplementedError


class LoopbackTransport(_BaseTransport):
    """In-process transport: one inbox queue + dispatcher task per peer.

    ``latency`` is a one-way delay in wall seconds (a float, or a
    callable ``(src, dst) -> float``); ``loss`` drops each frame
    independently with the given probability, using a seeded generator
    so tests are reproducible.

    Zero-latency frames to one destination accumulate within an
    event-loop turn and are delivered as one queue item — one dispatcher
    wakeup per burst instead of one per frame.  Delayed frames keep
    their own timers: coalescing must never reorder a link's delivery
    schedule.
    """

    def __init__(
        self,
        latency: float | Callable[[int, int], float] = 0.0,
        loss: float = 0.0,
        seed: int = 0,
        tap: Optional[Tap] = None,
    ) -> None:
        super().__init__(tap=tap)
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self._latency = latency if callable(latency) else (lambda s, d, l=latency: l)
        self._loss = loss
        self._rng = as_generator(seed)
        self._queues: Dict[int, asyncio.Queue] = {}
        self._pending: Dict[int, List[bytes]] = {}
        # latency emulation: one _DelayPump per active (src, dst) link
        self._pumps: Dict[Tuple[int, int], _DelayPump] = {}
        self._started = False

    async def start(self) -> None:
        for peer_id in self._handlers:
            if peer_id not in self._queues:
                self._queues[peer_id] = asyncio.Queue()
                self._spawn(self._dispatch(peer_id), f"loopback-rx-{peer_id}")
        self._started = True

    async def close(self) -> None:
        await self._cancel_tasks()
        self._pumps.clear()
        self._pending.clear()
        self._started = False

    async def send(self, src: int, dst: int, envelope: dict) -> bool:
        if not self._started:
            raise TransportError("transport not started")
        if src in self._killed:
            raise TransportError(f"peer {src} is down")
        queue = self._queues.get(dst)
        if queue is None:
            raise TransportError(f"no such peer {dst}")
        frame = encode_frame(envelope)
        self._tap_send(envelope, len(frame))
        if dst in self._killed or (self._loss > 0 and self._rng.random() < self._loss):
            self.frames_dropped += 1
            return False  # the void acknowledges nothing
        delay = self._latency(src, dst)
        if delay > 0:
            self._link_pump(src, dst).put(delay, frame)
        else:
            batch = self._pending.get(dst)
            if batch is None:
                batch = self._pending[dst] = []
                asyncio.get_running_loop().call_soon(self._flush, dst)
            batch.append(frame)
        return False  # a queue put never waits

    def _flush(self, dst: int) -> None:
        batch = self._pending.pop(dst, None)
        if batch:
            self._queues[dst].put_nowait(batch)

    def _link_pump(self, src: int, dst: int) -> _DelayPump:
        key = (src, dst)
        pump = self._pumps.get(key)
        if pump is None:
            # kill is re-checked at dispatch
            pump = self._pumps[key] = _DelayPump(self._queues[dst].put_nowait)
            self._spawn(pump.run(), f"loopback-delay-{src}-{dst}")
        return pump

    async def _dispatch(self, peer_id: int) -> None:
        queue = self._queues[peer_id]
        while True:
            item: Union[bytes, List[bytes]] = await queue.get()
            for frame in item if isinstance(item, list) else (item,):
                self._deliver(peer_id, decode_frame(frame))


class _Accepted(asyncio.Protocol):
    """Accepted side of one connection: bytes in, envelopes to the hosted
    peer's handler in arrival order, with no task in between."""

    __slots__ = ("owner", "peer_id", "frames", "sock", "pump")

    def __init__(self, owner: "TcpTransport", peer_id: int) -> None:
        self.owner = owner
        self.peer_id = peer_id
        self.frames = FrameReader()
        self.sock: Optional[asyncio.Transport] = None
        # latency emulation: releases each envelope at arrival_time + delay
        self.pump: Optional[_DelayPump] = None

    def connection_made(self, sock) -> None:
        self.sock = sock
        owner = self.owner
        owner._accepted.add(self)
        if owner._delay_inbound:
            self.pump = _DelayPump(partial(owner._deliver, self.peer_id))
            owner._spawn(self.pump.run(), f"tcp-delay-{self.peer_id}")

    def data_received(self, data: bytes) -> None:
        owner, peer_id, pump = self.owner, self.peer_id, self.pump
        try:
            envelopes = self.frames.feed(data)
        except CodecError:  # the stream cannot be resynchronised
            owner.frames_dropped += 1
            self.sock.abort()
            return
        for envelope in envelopes:
            if peer_id in owner._killed:
                self.sock.abort()
                return
            if pump is not None:
                src = envelope.get("src", peer_id) if isinstance(envelope, dict) else peer_id
                pump.put(owner._latency(src, peer_id), envelope)
            else:
                owner._deliver(peer_id, envelope)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._accepted.discard(self)
        if self.pump is not None:
            self.pump.stop()  # drain what's in flight, then stop


class _Conn(asyncio.Protocol):
    """Dialled side of one pooled ``(src, dst)`` connection: frames out,
    nothing in."""

    __slots__ = ("owner", "key", "sock", "buf", "writable", "lost")

    def __init__(self, owner: "TcpTransport", key: Tuple[int, int]) -> None:
        self.owner = owner
        self.key = key
        self.sock: Optional[asyncio.Transport] = None
        self.buf: List[bytes] = []  # frames awaiting the flusher
        self.writable = asyncio.Event()
        self.writable.set()
        self.lost: Optional[BaseException] = None

    def connection_made(self, sock) -> None:
        self.sock = sock
        sock.set_write_buffer_limits(high=_HIGH_WATER)

    def data_received(self, data: bytes) -> None:
        self.sock.abort()  # frames flow one way; the acceptor never writes

    def pause_writing(self) -> None:
        self.writable.clear()

    def resume_writing(self) -> None:
        self.writable.set()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.lost = exc or ConnectionResetError("connection closed")
        if self.owner._pool.get(self.key) is self:
            del self.owner._pool[self.key]
        self.writable.set()  # senders held by backpressure wake and see `lost`


class TcpTransport(_BaseTransport):
    """Localhost TCP: one listening server per hosted peer.

    Ports are allocated by the OS unless ``port_base`` is given (then
    peer ``p`` listens on ``port_base + p``).  Outbound frames reuse a
    pooled connection per ``(src, dst)`` pair.

    No connection owns a task: the accepted side parses frames in
    ``data_received`` and calls the peer's handler there; the dialled
    side appends frames to its connection for :meth:`_flush_loop`, which
    gives each connection one ``write`` per turn.  Senders block only
    while a connection's socket buffer is past the high-water mark; a
    lost connection fails the sends waiting on it and is re-dialled by
    the next, which the RPC retry path already treats as message loss.

    ``latency`` emulates one-way wire delay just like the loopback
    transport (a float, or ``(src, dst) -> float`` over peer ids): a
    per-connection pump dispatches each inbound frame once its delay
    since arrival elapses.  Localhost TCP is effectively zero-latency,
    which makes every topology look flat — this knob lets benchmarks
    emulate the *modeled* overlay delays on a real socket path.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port_base: Optional[int] = None,
        tap: Optional[Tap] = None,
        latency: float | Callable[[int, int], float] = 0.0,
    ) -> None:
        super().__init__(tap=tap)
        self.host = host
        self.port_base = port_base
        self._latency = latency if callable(latency) else (lambda s, d, l=latency: l)
        self._delay_inbound = callable(latency) or latency > 0
        self.addresses: Dict[int, Tuple[str, int]] = {}
        self._servers: Dict[int, asyncio.base_events.Server] = {}
        self._accepted: Set[_Accepted] = set()
        self._pool: Dict[Tuple[int, int], _Conn] = {}
        self._dial_locks: Dict[Tuple[int, int], asyncio.Lock] = {}
        self._dirty: List[_Conn] = []  # connections with frames to flush
        self._wake = asyncio.Event()
        self._started = False

    async def start(self) -> None:
        for peer_id in self._handlers:
            if peer_id not in self._servers:
                await self._listen(peer_id)
        if not self._started:
            self._spawn(self._flush_loop(), "tcp-flush")
        self._started = True

    async def _listen(self, peer_id: int) -> None:
        port = 0 if self.port_base is None else self.port_base + peer_id
        server = await asyncio.get_running_loop().create_server(
            lambda: _Accepted(self, peer_id), self.host, port
        )
        self._servers[peer_id] = server
        self.addresses[peer_id] = server.sockets[0].getsockname()[:2]
        self._spawn(self._serve(peer_id, server), f"tcp-listen-{peer_id}")

    async def _serve(self, peer_id: int, server: asyncio.base_events.Server) -> None:
        """A hosted peer's listener, for as long as it lives: ``kill`` and
        ``close`` end it by closing the server, ``revive`` starts another."""
        if server.is_serving():
            await server.serve_forever()

    async def close(self) -> None:
        self._started = False
        for server in self._servers.values():
            server.close()
        self._servers.clear()
        for endpoint in (*self._pool.values(), *self._accepted):
            endpoint.sock.close()  # each leaves its collection when lost
        self._dirty.clear()
        await self._cancel_tasks()

    def kill(self, peer_id: int) -> None:
        super().kill(peer_id)
        server = self._servers.pop(peer_id, None)
        if server is not None:
            server.close()
        for proto in self._accepted:
            if proto.peer_id == peer_id:
                proto.sock.abort()
        for key in [k for k in self._pool if peer_id in k]:
            self._pool.pop(key).sock.abort()  # with whatever it had buffered

    async def revive(self, peer_id: int) -> None:
        """Restart a killed peer's listener (possibly on a new OS port —
        dialers re-read :attr:`addresses`, and every pooled connection
        involving the peer was torn down at kill time)."""
        await super().revive(peer_id)
        if self._started and peer_id not in self._servers:
            await self._listen(peer_id)

    async def send(self, src: int, dst: int, envelope: dict) -> bool:
        if not self._started:
            raise TransportError("transport not started")
        if src in self._killed:
            raise TransportError(f"peer {src} is down")
        if dst in self._killed:
            raise TransportError(f"peer {dst} is down")
        conn = self._pool.get((src, dst))
        waited = conn is None or conn.sock.is_closing()
        if waited:
            conn = await self._dial(src, dst)
        frame = encode_frame(envelope)
        if not conn.buf:
            if not self._dirty:
                self._wake.set()
            self._dirty.append(conn)
        conn.buf.append(frame)
        if not conn.writable.is_set():
            waited = True
            await conn.writable.wait()
        if conn.lost is not None:
            raise TransportError(f"send {src}->{dst} failed: {conn.lost}")
        self._tap_send(envelope, len(frame))
        return waited

    async def _flush_loop(self) -> None:
        """The transport's one flusher: every connection written to since
        the last event-loop turn gets a single ``write``."""
        wake = self._wake
        while True:
            await wake.wait()
            wake.clear()
            dirty, self._dirty = self._dirty, []
            for conn in dirty:
                if not conn.sock.is_closing():
                    conn.sock.write(b"".join(conn.buf))
                conn.buf.clear()

    async def _dial(self, src: int, dst: int) -> _Conn:
        key = (src, dst)
        lock = self._dial_locks.setdefault(key, asyncio.Lock())
        async with lock:
            conn = self._pool.get(key)
            if conn is not None and not conn.sock.is_closing():
                return conn  # dialled while this sender waited for the lock
            addr = self.addresses.get(dst)
            if addr is None:
                raise TransportError(f"no address for peer {dst}")
            conn = _Conn(self, key)
            try:
                await asyncio.get_running_loop().create_connection(lambda: conn, *addr)
                self._pool[key] = conn
                return conn
            except OSError as exc:
                raise TransportError(f"dial {src}->{dst} failed: {exc}") from exc
            finally:
                # refused or cancelled: leave no socket behind
                if self._pool.get(key) is not conn and conn.sock is not None:
                    conn.sock.abort()
