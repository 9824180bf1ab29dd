"""Timing wrappers around the program's layer boundaries, installed from outside.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces each
boundary function *at the name its caller resolves* (a class attribute, or
the module global the calling module imported) with a wrapper that records
a span, and :meth:`Tracer.remove` puts the originals back.

A span is ``(id, parent, trace, name, start, end, busy)``:

* ``parent`` is the span that caused it.  Inside one task that is the
  enclosing span; a task inherits the span that created it; a message
  handler's parent is the span that encoded the request frame on the
  sending peer, so a compose can be followed across the wire.
* ``trace`` is the request id when the call's message carries one, else the
  parent's trace id.
* ``busy`` is the time the span itself was executing: an ``async`` boundary
  is driven step by step, so time spent suspended at an ``await`` and time
  inside nested spans are both excluded.  One event loop runs one step at
  a time, which makes the ``busy`` times of all spans disjoint: summed per
  layer they are that layer's self time, and what no span covers is
  :attr:`trace.unattributed_share`.

Per-name totals (calls, busy, running, wall) are kept as the spans close
so a window is two snapshots and a subtraction, whatever the span count.
The first ``MAX_SPANS`` spans stay in memory until :meth:`write_jsonl`.
"""

from __future__ import annotations

import contextvars
import itertools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import selection as core_selection
from repro.core.bcp import BCP
from repro.core.resources import ResourcePool
from repro.core.strategies import backtracking as strat_backtracking
from repro.core.strategies import decomposition as strat_decomposition
from repro.core.strategies import search as strat_search
from repro.dht.pastry import PastryNetwork
from repro.discovery.registry import ServiceRegistry
from repro.net import cluster as net_cluster
from repro.net import codec as net_codec
from repro.net import peer as net_peer
from repro.net import transport as net_transport
from repro.net.directory import DirectorySlice
from repro.net.measurement import MeasurementPlane
from repro.net.rpc import RpcEndpoint
from repro.topology.routing import OverlayRouter

_perf = time.perf_counter

# (span id, trace id) of the span executing in this task, if any
_current: contextvars.ContextVar[Optional[Tuple[int, Optional[int]]]] = (
    contextvars.ContextVar("bench_span", default=None)
)

CORPUS_FRAMES = 2048  # frames kept for the codec replay timer
# Spans kept for the JSONL file.  A search workload closes millions of
# spans a second around psi_cost and the router; the per-name totals go on
# counting them all, the file holds the first MAX_SPANS.
MAX_SPANS = 200_000

TraceOf = Callable[[tuple], Optional[int]]


def _request_id(obj: Any) -> Optional[int]:
    rid = getattr(obj, "request_id", None)
    return rid if isinstance(rid, int) else None


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Totals:
    """Per-span-name accumulators; subtractable, so a window is a delta."""

    __slots__ = ("calls", "busy", "running", "wall")

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)  # self time
        self.running: Dict[str, float] = defaultdict(float)  # self + nested
        self.wall: Dict[str, float] = defaultdict(float)  # start -> end

    def copy(self) -> "Totals":
        out = Totals()
        for field in self.__slots__:
            getattr(out, field).update(getattr(self, field))
        return out

    def since(self, earlier: "Totals") -> "Totals":
        out = Totals()
        for field in self.__slots__:
            now, then, dst = getattr(self, field), getattr(earlier, field), getattr(out, field)
            for name, value in now.items():
                dst[name] = value - then.get(name, 0)
        return out

    def layer_busy(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.busy.items():
            out[layer_of(name)] += value
        return out


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, Optional[int], str, float, float, float]] = []
        self.totals = Totals()
        self.codec_errors = 0
        # (object, wire version, frame bytes) of the first frames encoded
        # after capture_frames() — the codec replay corpus
        self.corpus: List[Tuple[Any, int, bytes]] = []
        self._capture = 0
        self._ids = itertools.count(1)
        # the sections executing right now, innermost last; each is a
        # one-element list holding the time its nested sections took
        self._stack: List[List[float]] = []
        # id(request body) -> span that encoded its frame on the sender
        self._frame_cause: Dict[int, Tuple[int, Optional[int]]] = {}
        self._sent: Dict[Tuple, Tuple[int, Optional[int]]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------
    def _open(self, trace: Optional[int], cause=None):
        parent = cause if cause is not None else _current.get()
        if trace is None and parent is not None:
            trace = parent[1]
        me = (next(self._ids), trace)
        return me, (parent[0] if parent is not None else 0)

    def _close(self, me, parent_id: int, name: str, start: float, busy: float, running: float) -> None:
        end = _perf()
        totals = self.totals
        totals.calls[name] += 1
        totals.busy[name] += busy
        totals.running[name] += running
        totals.wall[name] += end - start
        if len(self.spans) < MAX_SPANS:
            self.spans.append((me[0], parent_id, me[1], name, start, end, busy))

    def sync(self, name: str, fn: Callable, trace_of: Optional[TraceOf] = None) -> Callable:
        """Wrap a plain function: one span per call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            me, parent_id = self._open(trace_of(args) if trace_of else None)
            token = _current.set(me)
            nested = [0.0]
            stack.append(nested)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                _current.reset(token)
                self._close(me, parent_id, name, start, elapsed - nested[0], elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap a plain function that calls no other boundary.

        The router, the pool and psi_cost are called hundreds of times per
        compose (millions per second by the search strategies); without
        children to parent they need neither a context switch nor a stack
        frame, which keeps the wrapper's own cost near a microsecond."""
        stack, totals, spans = self._stack, self.totals, self.spans
        calls, busy, running, wall = totals.calls, totals.busy, totals.running, totals.wall
        ids = self._ids

        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                running[name] += elapsed
                wall[name] += elapsed
                if len(spans) < MAX_SPANS:
                    parent = _current.get()
                    if parent is None:
                        spans.append((next(ids), 0, None, name, start, end, elapsed))
                    else:
                        spans.append((next(ids), parent[0], parent[1], name, start, end, elapsed))

        wrapper.__wrapped__ = fn
        return wrapper

    def coroutine(
        self,
        name: str,
        fn: Callable,
        trace_of: Optional[TraceOf] = None,
        cause_of: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable:
        """Wrap an ``async def``: one span per call, driven step by step."""

        async def wrapper(*args, **kwargs):
            cause = None
            if cause_of is not None:
                cause = self._frame_cause.pop(id(cause_of(args)), None)
            trace = trace_of(args) if trace_of else None
            return await _Stepped(self, name, fn(*args, **kwargs), trace, cause)

        wrapper.__wrapped__ = fn
        return wrapper

    def task(self, name: str, coro):
        """Wrap an already-created coroutine object (for task spawners)."""

        async def run():
            return await _Stepped(self, name, coro, None, None)

        return run()

    # ------------------------------------------------------------------
    # codec boundary: spans plus corpus capture and cross-wire causes
    # ------------------------------------------------------------------
    def capture_frames(self, n: int = CORPUS_FRAMES) -> None:
        self.corpus.clear()
        self._capture = n

    def _wrap_encode(self, fn: Callable) -> Callable:
        timed = self.sync("codec.encode", fn, lambda args: _envelope_request_id(args[0]))

        def encode_frame(obj, version=net_codec.WIRE_VERSION):
            if isinstance(obj, dict) and obj.get("kind") == "req":
                current = _current.get()
                if current is not None:
                    self._sent[(obj.get("src"), obj.get("inc"), obj.get("id"))] = current
            try:
                frame = timed(obj, version)
            except net_codec.CodecError:
                self.codec_errors += 1
                raise
            if self._capture > 0:
                self._capture -= 1
                self.corpus.append((obj, version, frame))
            return frame

        return encode_frame

    def _note_decoded(self, envelope: Any) -> None:
        if isinstance(envelope, dict) and envelope.get("kind") == "req":
            key = (envelope.get("src"), envelope.get("inc"), envelope.get("id"))
            cause = self._sent.pop(key, None)
            if cause is not None:
                self._frame_cause[id(envelope.get("body"))] = cause

    def _wrap_decode(self, fn: Callable) -> Callable:
        timed = self.sync("codec.decode", fn)

        def decode_frame(data):
            try:
                envelope = timed(data)
            except net_codec.CodecError:
                self.codec_errors += 1
                raise
            self._note_decoded(envelope)
            return envelope

        return decode_frame

    def _wrap_feed(self, fn: Callable) -> Callable:
        # the TCP receive path decodes through FrameReader.feed; one span
        # covers the chunk, the call count is the frames it completed
        timed = self.sync("codec.decode", fn)

        def feed(reader, data):
            try:
                envelopes = timed(reader, data)
            except net_codec.CodecError:
                self.codec_errors += 1
                raise
            for envelope in envelopes:
                self._note_decoded(envelope)
            self.totals.calls["codec.decode"] += len(envelopes) - 1
            return envelopes

        return feed

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _sync(self, owner: Any, attr: str, name: str, trace_of: Optional[TraceOf] = None) -> None:
        self._patch(owner, attr, lambda fn: self.sync(name, fn, trace_of))

    def _leaf(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self.leaf(name, fn))

    def _coro(self, owner: Any, attr: str, name: str, trace_of: Optional[TraceOf] = None) -> None:
        self._patch(owner, attr, lambda fn: self.coroutine(name, fn, trace_of))

    def install(self) -> None:
        """Replace every boundary below; build clusters only afterwards,
        because daemons register their handlers when they are constructed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        request_arg = lambda args: _request_id(args[1])  # noqa: E731 - (self, request, ...)
        message_arg = lambda args: _request_id(args[2])  # noqa: E731 - (self, dst, message)

        # codec, at the names net/transport.py resolves
        self._patch(net_transport, "encode_frame", self._wrap_encode)
        self._patch(net_transport, "decode_frame", self._wrap_decode)
        self._patch(net_codec.FrameReader, "feed", self._wrap_feed)

        # transport: the public send plus the tasks that own the sockets
        self._coro(net_transport.LoopbackTransport, "send", "transport.send")
        self._coro(net_transport.TcpTransport, "send", "transport.send")
        self._coro(net_transport.LoopbackTransport, "_dispatch", "transport.receive")
        self._coro(net_transport.TcpTransport, "_serve", "transport.receive")
        self._coro(net_transport.TcpTransport, "_flush_loop", "transport.flush")

        # rpc
        self._coro(RpcEndpoint, "call", "rpc.call", message_arg)

        def wrap_on(original_on):
            def on(endpoint, msg_type, handler):
                timed = self.coroutine(
                    f"peer.handle.{msg_type.__name__}",
                    handler,
                    trace_of=lambda args: _request_id(args[1]),  # (src, message)
                    cause_of=lambda args: args[1],
                )
                return original_on(endpoint, msg_type, timed)

            return on

        self._patch(RpcEndpoint, "on", wrap_on)

        # peer: the source entry point and every task a handler spawns
        self._coro(net_peer.PeerDaemon, "start_compose", "peer.start_compose", request_arg)

        def wrap_spawn(original_spawn):
            def _spawn(daemon, coro):
                label = getattr(coro, "__name__", "task").lstrip("_")
                return original_spawn(daemon, self.task(f"peer.task.{label}", coro))

            return _spawn

        self._patch(net_peer.PeerDaemon, "_spawn", wrap_spawn)
        self._coro(net_peer.PeerDaemon, "register_components", "directory.register")

        # directory slice
        self._leaf(DirectorySlice, "lookup", "directory.slice_lookup")
        self._leaf(DirectorySlice, "store", "directory.slice_store")

        # measurement plane intake
        self._leaf(MeasurementPlane, "record_rtt", "measurement.record")
        self._leaf(MeasurementPlane, "record_failure", "measurement.record")

        # cluster
        self._coro(net_cluster.LiveCluster, "compose", "cluster.compose", request_arg)

        # bcp: the whole sync compose, and the per-hop core a daemon calls
        self._sync(BCP, "compose", "bcp.compose", request_arg)
        self._sync(BCP, "_admit", "bcp.admit")
        self._sync(BCP, "_final_hop", "bcp.final_hop")
        self._sync(BCP, "_filter_components", "bcp.filter")
        self._sync(BCP, "_select_components", "bcp.select")
        self._sync(net_peer, "merge_probes", "bcp.merge_probes")
        self._sync(net_peer, "select_composition", "bcp.select_composition")
        for module in (core_selection, strat_search):
            self._leaf(module, "psi_cost", "cost.psi")

        # discovery / dht / routing / resources
        self._sync(ServiceRegistry, "lookup", "discovery.lookup")
        self._sync(PastryNetwork, "route", "dht.route")
        self._sync(PastryNetwork, "get", "dht.route")
        self._leaf(OverlayRouter, "path", "routing.path")
        self._leaf(OverlayRouter, "delay", "routing.delay")
        self._leaf(ResourcePool, "soft_allocate_peer", "resources.soft_alloc")
        self._leaf(ResourcePool, "soft_allocate_path", "resources.soft_alloc")
        self._leaf(ResourcePool, "cancel", "resources.release")
        self._leaf(ResourcePool, "release", "resources.release")

        # search strategies: each composer's entry point and the engine
        # both of them call
        self._sync(
            strat_backtracking.PrunedBacktrackingComposer, "compose",
            "search.backtrack", request_arg,
        )
        self._sync(
            strat_decomposition.DecompositionComposer, "compose",
            "search.decompose", request_arg,
        )
        for module in (strat_backtracking, strat_decomposition):
            self._sync(module, "search_compositions", "search.engine")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> int:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, trace, name, start, end, busy in self.spans:
                out.write(
                    f'{{"id":{sid},"parent":{parent},'
                    f'"trace":{"null" if trace is None else trace},'
                    f'"name":"{name}","start":{start:.7f},"end":{end:.7f},'
                    f'"busy":{busy:.7f}}}\n'
                )
        return len(self.spans)


def _envelope_request_id(envelope: Any) -> Optional[int]:
    if isinstance(envelope, dict):
        return _request_id(envelope.get("body"))
    return None


class _Stepped:
    """Awaitable that drives ``coro`` one step at a time under a span.

    Each ``send``/``throw`` into the coroutine is a section on the
    tracer's stack, so the span's busy time counts only the steps the
    coroutine itself executed, minus nested spans."""

    __slots__ = ("tracer", "name", "coro", "trace", "cause")

    def __init__(self, tracer: Tracer, name: str, coro, trace, cause) -> None:
        self.tracer = tracer
        self.name = name
        self.coro = coro
        self.trace = trace
        self.cause = cause

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        stack = tracer._stack
        me, parent_id = tracer._open(self.trace, self.cause)
        start = _perf()
        busy = running = 0.0
        value = error = None
        try:
            while True:
                token = _current.set(me)
                nested = [0.0]
                stack.append(nested)
                t0 = _perf()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        pending, error = error, None
                        yielded = coro.throw(pending)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = _perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    busy += elapsed - nested[0]
                    running += elapsed
                    _current.reset(token)
                try:
                    value = yield yielded
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delivered into the coroutine on the next step
                    value, error = None, exc
        finally:
            tracer._close(me, parent_id, self.name, start, busy, running)
