"""Layer call-timers: one layer's public function in a tight loop.

Inputs come from the workload's own idle system (``Workload.world()``)
and, for the codec, from the frames its traced run put on the wire.  Each
timer returns mean microseconds per call.  These numbers omit everything
the layer waits for in a real compose; they are for telling *which*
layer's cost per call moved, next to the traced run's self times.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.cost import psi_cost
from repro.core.resources import ResourceVector
from repro.dht.id_space import key_for
from repro.discovery.metadata import ServiceMetadata
from repro.net import codec
from repro.net.directory import DirectorySlice
from repro.net.rpc import RpcEndpoint
from repro.net.transport import LoopbackTransport, TcpTransport

_perf = time.perf_counter

ECHO_ROUND_TRIPS = 2000
CALLS = 2000  # per sync timer


def _per_call_us(fn: Callable[[Any], Any], inputs: Sequence[Any], calls: int = CALLS) -> float:
    if not inputs:
        return 0.0
    feed = itertools.islice(itertools.cycle(inputs), calls)
    t0 = _perf()
    for item in feed:
        fn(item)
    return (_perf() - t0) * 1e6 / calls


def codec_replay(corpus: Sequence[Tuple[Any, int, bytes]]) -> Dict[str, float]:
    """Re-encode and re-decode the frames captured from the traced run."""
    if not corpus:
        return {"codec.replay_encode_us": 0.0, "codec.replay_decode_us": 0.0}
    t0 = _perf()
    for obj, version, _ in corpus:
        codec.encode_frame(obj, version)
    t1 = _perf()
    for _, _, frame in corpus:
        codec.decode_frame(frame)
    t2 = _perf()
    return {
        "codec.replay_encode_us": (t1 - t0) * 1e6 / len(corpus),
        "codec.replay_decode_us": (t2 - t1) * 1e6 / len(corpus),
    }


async def _transport_echo(transport, round_trips: int) -> float:
    """Two endpoints, one frame in flight: mean round trip in microseconds."""
    loop = asyncio.get_running_loop()
    arrived: List[asyncio.Future] = [loop.create_future()]

    async def echo(envelope: dict) -> None:
        await transport.send(1, 0, envelope)

    async def home(envelope: dict) -> None:
        arrived[0].set_result(envelope)

    transport.register(0, home)
    transport.register(1, echo)
    await transport.start()
    try:
        envelope = {"kind": "echo", "src": 0, "id": 0}
        for _ in range(50):  # dial, negotiate, warm
            await transport.send(0, 1, envelope)
            await arrived[0]
            arrived[0] = loop.create_future()
        t0 = _perf()
        for _ in range(round_trips):
            await transport.send(0, 1, envelope)
            await arrived[0]
            arrived[0] = loop.create_future()
        return (_perf() - t0) * 1e6 / round_trips
    finally:
        await transport.close()


async def _rpc_echo(calls: int) -> float:
    """RpcEndpoint.call against an echo handler over loopback."""
    transport = LoopbackTransport()
    caller = RpcEndpoint(transport, 0)
    callee = RpcEndpoint(transport, 1)

    async def pong(src: int, msg: codec.MaintenancePing) -> dict:
        return {"seq": msg.seq}

    callee.on(codec.MaintenancePing, pong)
    await transport.start()
    try:
        for seq in range(50):
            await caller.call(1, codec.MaintenancePing(0, seq))
        t0 = _perf()
        for seq in range(calls):
            await caller.call(1, codec.MaintenancePing(0, seq))
        return (_perf() - t0) * 1e6 / calls
    finally:
        await transport.close()


async def wire_echo(scale: float) -> Dict[str, float]:
    n = max(50, int(ECHO_ROUND_TRIPS * scale))
    return {
        "transport.echo_rtt_us.loopback": await _transport_echo(LoopbackTransport(), n),
        "transport.echo_rtt_us.tcp": await _transport_echo(TcpTransport(), n),
        "rpc.echo_call_us": await _rpc_echo(n),
    }


def directory_slice(population) -> Dict[str, float]:
    """DirectorySlice.store / lookup over the workload's own components."""
    rows = [(key_for(s.function), ServiceMetadata.from_spec(s)) for s in population]
    if not rows:
        return {"directory.slice_store_us": 0.0, "directory.slice_lookup_us": 0.0}
    directory = DirectorySlice()
    store_us = _per_call_us(lambda row: directory.store(*row), rows)
    keys = sorted({key for key, _ in rows})
    return {
        "directory.slice_store_us": store_us,
        "directory.slice_lookup_us": _per_call_us(directory.lookup, keys),
    }


def core_layers(net, population, requests) -> Dict[str, float]:
    """dht / discovery / routing / resources / cost on the idle system."""
    peers = sorted(net.overlay.peers())
    functions = sorted({s.function for s in population})
    origins = peers[:: max(1, len(peers) // 16)]
    lookups = [(fn, origin) for fn in functions[:16] for origin in origins]
    pairs = [(a, b) for a in origins for b in origins if a != b]
    router = net.overlay.router

    routes = [net.dht.route(key_for(fn), origin) for fn, origin in lookups]
    out = {
        "dht.route_us": _per_call_us(lambda q: net.dht.route(key_for(q[0]), q[1]), lookups),
        "dht.hops_mean": sum(r.hop_count for r in routes) / len(routes) if routes else 0.0,
        "discovery.lookup_us": _per_call_us(lambda q: net.registry.lookup(*q), lookups),
    }
    for a, b in pairs:  # fill the route caches: steady state is what composes see
        router.path(a, b)
    out["routing.path_us"] = _per_call_us(lambda p: router.path(*p), pairs)
    out["routing.delay_us"] = _per_call_us(lambda p: router.delay(*p), pairs)

    demand = ResourceVector({"cpu": 1.0, "memory": 1.0})
    pool = net.pool
    claims = [(("bench", i), peer) for i, peer in enumerate(itertools.islice(itertools.cycle(peers), CALLS))]
    t0 = _perf()
    for token, peer in claims:
        pool.soft_allocate_peer(token, peer, demand)
    t1 = _perf()
    for token, _ in claims:
        pool.cancel(token)
    t2 = _perf()
    out["resources.soft_alloc_us"] = (t1 - t0) * 1e6 / len(claims)
    out["resources.release_us"] = (t2 - t1) * 1e6 / len(claims)

    graphs = []
    for request in requests[:16]:
        result = net.bcp.compose(request, confirm=False)
        if result.success:
            graphs.append(result.best)
    out["cost.psi_us"] = _per_call_us(lambda g: psi_cost(g, pool), graphs)
    return out
