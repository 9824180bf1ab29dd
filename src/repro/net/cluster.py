"""Boot a live SpiderNet cluster on localhost.

:class:`LiveCluster` builds the same environment as the simulated
testbed (overlay, resource pool, DHT-backed registry, components), then
hosts every overlay peer as a :class:`~repro.net.peer.PeerDaemon` on a
shared transport — loopback queues or real TCP sockets — and runs
compositions end-to-end over the wire:

.. code-block:: python

    async with LiveCluster(ClusterConfig(n_peers=10)) as cluster:
        request = cluster.scenario.requests.next_request()
        result = await cluster.compose(request)

There is one state model: every daemon has its own resource pool and
its own :class:`~repro.net.directory.DirectorySlice`.  Component
meta-data lives with the peer owning ``hash(function)`` in the DHT id
space, discovery and registration travel as DHT-routed RPCs, soft-state
reservations are owned by the hosting peer, and what a destination must
know about a wave rides the wave's own frames — daemons share nothing
but the wire, and a :class:`~repro.net.guard.SharedStateGuard` seals the
scenario's registry, pool and DHT storage while the cluster runs to
*prove* it.  What stays shared in process is not protocol state: the
static topology (overlay, ring snapshot, DHT routing tables — read-only
inputs every real peer would hold a copy of), the scenario's liveness
oracles, and the observer side — one
:class:`~repro.net.accounting.LedgerTap` over the SpiderNet ledger, so
sim-category books (``bcp_probe`` …) and live wire books (``net_*``)
land in one place, and the optional ``EventTrace``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..core.bcp import BCP, BCPConfig, CompositionResult
from ..core.request import CompositeRequest
from ..workload.generator import RequestConfig
from ..workload.scenarios import Scenario, simulation_testbed
from .accounting import LedgerTap
from .admission import AdmissionConfig, LoadGuard
from .directory import DirectorySlice
from .guard import SharedStateGuard
from .measurement import MeasuredOverlayView, MeasurementConfig, MeasurementPlane
from .peer import PeerDaemon
from .rpc import RetryPolicy, RpcEndpoint, RpcFailure
from .transport import LoopbackTransport, TcpTransport
from ..sim.vtime import loop_time

__all__ = ["ClusterConfig", "LiveCluster"]


@dataclass
class ClusterConfig:
    """Knobs for a localhost cluster (defaults are smoke-test sized)."""

    n_peers: int = 5
    n_functions: int = 6
    transport: str = "loopback"  # "loopback" | "tcp"
    latency: Union[float, Callable[[int, int], float]] = 0.0  # emulated one-way delay
    loss: float = 0.0  # loopback frame-loss probability
    port_base: Optional[int] = None  # tcp: fixed ports; None -> OS-assigned
    seed: int = 0
    components_per_peer: Tuple[int, int] = (1, 3)
    bcp_config: Optional[BCPConfig] = None
    request_config: Optional[RequestConfig] = None
    capacity_scale: float = 1.0
    soft_timeout: float = 30.0  # reservation expiry (paper's soft state)
    collect_wall_timeout: float = 10.0  # dest fallback when credit is lost
    # every daemon call's timeout and retries (a measurement probe has its own)
    retry: RetryPolicy = RetryPolicy(timeout=1.0, retries=2, backoff=0.05)
    maint_interval: Optional[float] = None  # source-side session pings; None = off
    # topology measurement plane: None -> the plane's defaults (enabled:
    # active probing + passive RTT + dead-path detection + adaptive
    # routing); MeasurementConfig(enabled=False) reproduces the
    # pre-measurement behaviour exactly
    measurement: Optional[MeasurementConfig] = None
    # per-peer overload survival (session admission + probe shedding):
    # None -> no guard at all.  A guard whose limits are never exceeded
    # makes the same selections as none.
    admission: Optional[AdmissionConfig] = None
    # scale-out sharding: the subset of overlay peers hosted by THIS
    # process (None = host all of them, the single-process default).
    # A proper subset requires tcp + port_base, so remote peers sit at
    # computable (host, port_base + peer) addresses in sibling processes.
    hosted: Optional[Tuple[int, ...]] = None


class LiveCluster:
    """N live peers on one transport, sharing a built scenario."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        scenario: Optional[Scenario] = None,
        trace=None,
    ) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        if scenario is None:
            scenario = simulation_testbed(
                n_ip=max(4 * cfg.n_peers, 64),
                n_peers=cfg.n_peers,
                n_functions=cfg.n_functions,
                components_per_peer=cfg.components_per_peer,
                request_config=cfg.request_config,
                bcp_config=cfg.bcp_config,
                capacity_scale=cfg.capacity_scale,
                seed=cfg.seed,
            )
        self.scenario = scenario
        self.net = scenario.net
        self.trace = trace
        # one tap over the SpiderNet ledger: BCP._final_hop / registry
        # charges and the live wire books share a single MessageLedger
        self.tap = LedgerTap(self.net.ledger)
        # peer -> lives begun (boot is the first, each revive one more)
        self._lives: Dict[int, int] = {}
        if cfg.transport == "loopback":
            self.transport = LoopbackTransport(
                latency=cfg.latency, loss=cfg.loss, seed=cfg.seed, tap=self.tap.on_frame,
            )
        elif cfg.transport == "tcp":
            self.transport = TcpTransport(
                port_base=cfg.port_base, tap=self.tap.on_frame, latency=cfg.latency,
            )
        else:
            raise ValueError(f"unknown transport {cfg.transport!r} (loopback|tcp)")
        self.measure_cfg = cfg.measurement or MeasurementConfig()
        # the scenario's registry/pool/DHT storage are sealed for the
        # cluster's lifetime: any read through them is a bug, and the
        # guard records it (then raises) instead of letting it pass
        self.shared_guard = SharedStateGuard()
        self._ring = self.net.dht.ring_snapshot()
        all_peers = sorted(scenario.overlay.peers())
        if cfg.hosted is None:
            hosted = all_peers
        else:
            hosted = sorted({int(p) for p in cfg.hosted})
            unknown = [p for p in hosted if p not in set(all_peers)]
            if unknown:
                raise ValueError(f"hosted peers not in the overlay: {unknown}")
            if set(hosted) != set(all_peers) and (
                cfg.transport != "tcp" or cfg.port_base is None
            ):
                raise ValueError(
                    "hosted shards require transport='tcp' with port_base "
                    "set, so sibling processes' peers have computable "
                    "addresses"
                )
        self.hosted: Tuple[int, ...] = tuple(hosted)
        self.daemons: Dict[int, PeerDaemon] = {}
        for peer in hosted:
            self.daemons[peer] = self._build_daemon(peer)
        if set(hosted) != set(all_peers):
            # every non-hosted peer lives in a sibling process at a
            # deterministic address; dialers read this table directly
            assert isinstance(self.transport, TcpTransport)
            for peer in all_peers:
                if peer not in self.daemons:
                    self.transport.addresses.setdefault(
                        peer, (self.transport.host, cfg.port_base + peer)
                    )
        self._compose_tasks: Set[asyncio.Task] = set()
        self._started = False

    def _build_daemon(self, peer: int) -> PeerDaemon:
        """Wire one peer's endpoint, engine, and measurement plane."""
        shared = self.net.bcp
        endpoint = self._endpoint(peer)
        measuring = self.measure_cfg.enabled
        # each daemon owns its soft state: a private (empty) pool clone
        # plus a private directory slice.  The registry reference stays
        # wired for API symmetry but is sealed.  With measurement on, the
        # daemon's whole engine sits over its MeasuredOverlayView: until
        # the plane installs a material delta the view delegates verbatim
        # to the shared static overlay, so selections are unchanged by
        # default.
        overlay = shared.overlay
        if measuring:
            overlay = MeasuredOverlayView(shared.overlay)
        bcp = BCP(
            overlay,
            shared.pool.clone_empty(overlay=overlay),
            shared.registry,
            config=shared.config,
            ledger=shared.ledger,
            peer_failure=shared.peer_failure,
            alive=shared.alive,
            rng=shared.rng,
            trust=shared.trust,
        )
        plane: Optional[MeasurementPlane] = None
        if measuring:
            plane = MeasurementPlane(
                peer, endpoint, self.measure_cfg, view=overlay, trace=self.trace
            )
            # candidates on downed paths are filtered at Step 2.3a
            base_alive = bcp.alive
            bcp.alive = (
                lambda p, _alive=base_alive, _plane=plane: _alive(p)
                and not _plane.is_down(p)
            )
        return self._daemon(peer, bcp, endpoint, DirectorySlice(), plane)

    def _endpoint(self, peer: int) -> RpcEndpoint:
        """A fresh endpoint for the peer's next life.  Its incarnation is
        the life's one nonce, drawn from (seed, peer, life): unique per life,
        and the same for the same seed — the daemon takes its bundle-key
        nonce from it too, so a seeded cluster sends the same bytes."""
        cfg = self.config
        life = self._lives[peer] = self._lives.get(peer, 0) + 1
        return RpcEndpoint(
            self.transport,
            peer,
            retry=cfg.retry,
            seed=cfg.seed + peer,
            incarnation=np.random.default_rng([cfg.seed, peer, life]).bytes(8).hex(),
        )

    def _daemon(
        self,
        peer: int,
        bcp: BCP,
        endpoint: RpcEndpoint,
        directory: DirectorySlice,
        plane: Optional[MeasurementPlane],
    ) -> PeerDaemon:
        """The one place a :class:`PeerDaemon` is constructed (boot and
        revive): everything but the five arguments is the cluster's."""
        cfg = self.config
        return PeerDaemon(
            peer_id=peer,
            bcp=bcp,
            endpoint=endpoint,
            directory=directory,
            ring=self._ring,
            dht=self.net.dht,
            tap=self.tap,
            trace=self.trace,
            soft_timeout=cfg.soft_timeout,
            collect_wall_timeout=cfg.collect_wall_timeout,
            maint_interval=cfg.maint_interval,
            measurement=plane,
            # a fresh guard each time: admission state is the process's,
            # and a restarted process forgets
            guard=LoadGuard(cfg.admission) if cfg.admission is not None else None,
        )

    @property
    def ledger(self):
        return self.net.ledger

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "LiveCluster":
        await self.start_transport()
        return await self.activate()

    async def start_transport(self) -> "LiveCluster":
        """Boot phase 1: bind the transport (TCP listeners come up, no
        frame is sent).  Split out so a multi-process launch can bring
        every shard's listeners up before any shard starts registering —
        boot registration is DHT-routed and may land on any process."""
        await self.transport.start()
        return self

    async def activate(self) -> "LiveCluster":
        """Boot phase 2: seal shared state, register components, probe."""
        # seal *before* populating the directory: registration must
        # itself be wire-only for the no-shared-reads proof to hold
        self.shared_guard.seal(self.net.registry, self.net.pool, self.net.dht)
        await self._populate_directory()
        # active probing starts after the boot registration pass, so the
        # first measured cycles see steady-state traffic — and what the
        # pass itself measured is forgotten: every registrant's batches
        # leave at once, so those round trips time the burst, not the
        # link, and the first sample seeds a link's baseline.  (On TCP
        # they never counted: each waited for its connection's dial.)
        for daemon in self.daemons.values():
            plane = daemon.measurement
            if plane is not None:
                plane.rebind(plane.endpoint)
                plane.start()
        self._started = True
        if self.trace is not None:
            self.trace.record(
                "cluster_started", time=loop_time(),
                peers=len(self.daemons), transport=self.config.transport,
            )
        return self

    async def _populate_directory(self) -> None:
        """Boot-time registration pass: every hosting daemon pushes its
        components to their DHT owners — one RegisterBatch per (registrant,
        replica) pair.  Registrants run concurrently: each row still only
        becomes visible through its owner's RPC reply, and at boot no
        peer holds cached state, so ordering between registrants is
        immaterial."""
        by_peer: Dict[int, list] = {}
        for spec in self.scenario.population:
            if spec.peer in self.daemons:  # hosted shard registers its own
                by_peer.setdefault(spec.peer, []).append(spec)
        await asyncio.gather(
            *(
                self.daemons[peer].register_components(by_peer[peer], now=0.0)
                for peer in sorted(by_peer)
            )
        )

    async def stop(self, grace: float = 0.1) -> None:
        """Tear the cluster down in dependency order.

        1. Measurement planes stop first — a probe fired after its
           daemon stopped would book a spurious failure.
        2. Pending compose sessions are aborted (their futures resolve
           to structured failures) and in-flight :meth:`compose` tasks
           get ``grace`` seconds to observe that before being cancelled.
        3. Daemons stop: wall/expiry timers cancelled, spawned protocol
           tasks drained.
        4. The transport closes last, so every step above may still use
           the wire.  Idempotent: a second ``stop()`` is a no-op.
        """
        if not self._started:
            return
        self._started = False  # reject new composes while tearing down
        for daemon in self.daemons.values():
            if daemon.measurement is not None:
                daemon.measurement.stop()
        for daemon in self.daemons.values():
            daemon.abort_pending("cluster stopping")
        tasks = [t for t in self._compose_tasks if not t.done()]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for daemon in self.daemons.values():
            daemon.stop()
        for daemon in self.daemons.values():
            await daemon.drain()
        await self.transport.close()
        self.shared_guard.unseal()
        if self.trace is not None:
            self.trace.record("cluster_stopped", time=loop_time())

    async def __aenter__(self) -> "LiveCluster":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: Optional[float] = None,
    ) -> CompositionResult:
        """Run one composition from the request's source daemon."""
        if not self._started:
            raise RuntimeError("cluster not started")
        daemon = self.daemons.get(request.source_peer)
        if daemon is None:
            raise ValueError(f"no daemon hosts source peer {request.source_peer}")
        task = asyncio.ensure_future(
            daemon.start_compose(request, budget=budget, confirm=confirm, timeout=timeout)
        )
        self._compose_tasks.add(task)
        task.add_done_callback(self._compose_tasks.discard)
        try:
            return await asyncio.shield(task)
        except asyncio.CancelledError:
            if task.cancelled():
                # stop() tore the session down mid-flight: hand the
                # caller a structured failure, not a CancelledError
                result = CompositionResult(request=request, success=False)
                result.failure_reason = "cluster stopped"
                return result
            task.cancel()  # the *caller* was cancelled: propagate inward
            raise

    async def compose_many(
        self,
        requests,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: Optional[float] = None,
    ) -> List[CompositionResult]:
        """Compose a batch sequentially (each sees the previous sessions' load)."""
        return [
            await self.compose(r, budget=budget, confirm=confirm, timeout=timeout)
            for r in requests
        ]

    async def compose_concurrent(
        self,
        requests,
        concurrency: int = 8,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: Optional[float] = None,
    ) -> List[CompositionResult]:
        """Pipeline a batch: up to ``concurrency`` sessions overlap.

        Every piece of per-session daemon state — soft tokens, firm
        tokens, collection windows, credit, pending results — is keyed
        by request id, so overlapping sessions stay
        isolated; overlap changes wall-clock time and resource
        contention (later admissions see earlier sessions' soft
        reservations, as concurrent arrivals would in a real overlay),
        never a session's accounting.  Results are returned in request
        order.  A failed compose surfaces as its raised exception after
        the whole batch settles, not as a torn gather.
        """
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        gate = asyncio.Semaphore(concurrency)

        async def one(request: CompositeRequest) -> CompositionResult:
            async with gate:
                return await self.compose(
                    request, budget=budget, confirm=confirm, timeout=timeout
                )

        results = await asyncio.gather(
            *(one(r) for r in requests), return_exceptions=True
        )
        for res in results:
            if isinstance(res, BaseException):
                raise res
        return list(results)

    def kill_peer(self, peer_id: int) -> None:
        """Crash a peer: its daemon stops and its transport goes dark.

        The registry is deliberately *not* told — stale entries keep
        routing probes at the dead peer, which is what exercises the
        RPC retry/backoff and credit-loss paths."""
        if peer_id not in self.daemons:
            raise ValueError(f"no such peer {peer_id}")
        self.daemons[peer_id].stop()
        # sessions the dead peer itself was sourcing can never finish;
        # resolve them now so their callers fail fast instead of timing out
        self.daemons[peer_id].abort_pending("peer killed")
        self.transport.kill(peer_id)
        if self.trace is not None:
            self.trace.record("peer_killed", time=loop_time(), peer=peer_id)

    async def revive_peer(self, peer_id: int) -> None:
        """Restart a killed peer: fresh endpoint incarnation, same engine.

        The replacement daemon keeps the old one's engine state (pool,
        directory slice, sessions are gone but capacity and stored rows
        survive the crash-restart, like a process coming back on the same
        host) while its RPC incarnation changes, so stale cached replies
        from its previous life cannot be replayed at it.  The measurement
        plane is rebound and wiped — a restarted process has no memory —
        and neighbours' recovery probes mark the path back up."""
        old = self.daemons.get(peer_id)
        if old is None:
            raise ValueError(f"no such peer {peer_id}")
        if not self.transport.is_killed(peer_id):
            raise RuntimeError(f"peer {peer_id} is not down")
        self.transport.unregister(peer_id)
        endpoint = self._endpoint(peer_id)
        await self.transport.revive(peer_id)
        plane = old.measurement
        if plane is not None:
            plane.rebind(endpoint)
        self.daemons[peer_id] = self._daemon(
            peer_id, old.bcp, endpoint, old.directory, plane
        )
        if plane is not None and self._started:
            plane.start()
        if self.trace is not None:
            self.trace.record("peer_revived", time=loop_time(), peer=peer_id)

    # ------------------------------------------------------------------
    # introspection (tests / CLI)
    # ------------------------------------------------------------------
    def soft_tokens(self) -> Dict[int, set]:
        """Outstanding soft reservations per live daemon (rid -> tokens)."""
        out: Dict[int, set] = {}
        for daemon in self.daemons.values():
            for rid, tokens in daemon._tokens.items():
                if tokens:
                    out.setdefault(rid, set()).update(tokens)
        return out

    def pool_tokens(self) -> Dict[int, List]:
        """Active allocation tokens per daemon pool (soft *and* firm).

        Each entry is that peer's private pool — the union is the
        cluster-wide allocation state."""
        out: Dict[int, List] = {}
        for peer, daemon in sorted(self.daemons.items()):
            out[peer] = sorted(daemon.bcp.pool.active_tokens(), key=repr)
        return out

    def errors(self, include_rpc: bool = False) -> List[str]:
        """Daemon task failures — should be empty after a clean run.

        ``include_rpc=True`` appends the structured RPC retry-exhaustion
        records (peer id, method, attempts) as formatted entries.  They
        are opt-in because exhaustion against a dead peer is *expected*
        failure-path behaviour, not a daemon bug; the raw records are
        available from :meth:`rpc_failures`."""
        out = [e for d in self.daemons.values() for e in d.errors]
        if include_rpc:
            out.extend(
                f"rpc_exhausted peer={f.peer} method={f.method} "
                f"attempts={f.attempts}: {f.error}"
                for f in self.rpc_failures()
            )
        return out

    def rpc_failures(self) -> List[RpcFailure]:
        """Every RPC that exhausted its retries, across all daemons."""
        return [f for d in self.daemons.values() for f in d.rpc_failures]

    def measurement_stats(self) -> Dict[str, object]:
        """Aggregate measurement-plane health across daemons."""
        planes = [
            d.measurement for d in self.daemons.values() if d.measurement is not None
        ]
        ledger = self.tap.ledger
        out: Dict[str, object] = {
            "enabled": self.measure_cfg.enabled,
            "probes_sent": sum(p.probes_sent for p in planes),
            "probes_suppressed": sum(p.probes_suppressed for p in planes),
            "probe_failures": sum(p.probe_failures for p in planes),
            "samples_active": sum(p.samples_active for p in planes),
            "samples_passive": sum(p.samples_passive for p in planes),
            "samples_discarded": sum(
                p.endpoint.samples_discarded for p in planes
            ),
            "down_events": sum(p.down_events for p in planes),
            "up_events": sum(p.up_events for p in planes),
            "reprices": sum(p.reprices for p in planes),
            "router_rebuilds": sum(p.view.rebuilds for p in planes),
            # views routing on a router of their own right now
            "private_routers": sum(p.view.private for p in planes),
            # the plane's own traffic, apart from compose traffic: the
            # PathProbe frames (their acks ride the shared net_ack book)
            "measure_frames": ledger.count.get("net_measure", 0),
            "measure_bytes": ledger.bytes.get("net_measure", 0),
            "paths_down": {
                p.peer_id: p.down_paths for p in planes if p.down_paths
            },
        }
        return out

    def directory_stats(self) -> Dict[str, object]:
        """Aggregate directory-tier health across daemons.

        ``hit_rate`` is positive-cache hits over (hits + misses)."""
        hits = sum(d.cache_hits for d in self.daemons.values())
        misses = sum(d.cache_misses for d in self.daemons.values())
        out: Dict[str, object] = {
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
        slices = {
            peer: daemon.directory.stats() for peer, daemon in sorted(self.daemons.items())
        }
        out["slices"] = slices
        out["directory_serves"] = sum(s["serves"] for s in slices.values())
        out["directory_rows"] = sum(s["rows"] for s in slices.values())
        return out

    def admission_stats(self) -> Dict[str, object]:
        """Aggregate load-guard books across this process's daemons."""
        guards = [d.guard for d in self.daemons.values() if d.guard is not None]
        return {
            "enabled": bool(guards),
            "sessions_admitted": sum(g.sessions_admitted for g in guards),
            "sessions_rejected": sum(g.sessions_rejected for g in guards),
            "sessions_inflight": sum(g.sessions_inflight for g in guards),
            "sessions_peak": max((g.sessions_peak for g in guards), default=0),
            "probes_shed": sum(g.probes_shed for g in guards),
            "budget_degrades": sum(g.budget_degrades for g in guards),
            "probes_peak": max((g.probes_peak for g in guards), default=0),
        }

    def rpc_stats(self) -> Dict[str, int]:
        calls = sum(d.endpoint.calls_sent for d in self.daemons.values())
        retries = sum(d.endpoint.retries_performed for d in self.daemons.values())
        return {
            "calls_sent": calls,
            "retries_performed": retries,
            "frames_sent": self.transport.frames_sent,
            "bytes_sent": self.transport.bytes_sent,
            "frames_dropped": self.transport.frames_dropped,
        }
