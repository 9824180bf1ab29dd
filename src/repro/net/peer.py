"""The live peer daemon: SpiderNet's per-hop protocol over a transport.

Each daemon owns one overlay peer id and processes protocol messages as
asyncio tasks, *reusing the wrapped* :class:`~repro.core.bcp.BCP`
*per-hop methods the synchronous engine runs* — Steps 2.1–2.4 of the
paper exist once, in ``bcp.py``:

* ``BCP._admit``          — Step 2.1 admission (QoS check + soft alloc)
  at the probe's *receiving* peer,
* ``derive_next_functions`` + ``BCP._filter_components`` +
  ``BCP._select_components`` — Steps 2.2/2.3 at the expanding peer,
* ``BCP._final_hop`` / ``merge_probes`` / ``select_composition`` — the
  destination's Step 3,
* ``BCP._tokens_of`` + pool confirm — the Step 4 ack pass.

**Termination detection.**  The synchronous engine knows the wave is
over when its heap drains; a live destination cannot see remote
queues.  Instead every composition carries integer *credit* (weight
throwing, Mattern 1989): the root probe holds :data:`CREDIT`, each
fan-out splits the parent's credit exactly among its children in
proportion to their budgets (:func:`_split_credit`), and credit returns
to the destination on arrival (``FinalProbe``), prune/duplicate/late
drop or send failure (``CreditReturn``).  The collection window closes
exactly when the credit sums back to :data:`CREDIT` — or when a
wall-clock fallback fires, covering credit lost with a crashed peer.
A probe's credit is never below its budget, so no share is ever zero.

**Soft state.**  Reservations made during admission arm per-token expiry
timers (the paper's soft allocation): a reservation not confirmed by the
setup ack within the timeout evaporates on its own, which is what cleans
up after a crashed destination or a lost release.  Confirmed (firm)
tokens are tracked separately so a later release — a setup ack that
fails partway, or a session teardown — frees them too instead of leaking
capacity.

**Reports ride the credit.**  The destination must know, before its
window may close, who reserved what along the wave and how many probes
the wave sent.  No peer stops to tell it: an admitting peer appends a
bundle of its fresh reservations to the ones the probe already carries,
a fan-out appends one naming the number of children it sends and hands
the lot to its first child, and the ``FinalProbe`` or ``CreditReturn``
that ends that credit share's journey delivers them — absorbed before
the credit is counted, each ``(holder, n)`` once, so "credit complete"
implies "every holder booked, the whole wave's load and probe count
known" by construction.  No daemon keeps a per-request counter, and
nothing is shared between daemons to keep one in.

**No handshake.**  The source hands ``ComposeBegin`` to the transport
and sends the wave behind it without waiting for the reply — nothing in
the reply is needed to probe.  A credit-carrying frame that overtakes
the begin on another connection is *early*: the destination parks it
and counts it, in arrival order, when the begin lands (or treats it as
late if none does within the wall-clock timeout).  Only where the reply
can end the compose — admission is configured, or the destination is
already known down — does the source wait for it, so a compose that is
not going to run still costs one round trip and zero probes.  In the
same spirit the setup ack, a registration's batches and its
invalidations each go to all their peers at once: no round trip waits
for another it does not depend on.

**Teardown.**  When the window closes the destination releases the
request's losing reservations in *one* wave, to exactly the holders its
bundles name — the message cost of a composition stays bounded by the
probing budget, not by the size of the overlay.  Nothing waits for the
wave's replies: a release only ever removes, so the destination hands it
to the transport (beside the setup ack, which it does wait for) and the
``ComposeResult`` leaves right behind it.  ``compose`` returning means
the releases are sent, not applied; a lost one leaves its tokens to
their expiry timers.  A credit-carrying frame
that reaches a closed window (a straggler after the wall-clock fallback)
is answered ``late`` and the holders named in it are sent one soft-only
release.  A peer that dies holding a probe takes the probe's bundles
with it; those holders' tokens fall to their expiry timers.

**Discovery.**  A daemon never consults the scenario's
:class:`ServiceRegistry`: component meta-data lives in the
:class:`DirectorySlice` of the peer owning ``hash(function)`` in the DHT
id space (plus its replica-ring successors), registration and discovery
travel as :class:`~repro.net.codec.RegisterBatch` /
:class:`~repro.net.codec.LookupRequest` RPCs, and the lookup RTT is
derived from the same Pastry route a sync lookup would take — so the
message ledger and probe timing stay comparable with the synchronous
engine's.

**Directory tier.**  Repeated lookups do not converge on the key's
owner: each daemon keeps a positive cache of resolved duplicate lists,
for :data:`CACHE_TTL` seconds or until a ``ReplicaInvalidate`` names
the function.  An absent function's empty answer is cached like any
other.  A cache hit returns the exact (components, rtt) pair the routed
lookup produced the first time — the DHT route is deterministic over a
static ring, so selections and probe timing are bit-identical with the
sync engine, which routes every lookup; only the ``dht_route`` /
``net_directory`` charges shrink, which the ledger's ``dir_*`` counters
audit.  A hit is answered on the spot: an expansion builds tasks only
for the lookups that miss.  The key's replicas remember who queried
it, and a content-changing re-registration awaits a
``ReplicaInvalidate`` to each of those peers, so it returns only once
every warm cache has forgotten the old rows; the TTL bounds the
staleness of a querier the fan-out could not reach (see
``docs/ARCHITECTURE.md`` for the exact window).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Awaitable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.bcp import BCP, CompositionResult, derive_next_functions
from ..core.probe import Probe
from ..core.quota import split_budget
from ..core.request import CompositeRequest
from ..core.resources import InsufficientResources
from ..core.selection import admit_graph, merge_probes, select_composition
from ..core.service_graph import ServiceGraph
from ..dht.id_space import key_for
from ..dht.ring import RingSnapshot
from ..discovery.metadata import ServiceMetadata
from ..services.component import ComponentSpec
from . import codec
from .accounting import LedgerTap
from .admission import LoadGuard
from .directory import DirectorySlice
from .rpc import DedupCache, RpcEndpoint, RpcError
from ..sim.vtime import loop_time

__all__ = ["PeerDaemon", "LiveSession"]

# a composition's whole termination credit, held by its root probe: far
# above any probing budget, and an i64 on the wire
CREDIT = 1 << 62

# seconds a resolved lookup stays in a daemon's positive cache: the
# staleness bound for a querier the invalidation fan-out cannot reach
CACHE_TTL = 30.0

# what rides a share of the termination credit besides the probe: the
# report bundles gathered so far and the discovery RTT (see ProbeTransfer)
_NO_CARGO: Tuple[Tuple, Optional[float]] = ((), None)


def _split_credit(credit: int, budget: int, child_budgets: Sequence[int]) -> List[int]:
    """The children's shares of a fan-out's ``credit``: each in proportion
    to its budget, the first child also taking the remainder, so the
    shares sum to ``credit`` exactly.

    An expansion's child budgets sum to at most the ``budget`` it split,
    and a probe's credit is at least its budget (the root's is
    :data:`CREDIT`), so ``credit * b // budget >= b``: every share is at
    least its child's budget, which keeps the invariant one hop on and
    no share at zero, at any depth."""
    shares = [credit * b // budget for b in child_budgets]
    shares[0] += credit - sum(shares)
    for share, b in zip(shares, child_budgets):
        assert share >= b, (credit, budget, child_budgets)
    return shares


@dataclass
class LiveSession:
    """Source-side record of an established composition."""

    request_id: int
    graph: ServiceGraph
    tokens: Tuple[Tuple, ...]
    established_at: float
    failed: bool = False
    pings: int = 0


@dataclass
class _Collection:
    """Destination-side state of one probe collection window."""

    request: CompositeRequest
    confirm: bool
    budget: int
    result: CompositionResult
    started: float
    arrivals: Dict[Tuple, Probe] = field(default_factory=dict)
    credit: int = 0
    discovery: float = 0.0
    deadline_handle: Optional[asyncio.TimerHandle] = None
    done: bool = False
    # what the wave's peers reported, accumulated from the bundles of
    # credit-carrying frames: their reservations ((peer, rtype) -> amount,
    # link -> bandwidth), the probes their fan-outs sent, the (holder, n)
    # ids of the bundles booked so far and the holders among them — the
    # only remote peers holding tokens for this request, so the only ones
    # released
    wave_peer_used: Dict[Tuple[int, str], float] = field(default_factory=dict)
    wave_link_used: Dict[Tuple[int, int], float] = field(default_factory=dict)
    probes_sent: int = 0
    absorbed: Set[Tuple[int, int]] = field(default_factory=set)
    holders: Set[int] = field(default_factory=set)
    keep: Tuple[Tuple, ...] = ()  # what the latest release wave spared

    def absorb(self, reports) -> None:
        """Book what the wave's peers reserved and sent, each bundle once
        (a probe processed by its receiver *and* reported lost by its
        sender delivers the same bundles twice)."""
        for holder, n, peers, links, sent in reports:
            if (holder, n) in self.absorbed:
                continue
            self.absorbed.add((holder, n))
            self.probes_sent += sent
            if peers or links:
                self.holders.add(holder)
            for peer, rtype, amount in peers:
                key = (peer, rtype)
                self.wave_peer_used[key] = self.wave_peer_used.get(key, 0.0) + amount
            for u, v, bw in links:
                self.wave_link_used[(u, v)] = self.wave_link_used.get((u, v), 0.0) + bw


class _WaveLoadView:
    """The pool interface ψλ needs, over (local pool − remote wave load).

    A destination's pool holds only the claims it admitted itself; the
    rest of the wave's soft reservations live in the admitting peers'
    pools and arrive as the report bundles of credit-carrying frames.
    Subtracting those deltas from the local view reconstructs exactly the
    availability the synchronous engine's one pool shows at selection
    time — wire-only, no remote reads.
    """

    def __init__(
        self,
        pool,
        peer_used: Dict[Tuple[int, str], float],
        link_used: Dict[Tuple[int, int], float],
    ) -> None:
        self._pool = pool
        self._peer_used = peer_used
        self._link_used = link_used

    @property
    def resource_types(self):
        return self._pool.resource_types

    def available_amount(self, peer: int, rtype: str) -> float:
        base = self._pool.available_amount(peer, rtype)
        return max(base - self._peer_used.get((peer, rtype), 0.0), 0.0)

    def path_available_bandwidth(self, src: int, dst: int) -> float:
        if src == dst:
            return math.inf
        links = self._pool.overlay.router.links(src, dst)
        if not links:
            return math.inf
        low = min(
            self._pool.link_available(l) - self._link_used.get(tuple(sorted(l)), 0.0)
            for l in links
        )
        return low if low > 0.0 else 0.0


class PeerDaemon:
    """One live peer: registry slice, probe processing, session handling."""

    def __init__(
        self,
        peer_id: int,
        bcp: BCP,
        endpoint: RpcEndpoint,
        directory: DirectorySlice,
        ring: RingSnapshot,
        dht,
        tap: Optional[LedgerTap] = None,
        trace=None,
        soft_timeout: float = 30.0,
        collect_wall_timeout: float = 10.0,
        maint_interval: Optional[float] = None,
        measurement=None,
        guard: Optional[LoadGuard] = None,
    ) -> None:
        self.peer_id = peer_id
        self.bcp = bcp
        self.endpoint = endpoint
        # the registry is never read: component meta-data lives in the
        # directory slices, and discovery goes over the wire to the peer
        # owning the function's key on the ring (``dht`` prices the route)
        self.directory = directory
        self.ring = ring
        self.dht = dht
        self.tap = tap
        self.trace = trace
        self.soft_timeout = soft_timeout
        self.collect_wall_timeout = collect_wall_timeout
        self.maint_interval = maint_interval
        # measurement plane (None when measurement is disabled): fed by
        # the endpoint's RTT/failure hooks, owner of the active prober
        self.measurement = measurement
        # admission control (None = no guard: nothing refused or shed)
        self.guard = guard
        self.stopped = False
        self.errors: List[str] = []
        # structured retry-exhaustion records (RpcFailure) — expected
        # failure-path data (dead peers), deliberately separate from
        # ``errors``, which stays reserved for daemon *bugs*
        self.rpc_failures: List = []
        self._tokens: Dict[int, Set[Tuple]] = {}  # rid -> soft tokens owned here
        self._confirmed: Dict[int, Set[Tuple]] = {}  # rid -> firm tokens owned here
        self._timers: Dict[Tuple[int, Tuple], asyncio.TimerHandle] = {}
        self._seen = DedupCache()  # (rid, Probe.dedup_key()) application dedup
        # the n of this peer's latest report bundle: a counter under a boot
        # nonce (the high half), so the daemon a revive builds for this peer
        # id never repeats a (holder, n) a still-open window has booked.  The
        # nonce is the life's: 31 bits of the endpoint's (hex) incarnation
        self._bundles_made = int(endpoint.incarnation, 16) >> 33 << 32
        # directory tier state:
        # function -> (components, rtt, expires) positive cache
        self._dir_cache: Dict[str, Tuple[Tuple[ServiceMetadata, ...], float, float]] = {}
        # function -> route-priced rtt; never invalidated (the ring and
        # topology are static, so the route is a pure function of the key)
        self._rtt_cache: Dict[str, float] = {}
        # function -> in-flight miss future (daemon-wide single flight:
        # concurrent misses share one route+fetch, then hit the cache)
        self._miss_flight: Dict[str, asyncio.Future] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._collections: Dict[int, _Collection] = {}
        # credit-carrying frames that beat their ComposeBegin here:
        # rid -> (expiry timer, frames in arrival order); and the rids
        # whose window will not open (again), which is what makes a frame
        # without a window late instead of early
        self._parked: Dict[int, Tuple[asyncio.TimerHandle, List]] = {}
        self._closed = DedupCache()
        self._pending_results: Dict[int, asyncio.Future] = {}
        self.sessions: Dict[int, LiveSession] = {}
        self._tasks: Set[asyncio.Task] = set()
        endpoint.on(codec.ComposeBegin, self._on_begin)
        endpoint.on(codec.ProbeTransfer, self._on_probe)
        endpoint.on(codec.FinalProbe, self._on_final)
        endpoint.on(codec.CreditReturn, self._on_credit)
        endpoint.on(codec.SessionRelease, self._on_release)
        endpoint.on(codec.SessionConfirm, self._on_confirm)
        endpoint.on(codec.ComposeResult, self._on_result)
        endpoint.on(codec.MaintenancePing, self._on_ping)
        endpoint.on(codec.RegisterBatch, self._on_register_batch)
        endpoint.on(codec.LookupRequest, self._on_lookup)
        endpoint.on(codec.ReplicaInvalidate, self._on_replica_invalidate)
        endpoint.on(codec.PathProbe, self._on_path_probe)
        # passive measurement intake: every RPC round-trip feeds the
        # plane, every retry exhaustion is recorded (and feeds dead-path
        # detection) — see rpc.RpcEndpoint.on_rtt/on_failure
        endpoint.on_rtt = self._on_rpc_rtt
        endpoint.on_failure = self._on_rpc_failure
        # fail-fast: calls to a peer the transport killed (or the plane
        # marked down) abort instead of burning the retry/timeout budget
        endpoint.peer_down = self._peer_down

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _trace(self, category: str, **fields) -> None:
        if self.trace is not None:
            self.trace.record(category, time=loop_time(), peer=self.peer_id, **fields)

    def _spawn(self, coro: Awaitable) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)
        return task

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            self._trace("daemon_error", error=f"{type(exc).__name__}: {exc}")

    def _on_rpc_rtt(self, dst: int, rtt: float, method: str) -> None:
        if self.measurement is not None:
            self.measurement.record_rtt(dst, rtt, method)

    def _on_rpc_failure(self, failure) -> None:
        if self.stopped:
            # teardown noise: a daemon being shut down mid-exchange is
            # not a peer observing a failure — recording it would make
            # every clean cluster stop look like an incident
            return
        self.rpc_failures.append(failure)
        self._trace(
            "rpc_exhausted",
            target=failure.peer,
            method=failure.method,
            attempts=failure.attempts,
        )
        if self.measurement is not None:
            self.measurement.record_failure(failure.peer, failure.method)

    def _peer_down(self, dst: int) -> bool:
        """RPC-layer fail-fast predicate: is ``dst`` known unreachable?

        Combines the transport's kill switch (authoritative within a
        process: a killed peer *cannot* answer) with the measurement
        plane's dead-path verdict (``DOWN_AFTER`` consecutive exhausted
        exchanges).  Both only ever short-circuit calls that were going
        to exhaust their retries anyway — outcomes are unchanged, the
        per-hop timeout burn is not.  Measurement recovery probes bypass
        this via ``ignore_down`` so down paths can still be re-proved."""
        transport = self.endpoint.transport
        if transport.is_killed(dst):
            return True
        return self.measurement is not None and self.measurement.is_down(dst)

    async def _on_path_probe(self, src: int, msg: codec.PathProbe) -> Optional[dict]:
        """Measurement echo: answer immediately (no daemon state touched)."""
        if self.stopped:
            return {"error": "stopped"}
        return {"ack": codec.ProbeAck(seq=msg.seq, echo=msg.sent_at)}

    def stop(self) -> None:
        """Halt message processing and cancel timers/tasks (crash or teardown)."""
        self.stopped = True
        if self.measurement is not None:
            self.measurement.stop()
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for col in self._collections.values():
            if col.deadline_handle is not None:
                col.deadline_handle.cancel()
        for expiry, _ in self._parked.values():
            expiry.cancel()
        self._parked.clear()
        self._closed = DedupCache()
        self._miss_flight.clear()
        for task in list(self._tasks):
            task.cancel()

    async def drain(self) -> None:
        """Await all in-flight tasks (clean teardown path)."""
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def abort_pending(self, reason: str = "aborted") -> None:
        """Resolve every in-flight ``start_compose`` with a failed result.

        The orderly-shutdown half of the teardown contract: callers
        blocked in :meth:`start_compose` get a structured failure
        (``failure_reason=reason``) instead of waiting out wall timeouts
        against a cluster that is being dismantled under them."""
        for rid, future in list(self._pending_results.items()):
            if not future.done():
                future.set_result(
                    codec.ComposeResult(
                        request_id=rid,
                        success=False,
                        graph=None,
                        qos=None,
                        cost=math.inf,
                        failure_reason=reason,
                        probes_sent=0,
                        candidates_examined=0,
                        setup_time=0.0,
                    )
                )

    # ------------------------------------------------------------------
    # soft-state timers
    # ------------------------------------------------------------------
    def _arm_expiry(self, rid: int, token: Tuple) -> None:
        loop = asyncio.get_running_loop()
        self._timers[(rid, token)] = loop.call_later(
            self.soft_timeout, self._expire_token, rid, token
        )

    def _expire_token(self, rid: int, token: Tuple) -> None:
        self._timers.pop((rid, token), None)
        mine = self._tokens.get(rid)
        if not mine or token not in mine:
            return
        mine.discard(token)
        try:
            self.bcp.pool.cancel(token)
        except InsufficientResources:
            pass  # became firm concurrently; release() owns it now
        self._trace("reservation_expired", request=rid, token=list(token))

    def _cancel_timer(self, rid: int, token: Tuple) -> None:
        handle = self._timers.pop((rid, token), None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # source side: start a composition
    # ------------------------------------------------------------------
    async def start_compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: Optional[float] = None,
    ) -> CompositionResult:
        """Run one live composition from this (source) peer.

        Raises :class:`~repro.net.rpc.RpcTimeout` when the destination
        cannot be told to open its window (the begin's retries ran out)."""
        if request.source_peer != self.peer_id:
            raise ValueError(f"request sources at {request.source_peer}, daemon is {self.peer_id}")
        cfg = self.bcp.config
        beta = cfg.budget if budget is None else budget
        if beta < 1:
            raise ValueError(f"probing budget must be >= 1, got {beta}")
        rid = request.request_id
        dest = request.dest_peer
        # resolves to the ComposeResult — or to what the begin came to, if
        # that ends the compose first: a Busy refusal or the RpcError
        outcome: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending_results[rid] = outcome
        self._trace("compose_started", request=rid, dest=dest, budget=beta)
        begin = codec.ComposeBegin(rid, request, beta, confirm)
        overlapped: Optional[asyncio.Task] = None
        try:
            if self.guard is not None or self._peer_down(dest):
                # the reply can refuse (admission is configured) or cannot
                # come (the destination is known dead): a compose that is
                # not going to run costs one round trip and zero probes
                await self._begin(dest, begin, outcome)
            else:
                # nothing in the reply is needed to probe: the wave leaves
                # behind the begin, not behind its round trip.  One turn
                # hands the begin to the transport first, so on the
                # source -> destination link it precedes the wave's frames
                overlapped = self._spawn(self._begin(dest, begin, outcome))
                await asyncio.sleep(0)
            if not outcome.done():
                await self._expand(Probe.initial(request, beta), CREDIT, rid)
            wall = timeout if timeout is not None else self.collect_wall_timeout + 30.0
            msg = await asyncio.wait_for(outcome, wall)
        finally:
            self._pending_results.pop(rid, None)
            if overlapped is not None:
                overlapped.cancel()
        if isinstance(msg, RpcError):
            raise msg
        if isinstance(msg, codec.Busy):
            # admission refused the window in the begin reply itself:
            # there is no result to await (and, where the source waited
            # for the reply, no probe sent and no reservation anywhere)
            self._trace(
                "compose_rejected", request=rid, reason=msg.reason, inflight=msg.inflight
            )
            result = CompositionResult(request=request, success=False)
            result.failure_reason = (
                f"busy: destination shed the request "
                f"({msg.reason} limit, {msg.inflight} in flight)"
            )
            return result
        return self._result_from_message(request, msg)

    async def _begin(self, dest: int, msg: codec.ComposeBegin, outcome: asyncio.Future) -> None:
        """Open the destination's window; only a refusal or a failure is
        news to the compose, and ends it through ``outcome``."""
        try:
            reply = await self.endpoint.call(dest, msg)
        except RpcError as exc:
            ended = exc
        else:
            ended = reply.get("busy") if isinstance(reply, dict) else None
            if not isinstance(ended, codec.Busy):
                return
        if not outcome.done():
            outcome.set_result(ended)

    @staticmethod
    def _result_from_message(request: CompositeRequest, msg: codec.ComposeResult) -> CompositionResult:
        result = CompositionResult(request=request, success=msg.success)
        result.best = msg.graph
        result.best_qos = msg.qos
        result.best_cost = msg.cost
        result.failure_reason = msg.failure_reason
        result.probes_sent = msg.probes_sent
        result.candidates_examined = msg.candidates_examined
        result.setup_time = msg.setup_time
        result.phases = dict(msg.phases)
        result.session_tokens = [tuple(t) for t in msg.session_tokens]
        return result

    # ------------------------------------------------------------------
    # steps 2.2-2.4: expansion at the probe's current peer
    # ------------------------------------------------------------------
    async def _expand(self, probe: Probe, credit: int, rid: int, cargo=_NO_CARGO) -> None:
        cfg = self.bcp.config
        request = probe.request
        candidates = derive_next_functions(
            probe.graph, probe.current_function, probe.applied_swaps, cfg.explore_commutations
        )
        if not candidates:
            await self._return_credit(rid, request.dest_peer, credit, "no-next-hop", cargo)
            return
        # all candidate lookups run concurrently: a real implementation
        # would have all queries in flight at once, and the discovery
        # phase is priced off the *slowest* of them either way.  A cache
        # hit is not a task: only the misses fly
        origin = probe.current_peer
        results = [self._cached(fn) for fn, _, _, _ in candidates]
        missed = [idx for idx, hit in enumerate(results) if hit is None]
        if missed:
            fetched = await asyncio.gather(
                *(self._lookup(candidates[idx][0], origin) for idx in missed)
            )
            for idx, found in zip(missed, fetched):
                results[idx] = found
        lookups = [comps for comps, _ in results]
        max_rtt = max((rtt for _, rtt in results), default=0.0)
        if probe.branch == ():
            # the root expansion's slowest lookup is the discovery phase
            cargo = (cargo[0], max_rtt)
        entries = [
            (fn, cfg.quota_policy(fn, len(comps)), is_dep)
            for (fn, _, _, is_dep), comps in zip(candidates, lookups)
        ]
        budget = probe.budget
        if self.guard is not None and self.guard.degraded():
            # soft overload: expand this wave with half its budget —
            # the paper's quality/latency knob, turned by load
            budget = max(1, budget // 2)
            self.guard.budget_degrades += 1
        shares = split_budget(budget, entries)
        sends = []
        for idx, ((fn, graph, applied, _), comps) in enumerate(zip(candidates, lookups)):
            beta_k = shares.get(idx, 0)
            if beta_k < 1 or not comps:
                continue
            alpha_k = entries[idx][1]
            viable = self.bcp._filter_components(probe, comps)
            if not viable:
                continue
            i_k = min(beta_k, alpha_k, len(viable))
            chosen = self.bcp._select_components(probe, viable, i_k)
            child_budget = max(1, beta_k // max(len(chosen), 1))
            for comp in chosen:
                sends.append((fn, graph, applied, comp, child_budget))
        if not sends:
            await self._return_credit(rid, request.dest_peer, credit, "exhausted", cargo)
            return
        shares = _split_credit(credit, budget, [send[-1] for send in sends])
        # what the destination must learn — with it, how many probes this
        # fan-out sends — rides one share of the credit, the first child's:
        # it gets there once, before the credit is whole
        self._bundles_made += 1
        count = (self.peer_id, self._bundles_made, (), (), len(sends))
        cargoes = [(cargo[0] + (count,), cargo[1])] + [_NO_CARGO] * (len(sends) - 1)
        await asyncio.gather(
            *(
                self._send_probe(rid, probe, *send, max_rtt, share, carried)
                for send, share, carried in zip(sends, shares, cargoes)
            )
        )

    # ------------------------------------------------------------------
    # directory lookups: the positive cache, then the wire
    # ------------------------------------------------------------------
    def _cached(self, function: str) -> Optional[Tuple[List[ServiceMetadata], float]]:
        """A positive-cache hit, booked — or ``None``: there is nothing to
        await in one, so an expansion whose lookups all hit builds no task."""
        entry = self._dir_cache.get(function)
        if entry is None or loop_time() >= entry[2]:
            return None
        self.cache_hits += 1
        if self.tap is not None:
            self.tap.dir_cache_hit()
        return list(entry[0]), entry[1]

    async def _lookup(
        self, function: str, origin_peer: int
    ) -> Tuple[List[ServiceMetadata], float]:
        """Resolve a function's duplicate list: the positive cache, or one
        DHT route and a fetch from the key's directory replicas.

        A miss routes ``hash(function)`` through Pastry — charging the
        DHT ledger per hop exactly as a sync lookup would, and pricing the
        query RTT off that route — then asks the owning peer's directory
        slice over the wire.  A dead owner is skipped in favour of its
        replica-ring successors; if every replica is unreachable the
        function simply has no visible duplicates this wave (the probe's
        credit returns as exhausted).  Concurrent misses for one function
        share one route and fetch, across requests too, and every later
        hit returns the cached (components, rtt) pair without routing.
        The route is deterministic over a static ring, so the cached rtt
        is exactly what re-routing would price and probe timing matches
        the sync engine's; only the ``dht_route`` / ``net_directory``
        charges shrink.

        An invalidation of ``function`` that lands while the fetch is in
        flight ends the flight (:meth:`_forget`): the fetched rows may
        predate the change, so they answer the lookups that were waiting
        on them but are not cached.
        """
        hit = self._cached(function)
        if hit is not None:
            return hit
        fut = self._miss_flight.get(function)
        if fut is not None:
            comps, rtt = await asyncio.shield(fut)
            # the leader's miss covers the whole flight; followers are
            # hits against its (imminent) cache entry
            self.cache_hits += 1
            if self.tap is not None:
                self.tap.dir_cache_hit()
            return list(comps), rtt
        fut = asyncio.get_running_loop().create_future()
        self._miss_flight[function] = fut
        try:
            comps, rtt = await self._lookup_miss(function, origin_peer)
        except BaseException:
            fut.set_result(([], self._rtt_cache.get(function, 0.0)))
            raise
        finally:
            current = self._miss_flight.get(function) is fut
            if current:
                del self._miss_flight[function]
        comps = tuple(comps)
        if current:
            self._dir_cache[function] = (comps, rtt, loop_time() + CACHE_TTL)
        fut.set_result((comps, rtt))
        return list(comps), rtt

    async def _lookup_miss(
        self, function: str, origin_peer: int
    ) -> Tuple[List[ServiceMetadata], float]:
        """Resolve one positive-cache miss: route (once), fetch."""
        self.cache_misses += 1
        if self.tap is not None:
            self.tap.dir_cache_miss()
        key = key_for(function)
        rtt = self._rtt_cache.get(function)
        if rtt is None:
            # first resolution from this daemon: route the DHT exactly as
            # a sync lookup would (charging dht_route per hop) and
            # remember the priced rtt — the route is a pure function of
            # (key, origin) over the static ring, so reuse is exact
            route = self.dht.route(key, origin_peer)
            rtt = 2.0 * route.latency
            self._rtt_cache[function] = rtt
        return await self._fetch_components(key, function, origin_peer), rtt

    async def _fetch_components(
        self, key, function: str, origin_peer: int
    ) -> List[ServiceMetadata]:
        """The wire half of a lookup: the local rows if this peer holds
        the key, else ask the key's replicas, the owner first."""
        replicas = self.ring.replica_peers(key)
        if self.peer_id in replicas:
            # authoritative local copy: registration populates every base
            # replica before it returns, so this equals the owner's rows
            return self.directory.lookup(key)
        for target in replicas:
            try:
                reply = await self.endpoint.call(
                    target, codec.LookupRequest(function, origin_peer)
                )
            except RpcError:
                continue  # owner unreachable: fall back to the next replica
            if not isinstance(reply, dict) or reply.get("error"):
                continue
            return [c for c in reply.get("components", ()) if isinstance(c, ServiceMetadata)]
        self._trace("lookup_failed", function=function, origin=origin_peer)
        return []

    def _forget(self, function: str) -> None:
        """Drop ``function``'s cached rows, and end a fetch of them in
        flight so that what it brings back is not cached either."""
        self._dir_cache.pop(function, None)
        self._miss_flight.pop(function, None)

    async def _send_probe(
        self,
        rid: int,
        parent: Probe,
        fn: str,
        graph,
        applied,
        comp,
        budget: int,
        lookup_rtt: float,
        credit: int,
        cargo=_NO_CARGO,
    ) -> None:
        if self.tap is not None:
            self.tap.probe_sent()
        msg = codec.ProbeTransfer(
            request_id=rid,
            parent=parent,
            function=fn,
            component=comp,
            graph=graph,
            applied=tuple(sorted(tuple(sorted(p)) for p in applied)),
            budget=budget,
            lookup_rtt=lookup_rtt,
            credit=credit,
            reports=cargo[0],
            discovery=cargo[1],
        )
        try:
            await self.endpoint.call(comp.peer, msg)
        except RpcError:
            # the retry/backoff path ran dry: report the credit as lost so
            # the destination's window can still close without the fallback
            self._trace("probe_lost", request=rid, to_peer=comp.peer, function=fn)
            await self._return_credit(rid, parent.request.dest_peer, credit, "lost", cargo)

    async def _return_credit(
        self, rid: int, dest_peer: int, credit: int, reason: str, cargo=_NO_CARGO
    ) -> None:
        await self._credit_home(dest_peer, codec.CreditReturn(rid, credit, reason, *cargo))

    async def _credit_home(self, dest_peer: int, msg) -> None:
        """Deliver a ``FinalProbe`` / ``CreditReturn`` to the destination."""
        try:
            await self.endpoint.call(dest_peer, msg)
        except RpcError:
            pass  # destination unreachable: its wall-clock fallback closes the window

    # ------------------------------------------------------------------
    # step 2.1: admission at the receiving peer
    # ------------------------------------------------------------------
    async def _on_probe(self, src: int, msg: codec.ProbeTransfer) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        if self.guard is not None and self.guard.probe_overloaded():
            # hard shed: return the probe's termination credit without
            # admitting anything, so the destination's window still
            # closes by credit instead of waiting for the wall fallback.
            # No admission ran, so there is no token to leak.
            self.guard.probes_shed += 1
            self._trace("probe_shed", request=msg.request_id, from_peer=src)
            self._spawn(
                self._return_credit(
                    msg.request_id, msg.parent.request.dest_peer, msg.credit, "shed",
                    (msg.reports, msg.discovery),
                )
            )
            return {"ok": True, "shed": True}
        # ack immediately; admission + further expansion run as a task so
        # deep probe chains never stack RPC timeouts
        if self.guard is not None:
            self.guard.begin_probe()
        self._spawn(self._process_probe(msg))
        return {"ok": True}

    async def _process_probe(self, msg: codec.ProbeTransfer) -> None:
        try:
            rid = msg.request_id
            parent = msg.parent
            request = parent.request
            cfg = self.bcp.config
            applied = frozenset(frozenset(p) for p in msg.applied)
            toks = self._tokens.setdefault(rid, set())
            before = set(toks)
            child = self.bcp._admit(
                parent, msg.function, msg.component, msg.graph, applied,
                msg.budget, msg.lookup_rtt, toks,
            )
            fresh = toks - before
            for token in fresh:
                self._arm_expiry(rid, token)
            reports = msg.reports
            if fresh and self.peer_id != request.dest_peer:
                # this admission's load deltas — and this peer as a holder
                # to release — join what the probe already carries:
                # wherever its credit goes from here (even if it dies right
                # here), they go too, so the window cannot close without them
                self._bundles_made += 1
                reports += ((self.peer_id, self._bundles_made, *self._reserved_usage(fresh), 0),)
            if child is None:
                dropped = "pruned"
            elif self._seen.seen((rid, child.dedup_key())):
                dropped = "duplicate"
            elif child.elapsed > cfg.collect_timeout:
                dropped = "late"
            else:
                dropped = None
            cargo = (reports, msg.discovery)
            if dropped is not None:
                await self._return_credit(rid, request.dest_peer, msg.credit, dropped, cargo)
            elif child.at_sink:
                await self._credit_home(
                    request.dest_peer, codec.FinalProbe(rid, child, msg.credit, *cargo)
                )
            else:
                await self._expand(child, msg.credit, rid, cargo)
        finally:
            if self.guard is not None:
                self.guard.end_probe()

    # ------------------------------------------------------------------
    # destination side: collection window
    # ------------------------------------------------------------------
    async def _on_begin(self, src: int, msg: codec.ComposeBegin) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        rid = msg.request_id
        if rid in self._collections:
            return {"ok": True}
        if self.guard is not None and not self.guard.try_open_session(rid):
            # shed in the begin reply itself: the source learns in one
            # round trip, and no window / probe / reservation ever exists
            self._trace(
                "begin_rejected", request=rid, inflight=self.guard.sessions_inflight
            )
            self._expire_parked(rid)  # a source that did not wait has sent its wave
            return {
                "busy": codec.Busy(
                    request_id=rid,
                    reason="sessions",
                    inflight=self.guard.sessions_inflight,
                )
            }
        col = _Collection(
            request=msg.request,
            confirm=msg.confirm,
            budget=msg.budget,
            result=CompositionResult(request=msg.request, success=False),
            started=loop_time(),
        )
        col.deadline_handle = asyncio.get_running_loop().call_later(
            self.collect_wall_timeout,
            lambda: self._spawn(self._finalize(rid, "wall-timeout")),
        )
        self._collections[rid] = col
        for early in self._unpark(rid):
            self._count(col, early)
        return {"ok": True}

    def _arrive(self, msg) -> dict:
        """A credit-carrying frame finds its window in one of three states.

        *Open*: counted.  *Late* — closed, by the wall-clock fallback or a
        refusal: nobody will book the holders the frame names or send them
        the release wave, so each gets one soft-only release now instead
        of sitting on its tokens until they expire.  *Early* — not yet
        opened: the source does not wait for the begin's reply, so a third
        peer's frame can overtake the begin (a connection still being
        dialled, an asymmetric delay); it is parked, acked, and counted in
        arrival order when the begin lands.  ``_closed`` is what tells
        early from late."""
        if self.stopped:
            return {"error": "stopped"}
        rid = msg.request_id
        col = self._collections.get(rid)
        if col is None and rid not in self._closed:
            held = self._parked.get(rid)
            if held is None:
                # a begin that never comes must not strand the holders:
                # after the wall timeout the parked frames are late
                expiry = asyncio.get_running_loop().call_later(
                    self.collect_wall_timeout, self._expire_parked, rid
                )
                held = self._parked[rid] = (expiry, [])
            held[1].append(msg)
        elif col is None or col.done:
            # a done window still here is a winner awaiting its setup ack
            self._release_named(rid, (msg,), col.keep if col is not None else ())
            return {"late": True}
        else:
            self._count(col, msg)
        return {"ok": True}

    async def _on_final(self, src: int, msg: codec.FinalProbe) -> dict:
        return self._arrive(msg)

    async def _on_credit(self, src: int, msg: codec.CreditReturn) -> dict:
        return self._arrive(msg)

    def _count(self, col: _Collection, msg) -> None:
        """Book one credit-carrying frame in its open window: the reports
        first, then the arrival if it is one, the credit last — so "credit
        complete" implies everything the wave had to say has been said."""
        rid = msg.request_id
        col.absorb(msg.reports)
        if msg.discovery is not None:
            col.discovery = msg.discovery
        if isinstance(msg, codec.FinalProbe):
            toks = self._tokens.setdefault(rid, set())
            before = set(toks)
            arrival = self.bcp._final_hop(msg.probe, toks, col.result)
            for token in toks - before:
                self._arm_expiry(rid, token)
            if arrival is not None and arrival.elapsed <= self.bcp.config.collect_timeout:
                key = arrival.dedup_key()
                prev = col.arrivals.get(key)
                if prev is None or arrival.elapsed < prev.elapsed:
                    col.arrivals[key] = arrival
                self._trace("arrival", request=rid, branch=list(arrival.branch))
        col.credit += msg.credit
        if col.credit >= CREDIT and not col.done:
            self._spawn(self._finalize(rid, "credit-complete"))

    def _unpark(self, rid: int) -> List:
        """The frames parked for ``rid`` in arrival order, their expiry disarmed."""
        expiry, frames = self._parked.pop(rid, (None, []))
        if expiry is not None:
            expiry.cancel()
        return frames

    def _expire_parked(self, rid: int) -> None:
        """No window will open for ``rid`` (its begin was lost or refused):
        from here its frames are late, the parked ones included."""
        self._closed.seen(rid)
        self._release_named(rid, self._unpark(rid), ())

    def _release_named(self, rid: int, frames, keep: Tuple[Tuple, ...]) -> None:
        """One soft-only release to every holder ``frames`` name."""
        release = codec.SessionRelease(rid, keep, soft_only=True)
        holders = {
            h for msg in frames for h, _, peers, links, _ in msg.reports if peers or links
        }
        for holder in sorted(holders):
            self._spawn(self._control(holder, release))

    def _reserved_usage(self, tokens: Set[Tuple]) -> Tuple[Tuple, Tuple]:
        """Just-admitted reservations' demands, as report rows."""
        peers: List[Tuple[int, str, float]] = []
        links: List[Tuple[int, int, float]] = []
        for token in sorted(tokens):
            claim_peers, claim_links = self.bcp.pool.claim_usage(token)
            for peer, demands in claim_peers:
                for rtype in sorted(demands):
                    peers.append((peer, rtype, demands[rtype]))
            for link, bw in claim_links:
                u, v = sorted(link)
                links.append((u, v, bw))
        return tuple(peers), tuple(links)

    # ------------------------------------------------------------------
    # steps 3 + 4 at the destination
    # ------------------------------------------------------------------
    async def _finalize(self, rid: int, why: str) -> None:
        col = self._collections.get(rid)
        if col is None or col.done:
            return
        col.done = True
        if col.deadline_handle is not None:
            col.deadline_handle.cancel()
        if self.guard is not None:
            self.guard.close_session(rid)
        cfg = self.bcp.config
        request = col.request
        result = col.result
        result.probes_sent += col.probes_sent
        result.candidates_examined = len(col.arrivals)
        result.phases["discovery"] = col.discovery
        arrivals = list(col.arrivals.values())
        keep: Set[Tuple] = set()
        if not arrivals:
            result.failure_reason = "no probe reached the destination"
            if self.tap is not None:
                self.tap.failure()
        else:
            candidates = merge_probes(
                request, arrivals, self.bcp.overlay,
                max_patterns=cfg.max_patterns, max_candidates=cfg.max_candidates,
            )
            # rank against the whole wave's load, not just the claims
            # this destination admitted itself
            wave_pool = _WaveLoadView(self.bcp.pool, col.wave_peer_used, col.wave_link_used)
            selection = select_composition(
                candidates, request.qos, wave_pool, cfg.cost_weights,
                objective=cfg.objective,
            )
            result.qualified = selection.qualified
            if selection.best is None:
                result.failure_reason = (
                    f"no qualified service graph among {len(candidates)} candidates"
                )
                if self.tap is not None:
                    self.tap.failure()
            else:
                result.best = selection.best.graph
                result.best_qos = selection.best.qos
                result.best_cost = selection.best.cost
        if result.best is not None:
            # phase accounting + per-branch ack charges, as BCP._setup_phase
            ack_time = 0.0
            for peers in result.best.branch_paths():
                t = sum(
                    self.bcp.overlay.latency(u, v) for u, v in zip(peers, peers[1:]) if u != v
                )
                t += cfg.component_init_delay * (len(peers) - 2)
                ack_time = max(ack_time, t)
                if self.tap is not None:
                    self.tap.ack_hops(len(peers) - 1)
            arrivals_done = max((c.arrival_elapsed for c in result.qualified), default=0.0)
            probing_time = min(arrivals_done, cfg.collect_timeout)
            result.phases["composition"] = max(probing_time - col.discovery, 0.0)
            result.phases["setup_ack"] = ack_time
            result.setup_time = probing_time + ack_time
            keep = self.bcp._tokens_of(result.best, rid)
        success = result.best is not None
        if not col.confirm:
            keep = set()  # measurement-only run: the winner's tokens go too
        # one wave: every reservation of this request but the ones kept,
        # handed to the transport and not waited for
        handed = self._release(col, keep)
        if success and col.confirm:
            if cfg.soft_allocation:
                # same-peer hops never reserved a link token, so only the
                # tokens that must exist can fail the setup ack
                required = self.bcp._required_tokens(result.best, rid)
                confirmed = await self._confirm_session(rid, keep, result.best)
                if confirmed != required:
                    result.best = None
                    result.best_qos = None
                    result.best_cost = math.inf
                    result.failure_reason = "setup ack found expired reservation or dead peer"
                    if self.tap is not None:
                        self.tap.failure()
                    # per-link FIFO keeps this wave behind the first one
                    handed += self._release(col, set())
                    success = False
                else:
                    result.session_tokens = sorted(confirmed)
            else:
                # no-soft-allocation ablation: firm admission happens only now
                token = (rid, "session")
                if admit_graph(result.best, self.bcp.pool, token):
                    result.session_tokens = [token]
                else:
                    result.best = None
                    result.best_qos = None
                    result.best_cost = math.inf
                    result.failure_reason = "admission failed at setup (no soft allocation)"
                    if self.tap is not None:
                        self.tap.failure()
                    success = False
        result.success = success
        self._collections.pop(rid, None)
        self._closed.seen(rid)
        self._trace(
            "compose_finished", request=rid, success=success, why=why,
            arrivals=len(arrivals), probes=result.probes_sent,
        )
        out = codec.ComposeResult(
            request_id=rid,
            success=success,
            graph=result.best,
            qos=result.best_qos,
            cost=result.best_cost,
            failure_reason=result.failure_reason,
            probes_sent=result.probes_sent,
            candidates_examined=result.candidates_examined,
            setup_time=result.setup_time,
            phases=dict(result.phases),
            session_tokens=tuple(result.session_tokens),
        )
        # the result leaves behind every release frame: one turn hands them
        # to the transport, and a release still dialling its holder holds
        # the result until it is through.  When compose returns, the
        # releases are on the wire
        await asyncio.sleep(0)
        if not all(sent.done() for sent in handed):
            await asyncio.wait(handed)
        try:
            await self.endpoint.call(request.source_peer, out)
        except RpcError:
            self._trace("result_undeliverable", request=rid)

    async def _confirm_session(self, rid: int, keep: Set[Tuple], graph: ServiceGraph):
        """Destination-driven setup ack (the paper's Step 4): every path peer
        confirms its tokens.  If any keep token cannot be confirmed —
        expired reservation, dead peer — setup fails (``None``; the release
        that follows frees whatever the others did confirm)."""
        ack = codec.SessionConfirm(rid, tuple(sorted(keep)))
        confirmed = self._apply_confirm(rid, keep)
        # every path peer at once: the ack costs one round trip, whatever
        # the length of the path
        replies = await asyncio.gather(
            *(self._control(peer, ack) for peer in sorted(set(graph.peers()) - {self.peer_id}))
        )
        for reply in replies:
            if not isinstance(reply, dict) or reply.get("error"):
                return None
            confirmed |= {tuple(t) for t in reply.get("confirmed", [])}
        return confirmed

    def _apply_confirm(self, rid: int, keep: Set[Tuple]) -> Set[Tuple]:
        mine = self._tokens.get(rid, set())
        out: Set[Tuple] = set()
        for token in sorted(keep):
            if token in mine and self.bcp.pool.has_token(token):
                # disarm the expiry and drop the soft bookkeeping *before*
                # confirming: an expiry callback already queued behind this
                # frame must find nothing to cancel, not race the firm flip
                self._cancel_timer(rid, token)
                mine.discard(token)
                self.bcp.pool.confirm(token)
                out.add(token)
        if out:
            # firm tokens are tracked so a later release (failed setup
            # ack, session teardown) can free them — pool.cancel() refuses
            # firm claims, so the soft path alone would leak them
            self._confirmed.setdefault(rid, set()).update(out)
        if not mine:
            self._tokens.pop(rid, None)
        return out

    def _release(self, col: _Collection, keep: Set[Tuple]) -> List[asyncio.Future]:
        """Drop the request's reservations (minus ``keep``) wherever any
        are: here at once, and at the holders this window's report bundles
        named by one release each.  Nothing waits for those replies — a
        release only ever removes, and a lost one leaves soft tokens to
        their expiry timers; what is returned resolves as each release's
        frame reaches the transport."""
        rid = col.request.request_id
        self._apply_release(rid, keep)
        col.keep = tuple(sorted(keep))
        msg = codec.SessionRelease(rid, col.keep)
        loop = asyncio.get_running_loop()
        handed = []
        for peer in sorted(col.holders):
            if peer != self.peer_id:
                sent = loop.create_future()
                self._spawn(self._control(peer, msg, sent))
                handed.append(sent)
        return handed

    async def _control(
        self, peer: int, msg, sent: Optional[asyncio.Future] = None
    ) -> Optional[dict]:
        """A control call whose failure is an answer (``None``), not an
        error: a dead peer's soft state expires on its own timers, its
        caches on their TTL, and a setup ack or a maintenance ping it
        misses fails the setup or the session."""
        try:
            return await self.endpoint.call(peer, msg, sent=sent)
        except RpcError:
            return None

    def _apply_release(self, rid: int, keep: Set[Tuple], soft_only: bool = False) -> None:
        firm = None if soft_only else self._confirmed.get(rid)
        if firm:
            # a setup ack that failed after partially confirming (or a
            # torn-down session) leaves firm claims behind; cancel() puts
            # those back, so they must be released explicitly or the
            # capacity leaks for the lifetime of the pool
            for token in sorted(firm - keep):
                self.bcp.pool.release(token)
                firm.discard(token)
            if not firm:
                self._confirmed.pop(rid, None)
        mine = self._tokens.get(rid)
        if mine:
            self._drop_soft(rid, mine - keep)

    def _drop_soft(self, rid: int, tokens: Set[Tuple]) -> None:
        """Cancel those of ``tokens`` this daemon still holds soft for ``rid``."""
        mine = self._tokens.get(rid)
        if not mine:
            return
        for token in sorted(mine & tokens):
            self._cancel_timer(rid, token)
            try:
                self.bcp.pool.cancel(token)
            except InsufficientResources:
                pass
            mine.discard(token)
        if not mine:
            self._tokens.pop(rid, None)

    async def _on_release(self, src: int, msg: codec.SessionRelease) -> dict:
        self._apply_release(msg.request_id, {tuple(t) for t in msg.keep}, msg.soft_only)
        return {"ok": True}

    async def _on_confirm(self, src: int, msg: codec.SessionConfirm) -> dict:
        confirmed = self._apply_confirm(msg.request_id, {tuple(t) for t in msg.tokens})
        return {"confirmed": sorted(confirmed)}

    # ------------------------------------------------------------------
    # source side: result + session maintenance
    # ------------------------------------------------------------------
    async def _on_result(self, src: int, msg: codec.ComposeResult) -> dict:
        future = self._pending_results.get(msg.request_id)
        if future is not None and not future.done():
            future.set_result(msg)
        if msg.success and msg.graph is not None and msg.session_tokens:
            session = LiveSession(
                request_id=msg.request_id,
                graph=msg.graph,
                tokens=msg.session_tokens,
                established_at=loop_time(),
            )
            self.sessions[msg.request_id] = session
            self._trace("session_established", request=msg.request_id)
            if self.maint_interval:
                self._spawn(self._maintain(session))
        return {"ok": True}

    async def _maintain(self, session: LiveSession) -> None:
        """Periodic liveness pings to the session's service peers, all of
        them at once: a check costs one round trip, whatever the path's
        length.  A peer that does not answer fails the session."""
        peers = sorted(set(session.graph.peers()) - {self.peer_id})
        seq = 0
        while not self.stopped and not session.failed:
            await asyncio.sleep(self.maint_interval)
            if self.stopped or session.failed:
                return
            seq += 1
            ping = codec.MaintenancePing(session.request_id, seq)
            replies = await asyncio.gather(*(self._control(peer, ping) for peer in peers))
            session.pings += sum(reply is not None for reply in replies)
            dead = [peer for peer, reply in zip(peers, replies) if reply is None]
            if dead:
                session.failed = True
                self._trace("session_failure", request=session.request_id, failed_peer=dead[0])
                return

    async def _on_ping(self, src: int, msg: codec.MaintenancePing) -> dict:
        return {"alive": not self.stopped, "request": msg.request_id, "seq": msg.seq}

    # ------------------------------------------------------------------
    # directory slice
    # ------------------------------------------------------------------
    async def register_components(self, specs: List[ComponentSpec], now: float = 0.0) -> None:
        """Publish this peer's components over the wire (boot, churn).

        Each spec travels to the DHT owner of its function key and to
        that owner's replica-ring successors, so lookups survive the
        owner's death.  A row is visible to other peers only once the
        replica's ``RegisterBatch`` RPC completed — there is no
        read-your-own-unregistered-write through shared memory.

        The specs bound for one replica share one ``RegisterBatch``
        frame, and any content-*changing* registration (new function,
        replaced QoS) is followed by awaited ``ReplicaInvalidate``
        fan-out to exactly the peers that may hold a stale copy — the
        ones the replicas saw query the function — so churn is visible
        to other peers' caches as soon as this call returns.  At boot no
        peer has queried anything, so booting a cluster produces zero
        invalidation traffic.  The batches go out together, then the
        invalidations together: two round trips, however many replicas
        and queriers.  A replica that cannot be reached raises
        (:class:`~repro.net.rpc.RpcError`) only after every other one has
        the rows and the invalidations they named have been sent.
        """
        by_target: Dict[int, List[ComponentSpec]] = {}
        stale: Dict[str, Set[int]] = {}
        for spec in specs:
            key = key_for(spec.function)
            # our own positive cache may hold the pre-churn rows
            self._forget(spec.function)
            for target in self.ring.replica_peers(key):
                if target != self.peer_id:
                    by_target.setdefault(target, []).append(spec)
                elif self.directory.store(key, ServiceMetadata.from_spec(spec, registered_at=now)):
                    stale.setdefault(spec.function, set()).update(self.directory.queriers(key))
        # every replica target at once.  One that cannot be reached must
        # not stop the rest half-way: the rows go wherever they can, the
        # invalidations those replies name still go out, and only then
        # does the caller hear of the failure
        replies = await asyncio.gather(
            *(
                self.endpoint.call(
                    target,
                    codec.RegisterBatch(tuple(by_target[target]), registered_at=now),
                )
                for target in sorted(by_target)
            ),
            return_exceptions=True,
        )
        failed = next((r for r in replies if isinstance(r, BaseException)), None)
        for reply in replies:
            if isinstance(reply, dict):
                for function, holders in (reply.get("stale") or {}).items():
                    stale.setdefault(function, set()).update(holders)
        # churn fan-out: invalidate every peer that may cache pre-churn
        # state, awaited so the registration's completion implies
        # cluster-wide cache coherence (the churn test's contract); an
        # unreachable holder's staleness is bounded by its TTL
        fanout = []
        for function in sorted(stale):
            inval = codec.ReplicaInvalidate(function)
            for holder in sorted(stale[function]):
                if holder == self.peer_id:
                    self._forget(function)
                else:
                    fanout.append(self._control(holder, inval))
        await asyncio.gather(*fanout)
        if failed is not None:
            raise failed

    async def _on_register_batch(self, src: int, msg: codec.RegisterBatch) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        stale: Dict[str, List[int]] = {}
        for spec in msg.specs:
            key = key_for(spec.function)
            self._forget(spec.function)
            meta = ServiceMetadata.from_spec(spec, registered_at=msg.registered_at)
            if self.directory.store(key, meta):
                holders = self.directory.queriers(key)
                if holders:
                    stale[spec.function] = sorted(holders)
        reply: dict = {"ok": True}
        if stale:
            reply["stale"] = stale
        return reply

    async def _on_lookup(self, src: int, msg: codec.LookupRequest) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        key = key_for(msg.function)
        self.directory.note_querier(key, msg.origin_peer)
        return {"components": self.directory.lookup(key)}

    async def _on_replica_invalidate(self, src: int, msg: codec.ReplicaInvalidate) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        self._forget(msg.function)
        return {"ok": True}
