"""The live peer daemon: SpiderNet's per-hop protocol over a transport.

Each daemon owns one overlay peer id and processes protocol messages as
they are delivered — a step becomes an asyncio task only where it has to
wait (a directory miss, a reply it needs) — *calling the wrapped*
:class:`~repro.core.bcp.BCP` *methods the synchronous engine runs* —
every step of the paper's §4 is decided once, in ``bcp.py``, and
charged to the engine's ledger:

* ``BCP._admit`` — Step 2.1 admission (QoS check + soft alloc) at the
  probe's *receiving* peer,
* ``derive_next_functions`` + ``BCP.plan_children`` — Steps 2.2–2.4 at
  the expanding peer: quotas, the budget split, filtering, next-hop
  selection and the child budgets, one ``bcp_probe`` per child,
* ``BCP.take_arrival`` — the destination's intake: final hop, collection
  deadline, earliest arrival per branch set,
* ``BCP.select_graph`` — Step 3, ranked over a :class:`_WaveLoadView`
  of the whole wave's load,
* ``BCP.time_setup`` + ``BCP._tokens_of`` / ``BCP._required_tokens`` —
  the Step 4 ack pass: its timing and ``bcp_ack`` charges, and the tokens
  it confirms.

What is the daemon's own is what a network adds: discovery over the
wire, termination credit, the report bundles and the release wave.

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
cannot come — the destination is already known down — does the source
wait for it, so a compose that is not going to run still costs one round
trip and zero probes.  In the same spirit the setup ack, a
registration's batches and its invalidations each go to all their peers
at once: no round trip waits for another it does not depend on.

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
``net_directory`` charges shrink (``cache_hits`` / ``cache_misses``
count the hits and misses).  A hit is answered on the spot: an
expansion builds tasks only for the lookups that miss.  The key's
replicas remember who queried it, and a content-changing re-registration awaits a
``ReplicaInvalidate`` to each of those peers, so it returns only once
every warm cache has forgotten the old rows; the TTL bounds the
staleness of a querier the fan-out could not reach (see
``docs/ARCHITECTURE.md`` for the exact window).
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Coroutine, Dict, List, Optional, Sequence, Set, Tuple

from ..core.bcp import BCP, CompositionResult, derive_next_functions
from ..core.probe import Probe
from ..core.request import CompositeRequest
from ..core.resources import InsufficientResources
# Step 3 runs in BCP.select_graph; the names stay importable here for
# bench/trace.py, which patches them at this module
from ..core.selection import merge_probes, select_composition  # noqa: F401
from ..core.service_graph import ServiceGraph
from ..dht.id_space import key_for
from ..dht.ring import RingSnapshot
from ..discovery.metadata import ServiceMetadata
from ..services.component import ComponentSpec
from . import codec
from .directory import DirectorySlice
from .rpc import Deadlines, RpcEndpoint, RpcError, eager
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


def _time_out(outcome: asyncio.Future) -> None:
    """A compose's wall timeout: end the wait unless the result won."""
    if not outcome.done():
        outcome.set_exception(asyncio.TimeoutError())


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
    deadline: Optional[list] = None  # the wall-clock fallback's Deadlines entry
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
        # the wave's link reports, re-keyed by the router's link index
        link_index = pool.overlay.router.link_index
        self._link_used = {link_index(u, v): bw for (u, v), bw in link_used.items()}

    @property
    def resource_types(self):
        return self._pool.resource_types

    def available_amount(self, peer: int, rtype: str) -> float:
        base = self._pool.available_amount(peer, rtype)
        return max(base - self._peer_used.get((peer, rtype), 0.0), 0.0)

    def path_available_bandwidth(self, src: int, dst: int) -> float:
        if src == dst:
            return math.inf
        pool, wave = self._pool, self._link_used
        cap, used = pool._link_cap, pool._link_used
        low = min(
            max(cap[i] - used[i], 0.0) - wave.get(i, 0.0)
            for i in pool.overlay.router.link_index_list(src, dst)
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
        trace=None,
        soft_timeout: float = 30.0,
        collect_wall_timeout: float = 10.0,
        maint_interval: Optional[float] = None,
        measurement=None,
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
        self.trace = trace
        self.soft_timeout = soft_timeout
        self.collect_wall_timeout = collect_wall_timeout
        self.maint_interval = maint_interval
        # measurement plane (None when measurement is disabled): fed by
        # the endpoint's RTT/failure hooks, owner of the active prober
        self.measurement = measurement
        self.stopped = False
        self.errors: List[str] = []
        # structured retry-exhaustion records (RpcFailure) — expected
        # failure-path data (dead peers), deliberately separate from
        # ``errors``, which stays reserved for daemon *bugs*
        self.rpc_failures: List = []
        self._tokens: Dict[int, Set[Tuple]] = {}  # rid -> soft tokens owned here
        self._confirmed: Dict[int, Set[Tuple]] = {}  # rid -> firm tokens owned here
        # every timeout this daemon keeps — soft-token expiries, collection
        # windows' and parked frames' wall-clock fallbacks, compose
        # timeouts — on one loop timer; (rid, token) -> its expiry entry
        self._deadlines = Deadlines()
        self._timers: Dict[Tuple[int, Tuple], list] = {}
        # rid -> the Probe.dedup_key()s of the children admitted here: probe
        # dedup, which ends with the rid's soft tokens here (_drop_request)
        self._seen: Dict[int, Set[Tuple]] = {}
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
        # rid -> (expiry entry, frames in arrival order); and the rids
        # whose window will not open (again), which is what makes a frame
        # without a window late instead of early: rid -> when it is
        # forgotten, oldest first (see _close)
        self._parked: Dict[int, Tuple[list, List]] = {}
        self._closed: Dict[int, float] = {}
        self._pending_results: Dict[int, asyncio.Future] = {}
        self.sessions: Dict[int, LiveSession] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._unstarted: Dict[Coroutine, asyncio.Handle] = {}  # spawned, first step pending
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

    def _spawn(self, coro: Coroutine) -> None:
        """Run ``coro`` from the next loop turn — as ``create_task`` would,
        so a probe is processed after its ack is with the transport — but
        eagerly: only if it suspends does the rest become a task."""
        self._unstarted[coro] = asyncio.get_running_loop().call_soon(self._start, coro)

    def _start(self, coro: Coroutine) -> None:
        del self._unstarted[coro]
        try:
            task, _ = eager(coro)
        except Exception as exc:
            self._error(exc)
        else:
            if task is not None:
                self._track(task)

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self._error(task.exception())

    def _error(self, exc: BaseException) -> None:
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
        self._deadlines.close()
        self._timers.clear()
        self._parked.clear()
        self._closed.clear()
        self._miss_flight.clear()
        for coro, handle in self._unstarted.items():
            handle.cancel()
            coro.close()
        self._unstarted.clear()
        for task in list(self._tasks):
            task.cancel()
        self.endpoint.stop()

    async def drain(self) -> None:
        """Await all in-flight tasks (clean teardown path)."""
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.endpoint.drain()

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
        self._timers[(rid, token)] = self._deadlines.add(
            loop_time() + self.soft_timeout, self._expire_token, rid, token
        )

    def _expire_token(self, rid: int, token: Tuple) -> None:
        self._timers.pop((rid, token), None)
        mine = self._tokens.get(rid)
        if mine is None or token not in mine:
            return
        mine.discard(token)
        if not mine:
            self._drop_request(rid)
        try:
            self.bcp.pool.cancel(token)
        except InsufficientResources:
            pass  # became firm concurrently; release() owns it now
        self._trace("reservation_expired", request=rid, token=list(token))

    def _drop_request(self, rid: int) -> None:
        """``rid`` holds no soft token here (released, confirmed, expired,
        or none ever admitted): its per-request state goes, probe dedup
        with it.  Every admitted child leaves a token (live refuses
        ``soft_allocation=False``), and ``soft_timeout`` outlasts the
        collection window, so no wave of ``rid`` is running here then."""
        self._tokens.pop(rid, None)
        self._seen.pop(rid, None)

    def _cancel_timer(self, rid: int, token: Tuple) -> None:
        entry = self._timers.pop((rid, token), None)
        if entry is not None:
            self._deadlines.cancel(entry)

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
        # resolves to the ComposeResult — or to the begin's RpcError, if
        # that ends the compose first
        outcome: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending_results[rid] = outcome
        self._trace("compose_started", request=rid, dest=dest, budget=beta)
        begin = codec.ComposeBegin(rid, request, beta, confirm)
        overlapped: Optional[asyncio.Task] = None
        deadline: Optional[list] = None
        try:
            if self._peer_down(dest):
                # the reply cannot come (the destination is known dead): a
                # compose that is not going to run costs one round trip and
                # zero probes
                await self._begin(dest, begin, outcome)
            else:
                # nothing in the reply is needed to probe: the wave leaves
                # behind the begin, not behind its round trip.  Started
                # eagerly, the begin is with the transport before the wave
                # is, so on the source -> destination link it precedes the
                # wave's frames; only the wait for its reply is a task
                overlapped, _ = eager(self._begin(dest, begin, outcome))
                if overlapped is not None:
                    self._track(overlapped)
            if not outcome.done():
                await self._expand(Probe.initial(request, beta), CREDIT, rid)
            wall = timeout if timeout is not None else self.collect_wall_timeout + 30.0
            deadline = self._deadlines.add(loop_time() + wall, _time_out, outcome)
            msg = await outcome
        finally:
            self._pending_results.pop(rid, None)
            if deadline is not None:
                self._deadlines.cancel(deadline)
            if overlapped is not None:
                overlapped.cancel()
        if isinstance(msg, RpcError):
            raise msg
        return self._result_from_message(request, msg)

    async def _begin(self, dest: int, msg: codec.ComposeBegin, outcome: asyncio.Future) -> None:
        """Open the destination's window; only a failure is news to the
        compose, and ends it through ``outcome``."""
        try:
            await self.endpoint.call(dest, msg)
        except RpcError as exc:
            if not outcome.done():
                outcome.set_result(exc)

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
            self._return_credit(rid, request.dest_peer, credit, "no-next-hop", cargo)
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
        budget = probe.budget
        sends = list(self.bcp.plan_children(probe, candidates, lookups, budget))
        if not sends:
            self._return_credit(rid, request.dest_peer, credit, "exhausted", cargo)
            return
        shares = _split_credit(credit, budget, [send[-1] for send in sends])
        # what the destination must learn — with it, how many probes this
        # fan-out sends — rides one share of the credit, the first child's:
        # it gets there once, before the credit is whole
        self._bundles_made += 1
        count = (self.peer_id, self._bundles_made, (), (), len(sends))
        cargoes = [(cargo[0] + (count,), cargo[1])] + [_NO_CARGO] * (len(sends) - 1)
        for send, share, carried in zip(sends, shares, cargoes):
            self._send_probe(rid, probe, *send, max_rtt, share, carried)

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

    def _send_probe(
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
        self.endpoint.post(comp.peer, msg, self._probe_lost)

    def _probe_lost(self, msg: codec.ProbeTransfer) -> None:
        """The retry/backoff path ran dry: report the credit as lost so the
        destination's window can still close without the fallback."""
        rid = msg.request_id
        self._trace("probe_lost", request=rid, to_peer=msg.component.peer, function=msg.function)
        self._return_credit(
            rid, msg.parent.request.dest_peer, msg.credit, "lost", (msg.reports, msg.discovery)
        )

    def _return_credit(
        self, rid: int, dest_peer: int, credit: int, reason: str, cargo=_NO_CARGO
    ) -> None:
        # a destination that cannot be reached closes the window by its
        # wall-clock fallback
        self.endpoint.post(dest_peer, codec.CreditReturn(rid, credit, reason, *cargo))

    # ------------------------------------------------------------------
    # step 2.1: admission at the receiving peer
    # ------------------------------------------------------------------
    async def _on_probe(self, src: int, msg: codec.ProbeTransfer) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        # ack first; admission and further expansion run from the next turn,
        # so deep probe chains never stack RPC timeouts
        self._spawn(self._process_probe(msg))
        return {"ok": True}

    async def _process_probe(self, msg: codec.ProbeTransfer) -> None:
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
        if not toks:
            self._drop_request(rid)  # no token here: no release will come
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
        else:
            seen = self._seen.setdefault(rid, set())
            key = child.dedup_key()
            if key in seen:
                dropped = "duplicate"
            else:
                seen.add(key)
                dropped = "late" if child.elapsed > cfg.collect_timeout else None
        cargo = (reports, msg.discovery)
        if dropped is not None:
            self._return_credit(rid, request.dest_peer, msg.credit, dropped, cargo)
        elif child.at_sink:
            self.endpoint.post(
                request.dest_peer, codec.FinalProbe(rid, child, msg.credit, *cargo)
            )
        else:
            await self._expand(child, msg.credit, rid, cargo)

    # ------------------------------------------------------------------
    # destination side: collection window
    # ------------------------------------------------------------------
    async def _on_begin(self, src: int, msg: codec.ComposeBegin) -> dict:
        if self.stopped:
            return {"error": "stopped"}
        rid = msg.request_id
        if rid in self._collections:
            return {"ok": True}
        col = _Collection(
            request=msg.request,
            confirm=msg.confirm,
            budget=msg.budget,
            result=CompositionResult(request=msg.request, success=False),
            started=loop_time(),
        )
        col.deadline = self._deadlines.add(
            loop_time() + self.collect_wall_timeout, self._wall_timeout, rid
        )
        self._collections[rid] = col
        for early in self._unpark(rid):
            self._count(col, early)
        return {"ok": True}

    def _wall_timeout(self, rid: int) -> None:
        self._spawn(self._finalize(rid, "wall-timeout"))

    def _arrive(self, msg) -> dict:
        """A credit-carrying frame finds its window in one of three states.

        *Open*: counted.  *Late* — closed, by the wall-clock fallback:
        nobody will book the holders the frame names or send them
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
                expiry = self._deadlines.add(
                    loop_time() + self.collect_wall_timeout, self._expire_parked, rid
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
            arrival = self.bcp.take_arrival(msg.probe, toks, col.result, col.arrivals)
            for token in toks - before:
                self._arm_expiry(rid, token)
            if arrival is not None:
                self._trace("arrival", request=rid, branch=list(arrival.branch))
        col.credit += msg.credit
        if col.credit >= CREDIT and not col.done:
            self._spawn(self._finalize(rid, "credit-complete"))

    def _unpark(self, rid: int) -> List:
        """The frames parked for ``rid`` in arrival order, their expiry disarmed."""
        expiry, frames = self._parked.pop(rid, (None, []))
        if expiry is not None:
            self._deadlines.cancel(expiry)
        return frames

    def _expire_parked(self, rid: int) -> None:
        """No window will open for ``rid`` (its begin was lost):
        from here its frames are late, the parked ones included."""
        self._close(rid)
        self._release_named(rid, self._unpark(rid), ())

    def _close(self, rid: int) -> None:
        """``rid``'s window will not open (again): remember it for
        ``soft_timeout``.  By then every soft token of its wave has
        expired, so a frame still naming it would find nothing to free
        that has not freed itself; a straggler after that is parked and
        released as late by :meth:`_expire_parked`, like one whose begin
        was lost.  The table is insertion-ordered with one expiry per
        rid, so it is swept from the front, on one deadline at a time."""
        closed, forget_at = self._closed, loop_time() + self.soft_timeout
        if not closed:
            self._deadlines.add(forget_at, self._sweep_closed, forget_at)
        closed.pop(rid, None)  # re-closed: to the back, in expiry order
        closed[rid] = forget_at

    def _sweep_closed(self, due: float) -> None:
        # a timer may run a clock tick early: what it was armed for is due
        closed, now, expired = self._closed, max(due, loop_time()), []
        for rid, forget_at in closed.items():
            if forget_at > now:
                self._deadlines.add(forget_at, self._sweep_closed, forget_at)
                break
            expired.append(rid)
        for rid in expired:
            del closed[rid]

    def _release_named(self, rid: int, frames, keep: Tuple[Tuple, ...]) -> None:
        """One soft-only release to every holder ``frames`` name."""
        release = codec.SessionRelease(rid, keep, soft_only=True)
        holders = {
            h for msg in frames for h, _, peers, links, _ in msg.reports if peers or links
        }
        for holder in sorted(holders):
            self.endpoint.post(holder, release)

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
        if col.deadline is not None:
            self._deadlines.cancel(col.deadline)
        request = col.request
        result = col.result
        result.probes_sent += col.probes_sent
        result.phases["discovery"] = col.discovery
        # rank against the whole wave's load, not just the claims this
        # destination admitted itself
        wave_pool = _WaveLoadView(self.bcp.pool, col.wave_peer_used, col.wave_link_used)
        success = self.bcp.select_graph(request, list(col.arrivals.values()), result, wave_pool)
        keep: Set[Tuple] = set()  # measurement-only: the winner's tokens go too
        if success:
            self.bcp.time_setup(result)
            if col.confirm:
                keep = self.bcp._tokens_of(result.best, rid)
        # one wave: every reservation of this request but the ones kept,
        # handed to the transport and not waited for
        handed = self._release(col, keep)
        if success and col.confirm:
            # same-peer hops never reserved a link token, so only the
            # tokens that must exist can fail the setup ack
            required = self.bcp._required_tokens(result.best, rid)
            confirmed = await self._confirm_session(rid, keep, result.best)
            if confirmed != required:
                result.best = None
                result.best_qos = None
                result.best_cost = math.inf
                self.bcp.fail(result, "setup ack found expired reservation or dead peer")
                # per-link FIFO keeps this wave behind the first one
                handed += self._release(col, set())
                success = False
            else:
                result.session_tokens = sorted(confirmed)
        result.success = success
        self._collections.pop(rid, None)
        self._close(rid)
        self._trace(
            "compose_finished", request=rid, success=success, why=why,
            arrivals=len(col.arrivals), probes=result.probes_sent,
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
        # the result leaves behind every release frame: a release still
        # dialling its holder holds the result until it is through.  When
        # compose returns, the releases are on the wire
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
            self._drop_request(rid)
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
                self.endpoint.post(peer, msg, sent=sent)
                handed.append(sent)
        return handed

    async def _control(self, peer: int, msg) -> Optional[dict]:
        """A control call whose failure is an answer (``None``), not an
        error: a dead peer's caches expire on their TTL, and a setup ack
        or a maintenance ping it misses fails the setup or the session."""
        try:
            return await self.endpoint.call(peer, msg)
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
        if mine is not None:
            self._drop_soft(rid, mine - keep)

    def _drop_soft(self, rid: int, tokens: Set[Tuple]) -> None:
        """Cancel those of ``tokens`` this daemon still holds soft for ``rid``."""
        mine = self._tokens.get(rid)
        if mine is None:
            return
        for token in sorted(mine & tokens):
            self._cancel_timer(rid, token)
            try:
                self.bcp.pool.cancel(token)
            except InsufficientResources:
                pass
            mine.discard(token)
        if not mine:
            self._drop_request(rid)

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
        length.  A peer that does not answer ``alive`` fails the session:
        no reply, an error reply and a stopped daemon's ``alive: False``
        alike."""
        peers = sorted(set(session.graph.peers()) - {self.peer_id})
        seq = 0
        while not self.stopped and not session.failed:
            await asyncio.sleep(self.maint_interval)
            if self.stopped or session.failed:
                return
            seq += 1
            ping = codec.MaintenancePing(session.request_id, seq)
            replies = await asyncio.gather(*(self._control(peer, ping) for peer in peers))
            alive = [isinstance(reply, dict) and reply.get("alive") is True for reply in replies]
            session.pings += sum(alive)
            dead = [peer for peer, up in zip(peers, alive) if not up]
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
