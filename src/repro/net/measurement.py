"""Peer-local topology measurement plane: live link state for live BCP.

The shared :class:`~repro.topology.overlay.Overlay` is a *declared*
snapshot: link delays come from the IP model (or WAN RTT model) at build
time and never change.  The paper's framework, by contrast, treats the
overlay as continuously *measured* — peers benchmark their links and
react to degradation.  This module closes that gap for the live runtime
without touching the simulator substrates:

* **Passive measurement** — every RPC round-trip already crosses the
  link; :class:`~repro.net.rpc.RpcEndpoint` reports per-call RTTs via
  its ``on_rtt`` hook, so hot paths are measured for free.  Two kinds of
  exchange are never sampled (Karn's rule): one that was retransmitted,
  whose RTT is ambiguous, and one whose send waited for a dial or on
  backpressure, whose wait was the connection's and not the link's.
* **Active probing** — each daemon's :class:`MeasurementPlane`
  periodically sends ``PathProbe`` frames (answered with ``ProbeAck``)
  to a bounded set of its overlay neighbours, charged to the
  ``net_measure`` ledger category — but only where traffic has not
  measured: a neighbour that took a sample within the last interval is
  skipped.  Down paths are probed first and failing ones always, so a
  dead peer is detected, and a recovered one re-admitted, at the pace of
  the probe cycle whatever the traffic.
* **Estimation** — per-destination :class:`LinkEstimator` maintains a
  TCP-style smoothed RTT (``srtt``/``rttvar`` EWMA).  After a warm-up
  it locks a *baseline*; estimates that stop receiving samples decay
  back toward that baseline with a fixed half-life (``DECAY_HALFLIFE``),
  so stale measurements cannot steer routing forever.
* **Dead-path detection** — ``DOWN_AFTER`` consecutive RPC/probe
  failures to a peer trigger :meth:`MeasurementPlane.mark_path_down`;
  any later successful exchange (typically a recovery probe) triggers
  :meth:`~MeasurementPlane.mark_path_up`.
* **Adaptive routing** — a sample feeds its estimator and marks the link
  dirty, nothing more.  Once per probe interval the plane judges every
  dirty link and pushes the verdicts into a :class:`MeasuredOverlayView`
  layered over the static overlay as *one* mutation: at most one router
  is built per daemon and interval.  The view keeps the base topology's
  edge set and canonical link order (so
  :class:`~repro.core.resources.ResourcePool` lists stay aligned) but
  re-prices individual links and prices down-peer links at ``inf``;
  paths the mutation did not move keep their memoised lists, and the
  view's listeners — BCP's per-pair QoS cache — are told exactly which
  ``(src, dst)`` pairs it did move.

**Parity by construction, under load too.**  Wall-clock RTTs and modeled
delays live in different unit systems, so measurements are applied as
*ratios*: a link's modeled delay is scaled by ``srtt / baseline``, and
only when the inflation is material (``MATERIAL_RATIO``) *and* stands
clear of the estimator's own noise (``max(MIN_DELTA, 4 x rttvar)`` above
baseline).  Scheduler jitter under load inflates ``rttvar`` along with
``srtt``, so it cannot pass the second test however often it passes the
first; an installed scale is held through a band below the gate, so a
ratio hovering there does not flap.  Over an unchanged topology no
override is ever installed, and the view delegates every query verbatim
to the base overlay — selections are bit-identical to the static
substrates, which is what the parity suite asserts with measurement on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import codec
from .rpc import RetryPolicy, RpcError
from ..sim.vtime import loop_time

__all__ = [
    "MeasurementConfig",
    "LinkEstimator",
    "MeasuredOverlayView",
    "MeasurementPlane",
]

Link = Tuple[int, int]


def _canon(a: int, b: int) -> Link:
    return (a, b) if a < b else (b, a)


# seconds between probe cycles; each cycle ends in the interval's one
# routing decision
PROBE_INTERVAL = 0.5
# static overlay neighbours probed per cycle (nearest by declared delay)
PROBE_FANOUT = 3
# hard cap on probes sent per cycle, recovery probes included
PROBE_BUDGET = 8
# a probe's one attempt (probes never retry: a retried RTT is ambiguous,
# and the failure itself is the dead-path signal)
PROBE_RETRY = RetryPolicy(timeout=0.25, retries=0, backoff=0.01)
# EWMA gains (TCP RFC 6298 defaults: srtt 1/8, rttvar 1/4)
ALPHA = 0.125
BETA = 0.25
# samples before the baseline RTT locks (and deltas become meaningful)
WARMUP = 3
# seconds without a sample before the estimate starts decaying back
# toward baseline, and the half-life of that decay
STALE_AFTER = 5.0
DECAY_HALFLIFE = 5.0
# consecutive exhausted exchanges before mark_path_down fires
DOWN_AFTER = 3
# a link is re-priced only when srtt/baseline reaches this ratio AND
# the estimate is above baseline by max(MIN_DELTA, 4 x rttvar) — keeps
# scheduler jitter from ever perturbing routing (the parity guarantee).
# Half the ratio's excess over 1 is the band an installed scale is held
# through (MeasurementPlane._reprice)
MATERIAL_RATIO = 1.5
MIN_DELTA = 0.002


@dataclass(frozen=True)
class MeasurementConfig:
    """Settings of the peer-local measurement plane.

    ``enabled=False`` reproduces the pre-measurement behaviour exactly:
    no plane is built, so no probe traffic, no passive sampling, no
    routing adaptation.
    """

    enabled: bool = True


class LinkEstimator:
    """Smoothed RTT for one measured path (TCP-style srtt/rttvar EWMA).

    The first sample seeds ``srtt``; after ``WARMUP`` samples the
    then-current ``srtt`` locks in as the *baseline* — the path's normal
    RTT, against which later inflation is judged.  :meth:`estimate`
    applies staleness decay: once no sample has arrived for
    ``STALE_AFTER`` seconds, the deviation from baseline halves every
    ``DECAY_HALFLIFE`` seconds, so an estimator that stops being fed
    gracefully forgets a transient spike instead of pinning it forever.
    """

    __slots__ = ("srtt", "rttvar", "baseline", "samples", "last_at")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.baseline: Optional[float] = None
        self.samples: int = 0
        self.last_at: float = 0.0

    def add_sample(self, rtt: float, now: float) -> None:
        if rtt < 0:
            return
        self.samples += 1
        self.last_at = now
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.rttvar += BETA * (abs(err) - self.rttvar)
            self.srtt += ALPHA * err
        if self.baseline is None and self.samples >= WARMUP:
            self.baseline = self.srtt

    def estimate(self, now: float) -> Optional[float]:
        """Current smoothed RTT with staleness decay applied."""
        if self.srtt is None:
            return None
        if self.baseline is None:
            return self.srtt
        age = now - self.last_at
        if age <= STALE_AFTER:
            return self.srtt
        halves = (age - STALE_AFTER) / DECAY_HALFLIFE
        return self.baseline + (self.srtt - self.baseline) * (0.5 ** halves)

    def ratio(self, now: float) -> float:
        """Measured inflation over baseline (1.0 until warm-up locks)."""
        if self.baseline is None or self.baseline <= 0:
            return 1.0
        est = self.estimate(now)
        return est / self.baseline if est is not None else 1.0


class MeasuredOverlayView:
    """An overlay facade layering measured deltas onto the static map.

    With no deltas installed every query delegates verbatim to the base
    overlay (:attr:`router` *is* the base's router, so memoized paths are
    shared) — selections are bit-identical to the static substrate by
    construction.  A delta puts a private
    :meth:`~repro.topology.routing.OverlayRouter.reweighted` router over
    the *same* graph object in its place: scaled links carry
    ``declared_delay x scale``, links incident to a down peer carry
    ``inf``.  The edge set and canonical link order are unchanged, so
    pool capacity/usage lists indexed by ``router.link_order`` remain
    valid.

    **Invalidation contract.**  Every mutation builds its router at once
    and compares it with the one it replaces: pairs that route as before
    keep their memoised path lists (the same objects), and listeners
    registered with :meth:`add_route_listener` get exactly the ordered
    ``(src, dst)`` pairs whose delay or path changed — BCP drops those
    per-pair QoS entries and nothing else.  When the last delta clears,
    the view delegates to the shared base router again.
    """

    def __init__(self, base) -> None:
        self.base = base
        self.graph = base.graph
        self.router = base.router
        self._scales: Dict[Link, float] = {}
        self._down: Set[int] = set()
        self._loss_cache: Dict[Tuple[int, int], float] = {}
        self._route_listeners: List[Callable[[List[Tuple[int, int]]], None]] = []
        self.rebuilds = 0  # private routers built (cost telemetry)

    # -- delegation ----------------------------------------------------
    def __getattr__(self, name):
        # anything not overridden (ip_of, ip_graph, kind, ...) is the base's
        return getattr(self.base, name)

    @property
    def n_peers(self) -> int:
        return self.base.n_peers

    def peers(self) -> List[int]:
        return self.base.peers()

    @property
    def private(self) -> bool:
        """Whether a delta is installed: the view routes on a router of
        its own instead of delegating to the shared base router."""
        return self.router is not self.base.router

    def latency(self, a: int, b: int) -> float:
        return self.router.delay(a, b)

    def link_bandwidth(self, a: int, b: int) -> float:
        return self.base.link_bandwidth(a, b)

    def link_loss_add(self, a: int, b: int) -> float:
        return self.base.link_loss_add(a, b)

    def path_loss_add(self, a: int, b: int) -> float:
        """Additive loss along the *measured* route a->b.

        Unlike the base overlay this guards unreachability (a down peer
        prices its links at ``inf``): an unreachable pair reports ``inf``
        loss rather than raising, mirroring the delay metric.
        """
        router = self.router
        if router is self.base.router:
            return self.base.path_loss_add(a, b)
        if a == b:
            return 0.0
        key = (a, b)
        hit = self._loss_cache.get(key)
        if hit is None:
            if not router.reachable(a, b):
                hit = float("inf")
            else:
                hit = sum(
                    self.base.link_loss_add(u, v) for u, v in router.links(a, b)
                )
            self._loss_cache[key] = hit
        return hit

    def add_route_listener(
        self, callback: Callable[[List[Tuple[int, int]]], None]
    ) -> None:
        """``callback(pairs)`` after every mutation, with the ordered
        ``(src, dst)`` pairs whose delay or path it changed."""
        self._route_listeners.append(callback)

    def add_cache_listener(self, callback: Callable[[], None]) -> None:
        """The base overlay's coarser hook: ``callback()`` after every
        mutation, whatever it changed."""
        self._route_listeners.append(lambda pairs: callback())

    # -- mutation surface (driven by MeasurementPlane) -----------------
    @property
    def down_peers(self) -> Set[int]:
        return set(self._down)

    @property
    def link_scales(self) -> Dict[Link, float]:
        return dict(self._scales)

    def set_link_scales(self, scales: Dict[Link, Optional[float]]) -> bool:
        """Install (``None``: clear) delay multipliers for any number of
        overlay links as *one* mutation — one router, one notification.
        Returns whether anything changed."""
        dirty = False
        for link, scale in scales.items():
            link = _canon(*link)
            if link not in self.graph.edges:
                continue
            if scale is None:
                dirty |= self._scales.pop(link, None) is not None
            elif self._scales.get(link) != scale:
                self._scales[link] = float(scale)
                dirty = True
        if dirty:
            self._reroute()
        return dirty

    def set_peer_down(self, peer: int) -> bool:
        if peer in self._down:
            return False
        self._down.add(peer)
        self._reroute()
        return True

    def clear_peer_down(self, peer: int) -> bool:
        if peer not in self._down:
            return False
        self._down.discard(peer)
        self._reroute()
        return True

    def reset(self) -> None:
        """Drop every measured delta (used on peer restart)."""
        if self._scales or self._down:
            self._scales.clear()
            self._down.clear()
            self._reroute()

    def _reroute(self) -> None:
        """Swap in the router of the current deltas and tell listeners
        which pairs it moved."""
        old, shared = self.router, self.base.router
        overrides: Dict[Link, float] = {
            link: float(self.graph.edges[link]["delay"]) * scale
            for link, scale in self._scales.items()
        }
        if self._down:
            for u, v in self.graph.edges:
                if u in self._down or v in self._down:
                    overrides[_canon(u, v)] = float("inf")
        if overrides:
            new = shared.reweighted(overrides)
            self.rebuilds += 1
        else:
            new = shared
        changed = old.changed_pairs(new)
        if new is not shared:
            new.adopt_cache(old, changed)
        self.router = new
        for pair in changed:
            self._loss_cache.pop(pair, None)
        for callback in self._route_listeners:
            callback(changed)


class MeasurementPlane:
    """One live peer's measurement state: prober, estimators, path health.

    Samples arrive through two funnels, both wired by the daemon:

    * ``record_rtt(peer, rtt, method)`` — from the endpoint's ``on_rtt``
      hook (first-attempt successes only) and from answered probes;
    * ``record_failure(peer, method)`` — from the endpoint's
      ``on_failure`` hook whenever an RPC exhausts its retries.

    A sample only feeds its estimator and marks the path dirty.  Routing
    is decided once per probe interval, by :meth:`_reprice` at the end of
    each probe cycle, and pushed into the daemon's own
    :class:`MeasuredOverlayView`.  Path up/down transitions are the
    exception — rare, and urgent — and reach the view at once.
    """

    def __init__(
        self,
        peer_id: int,
        endpoint,
        view: MeasuredOverlayView,
        trace=None,
        clock: Callable[[], float] = loop_time,
    ) -> None:
        self.peer_id = peer_id
        self.endpoint = endpoint
        self.view = view
        self._trace = trace
        self._clock = clock
        # bounded probe set: this peer's direct overlay neighbours,
        # nearest (by declared delay) first
        graph = view.base.graph
        neighbours = sorted(
            graph.neighbors(peer_id),
            key=lambda q: float(graph.edges[peer_id, q]["delay"]),
        )
        self.neighbours: List[int] = neighbours[:PROBE_FANOUT]
        # only direct links re-price (a sample to any other peer measured
        # a multi-hop path)
        self._adjacent = frozenset(neighbours)
        self._estimators: Dict[int, LinkEstimator] = {}
        self._failures: Dict[int, int] = {}
        self._down: Dict[int, float] = {}  # peer -> clock() at transition
        self._dirty: Set[int] = set()  # peers sampled since the last _reprice
        self._task: Optional[asyncio.Task] = None
        self._seq = 0
        self._rotate = 0
        # counters (summed by LiveCluster.measurement_stats)
        self.probes_sent = 0
        self.probes_suppressed = 0
        self.probe_failures = 0
        self.samples_active = 0
        self.samples_passive = 0
        self.down_events = 0
        self.up_events = 0
        self.reprices = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Begin the active probe loop (needs a running event loop)."""
        if self._task is not None:
            return
        self._task = asyncio.get_running_loop().create_task(
            self._probe_loop(), name=f"measure-{self.peer_id}"
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def rebind(self, endpoint) -> None:
        """Re-home the plane on a fresh endpoint after a peer restart.

        A restarted process has no memory: estimators, failure counters
        and any routing deltas this peer had installed are dropped."""
        self.stop()
        self.endpoint = endpoint
        self._estimators.clear()
        self._failures.clear()
        self._down.clear()
        self._dirty.clear()
        self._seq = 0
        self.view.reset()

    # -- active probing ------------------------------------------------
    async def _probe_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(PROBE_INTERVAL)
                await self._probe_cycle()
                self._reprice(self._clock())
        except asyncio.CancelledError:
            pass

    def _targets(self) -> List[int]:
        """This cycle's probe targets, recovery probes first.

        Down paths can only come back via a successful probe, so they
        always make the cut; remaining budget goes to the neighbour set,
        rotated so a fanout larger than the budget still covers every
        neighbour over successive cycles.  A neighbour that traffic
        measured within the last interval needs no probe: its estimator
        is fresher than a probe would leave it.  (A probe's own ack never
        suppresses the next one — the interval's sleep starts after it.)
        A neighbour whose last exchange failed is probed regardless, so
        dead-path detection runs at the same pace as ever."""
        targets = sorted(self._down)
        if self.neighbours:
            n = len(self.neighbours)
            start = self._rotate % n
            self._rotate += 1
            now, interval = self._clock(), PROBE_INTERVAL
            for q in self.neighbours[start:] + self.neighbours[:start]:
                if q in self._down:
                    continue
                est = self._estimators.get(q)
                if (
                    est is not None
                    and est.samples
                    and now - est.last_at < interval
                    and not self._failures.get(q)
                ):
                    self.probes_suppressed += 1
                else:
                    targets.append(q)
        return targets[:PROBE_BUDGET]

    async def _probe_cycle(self) -> None:
        loop = asyncio.get_running_loop()
        for target in self._targets():
            self._seq += 1
            self.probes_sent += 1
            # the wire tap books the frame itself under ``net_measure``
            t0 = loop.time()
            try:
                # ignore_down: recovery probes are exactly the calls that
                # must still reach a marked-down peer — with the RPC
                # layer's peer_down fail-fast applied here, a downed path
                # could never be observed coming back up
                await self.endpoint.call(
                    target,
                    codec.PathProbe(origin=self.peer_id, seq=self._seq, sent_at=t0),
                    retry=PROBE_RETRY,
                    ignore_down=True,
                )
            except RpcError:
                # the endpoint's on_failure hook already routed this into
                # record_failure; here the loop just moves on
                continue

    # -- sample intake -------------------------------------------------
    def record_rtt(self, peer: int, rtt: float, method: str = "") -> None:
        """One measured round-trip to ``peer`` (active or passive)."""
        if method == "PathProbe":
            self.samples_active += 1
        else:
            self.samples_passive += 1
        now = self._clock()
        est = self._estimators.get(peer)
        if est is None:
            est = self._estimators[peer] = LinkEstimator()
        est.add_sample(rtt, now)
        self._failures[peer] = 0
        if peer in self._down:
            self.mark_path_up(peer)
        self._dirty.add(peer)

    def record_failure(self, peer: int, method: str = "") -> None:
        """One exhausted exchange toward ``peer`` (probe or RPC)."""
        if method == "PathProbe":
            self.probe_failures += 1
        count = self._failures.get(peer, 0) + 1
        self._failures[peer] = count
        if peer not in self._down and count >= DOWN_AFTER:
            self.mark_path_down(peer)

    # -- path health ---------------------------------------------------
    def mark_path_down(self, peer: int) -> None:
        if peer in self._down:
            return
        now = self._down[peer] = self._clock()
        self.down_events += 1
        if self._trace is not None:
            self._trace.record(
                "path_down", now, peer=self.peer_id, target=peer,
                failures=self._failures.get(peer, 0),
            )
        self.view.set_peer_down(peer)

    def mark_path_up(self, peer: int) -> None:
        if peer not in self._down:
            return
        del self._down[peer]
        self._failures[peer] = 0
        self.up_events += 1
        if self._trace is not None:
            self._trace.record("path_up", self._clock(), peer=self.peer_id, target=peer)
        self.view.clear_peer_down(peer)

    def is_down(self, peer: int) -> bool:
        return peer in self._down

    @property
    def down_paths(self) -> List[int]:
        return sorted(self._down)

    # -- routing adaptation --------------------------------------------
    def _reprice(self, now: float) -> None:
        """The interval's one routing decision: judge every adjacent link
        sampled since the last one, and every link still carrying a
        scale, and push all the verdicts into the view as one mutation.

        A link is judged on its *own* excess over baseline: what its
        estimate shows beyond the excess common to the other paths
        sampled this interval (their lower median).  Queueing in this
        peer's own event loop inflates every path alike and is no
        property of a link; a degraded link stands out from its siblings.

        *Install* when that inflation is material (``MATERIAL_RATIO``)
        and stands clear of the estimator's own noise, ``max(MIN_DELTA,
        4 x rttvar)`` — the RFC 6298 deviation that also sizes TCP's
        retransmit timer.  An installed scale is *held* through a band
        half as wide as the gate's excess over 1 (0.25 at the default
        1.5): it is replaced when the ratio moves by more than that band
        relative to it (and by more than the noise), and *cleared* only
        under ``1 + band`` — so a ratio hovering at the gate installs
        once instead of flapping.  Ratio-scaled; see the module docstring
        for the unit argument."""
        fresh, self._dirty = self._dirty, set()
        me = self.peer_id
        gate = MATERIAL_RATIO
        band = (gate - 1.0) / 2.0
        applied = {b if a == me else a: k for (a, b), k in self.view.link_scales.items()}
        excess: Optional[Dict[int, float]] = None  # of the fresh paths, on demand
        verdicts: Dict[int, Optional[float]] = {}
        for peer in fresh & self._adjacent | applied.keys():
            est = self._estimators.get(peer)
            if est is None or not est.baseline:
                continue
            baseline = est.baseline
            scale = applied.get(peer)
            own = est.estimate(now) - baseline
            if scale is None and own < (gate - 1.0) * baseline:
                continue  # immaterial whatever the other paths read
            if excess is None:
                excess = {
                    q: e.estimate(now) - e.baseline
                    for q in fresh
                    if (e := self._estimators.get(q)) is not None and e.baseline
                }
            others = sorted(x for q, x in excess.items() if q != peer)
            if others:
                own -= max(0.0, others[(len(others) - 1) // 2])
            ratio = 1.0 + own / baseline
            noise = max(MIN_DELTA, 4.0 * est.rttvar) / baseline
            if scale is None:
                if ratio >= gate and ratio - 1.0 >= noise:
                    verdicts[peer] = ratio
            elif ratio < 1.0 + band:
                verdicts[peer] = None
            elif abs(ratio - scale) > max(band * scale, noise):
                verdicts[peer] = ratio
        if verdicts and self.view.set_link_scales(
            {(me, peer): ratio for peer, ratio in verdicts.items()}
        ):
            self.reprices += len(verdicts)
            if self._trace is not None:
                for peer, ratio in verdicts.items():
                    self._trace.record(
                        "link_repriced", now, peer=me, target=peer,
                        ratio=round(ratio or 1.0, 3),
                    )

    # -- introspection -------------------------------------------------
    def estimator(self, peer: int) -> Optional[LinkEstimator]:
        return self._estimators.get(peer)
