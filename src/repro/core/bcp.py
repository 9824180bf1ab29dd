"""Bounded Composition Probing (BCP) — paper §4.

The four steps of the protocol:

1. **Initialize the probe** — the source creates a probe carrying the
   function graph, the QoS/resource requirements and a probing budget β.
2. **Distributed probe processing** — each peer processes probes with
   local information only: check accumulated QoS/resources and drop
   violators, soft-allocate resources, derive next-hop functions from
   dependency *and commutation* links, discover duplicated components
   via the DHT, select the most promising ones within quota, split the
   budget, and spawn child probes (Fig. 6).
3. **Optimal composition selection** — the destination collects probes
   within a timeout, merges DAG branches into complete service graphs,
   filters by the user's QoS requirements, and picks the qualified graph
   with minimum ψλ (Eq. 1).
4. **Setup** — an ack travels the reversed service graph confirming the
   soft resource allocations and initialising components.

Two execution styles share this module's steps: the synchronous wave
execution below (probes processed in elapsed-time order, so the
collection timeout behaves like the event-driven original), and the live
peer daemon (:mod:`repro.net.peer`), which runs each step where the
paper does — admission at the receiving peer, :meth:`BCP.plan_children`
at the expanding one, :meth:`BCP.take_arrival`, :meth:`BCP.select_graph`
and :meth:`BCP.time_setup` at the destination — and charges the same
``bcp_*`` books through the engine's ledger.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..discovery.metadata import ServiceMetadata
from ..discovery.registry import ServiceRegistry, WaveLookupCache
from ..perf.timers import PhaseTimer
from ..sim.metrics import MessageLedger
from ..sim.rng import as_generator
from ..topology.overlay import Overlay
from .function_graph import CommutationPair, FunctionGraph
from .probe import Probe
from .qos import QoSVector
from .quota import QuotaPolicy, ReplicationProportionalQuota, split_budget
from .request import CompositeRequest
from .resources import ResourcePool
from .selection import CandidateGraph, admit_graph, merge_probes, select_composition
from .service_graph import ServiceGraph


__all__ = [
    "NextHopWeights",
    "BCPConfig",
    "CompositionResult",
    "BCP",
    "derive_next_functions",
]

SOURCE_ID = -1  # pseudo component id for the application sender
DEST_ID = -2  # pseudo component id for the receiver
HOP_PROCESSING_DELAY = 0.002  # per-hop probe handling cost (s)
COMPONENT_INIT_DELAY = 0.050  # per-component init during the ack pass (s)


@dataclass(frozen=True)
class NextHopWeights:
    """Weights of the composite next-hop selection metric (Step 2.3):
    network delay to the candidate, bandwidth headroom on the path to it,
    the candidate peer's failure probability, and (when a trust manager
    is attached — the §8 secure-composition extension) the candidate's
    distrust as seen by the request source."""

    delay: float = 0.4
    bandwidth: float = 0.3
    failure: float = 0.3
    trust: float = 0.0

    def __post_init__(self) -> None:
        if min(self.delay, self.bandwidth, self.failure, self.trust) < 0:
            raise ValueError("next-hop weights must be non-negative")
        if self.delay + self.bandwidth + self.failure + self.trust <= 0:
            raise ValueError("at least one next-hop weight must be positive")


@dataclass(frozen=True)
class BCPConfig:
    """Tunables of the probing protocol (defaults follow the paper)."""

    budget: int = 16
    quota_policy: QuotaPolicy = field(default_factory=ReplicationProportionalQuota)
    nexthop_weights: NextHopWeights = field(default_factory=NextHopWeights)
    collect_timeout: float = 5.0  # destination's probe collection window (s)
    explore_commutations: bool = True  # ablation: exchangeable orders on/off
    soft_allocation: bool = True  # ablation: probe-time reservations on/off
    metric_selection: bool = True  # ablation: composite metric vs random pruning
    objective: str = "cost"  # destination ranking: "cost" (ψλ) or "delay"


@dataclass
class CompositionResult:
    """Everything the source learns when BCP terminates."""

    request: CompositeRequest
    success: bool
    best: Optional[ServiceGraph] = None
    best_qos: Optional[QoSVector] = None
    best_cost: float = math.inf
    qualified: List[CandidateGraph] = field(default_factory=list)
    probes_sent: int = 0  # probe transmissions (hop messages)
    candidates_examined: int = 0  # probes that reached the destination
    setup_time: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    failure_reason: Optional[str] = None
    session_tokens: List[Tuple] = field(default_factory=list)

    @property
    def backup_candidates(self) -> List[CandidateGraph]:
        """Qualified graphs other than the selected one (for §5 backups)."""
        if self.best is None:
            return list(self.qualified)
        best_sig = self.best.signature()
        return [c for c in self.qualified if c.graph.signature() != best_sig]


def derive_next_functions(
    graph: FunctionGraph,
    current: Optional[str],
    applied: FrozenSet[CommutationPair],
    explore_commutations: bool = True,
) -> List[Tuple[str, FunctionGraph, FrozenSet[CommutationPair], bool]]:
    """Step 2.2: next-hop functions from dependency and commutation links.

    Returns ``(function, effective_graph, applied_swaps, is_dependency)``
    tuples.  Dependency successors keep the probe's current pattern; a
    commutation alternative Fl of a successor Fk rewrites the pattern
    with the pair exchanged (the probe visits Fl first).
    """
    deps = graph.sources() if current is None else graph.successors(current)
    out: List[Tuple[str, FunctionGraph, FrozenSet[CommutationPair], bool]] = [
        (fk, graph, applied, True) for fk in deps
    ]
    if not explore_commutations:
        return out
    for fk in deps:
        partner = graph.commutation_partner(fk)
        if partner is None:
            continue
        pair = frozenset({fk, partner})
        if pair in applied:
            continue
        if graph.ordered_pair(pair) == (fk, partner):
            swapped = graph.swap(fk, partner)
            out.append((partner, swapped, applied | {pair}, False))
    return out


class BCP:
    """The probing engine bound to one overlay/pool/registry triple."""

    def __init__(
        self,
        overlay: Overlay,
        pool: ResourcePool,
        registry: ServiceRegistry,
        config: Optional[BCPConfig] = None,
        ledger: Optional[MessageLedger] = None,
        peer_failure: Optional[Callable[[int], float]] = None,
        alive: Optional[Callable[[int], bool]] = None,
        rng=None,
        trust=None,
    ) -> None:
        self.overlay = overlay
        self.pool = pool
        self.registry = registry
        self.config = config or BCPConfig()
        self.ledger = ledger if ledger is not None else MessageLedger()
        self.peer_failure = peer_failure or (lambda peer: 0.01)
        self.alive = alive or (lambda peer: True)
        self.rng = as_generator(rng)
        # optional TrustManager (repro.trust) for secure composition: the
        # next-hop metric then penalises candidates the request source
        # distrusts (weight = config.nexthop_weights.trust)
        self.trust = trust
        # per-pair link QoS, memoized for the router it was read from (a
        # live daemon's plane swaps its overlay's router on a re-price),
        # and per-component Qp vectors, each kept with the Qp it came from
        # (a re-registration brings a new one)
        self._pair_qos: Dict[Tuple[int, int], QoSVector] = {}
        self._pair_qos_router = None
        self._comp_qos: Dict[int, Tuple[object, QoSVector]] = {}

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
    ) -> CompositionResult:
        """Run the full BCP protocol for one request.

        ``confirm=True`` leaves the winning graph's resource reservations
        held (as soft claims re-keyed under the returned session tokens);
        ``confirm=False`` releases everything (measurement-only runs).
        """
        beta = self.config.budget if budget is None else budget
        if beta < 1:
            raise ValueError(f"probing budget must be >= 1, got {beta}")
        result = CompositionResult(request=request, success=False)
        tokens: Set[Tuple] = set()
        wave = self.registry.wave_cache()
        timer = PhaseTimer()
        try:
            with timer.phase("probe"):
                arrivals, discovery_time = self._probe_phase(
                    request, beta, result, tokens, wave
                )
            result.phases["discovery"] = discovery_time
            with timer.phase("selection"):
                if not self.select_graph(request, arrivals, result, self.pool):
                    return result
            with timer.phase("setup"):
                result.success = self._setup_phase(request, result, tokens, confirm)
            return result
        finally:
            if not result.success or not confirm:
                # in a fixed order, so the float residues a cancel leaves
                # on a link do not depend on the hash seed
                for token in sorted(tokens):
                    self.pool.cancel(token)
                result.session_tokens = [] if not result.success else result.session_tokens
            # wall-clock breakdown (CPU spent in this process, distinct
            # from the simulated-seconds keys above) — see repro.perf
            result.phases.update(timer.as_dict(prefix="wall_"))

    def fail(self, result: CompositionResult, reason: str) -> None:
        """A composition ends without a graph: say why, charge the failure."""
        result.failure_reason = reason
        self.ledger.record("bcp_failure", 64)

    # ------------------------------------------------------------------
    # step 1 + 2: probing
    # ------------------------------------------------------------------
    def _probe_phase(
        self,
        request: CompositeRequest,
        beta: int,
        result: CompositionResult,
        tokens: Set[Tuple],
        wave: Optional[WaveLookupCache] = None,
    ) -> Tuple[List[Probe], float]:
        cfg = self.config
        root = Probe.initial(request, beta)
        # min-heap on elapsed time approximates event ordering, so the
        # destination timeout cuts off genuinely-late probes
        counter = itertools.count()
        queue: List[Tuple[float, int, Probe]] = [(0.0, next(counter), root)]
        arrivals: Dict[Tuple, Probe] = {}
        seen_children: Set[Tuple] = set()
        discovery_time = 0.0
        deadline = cfg.collect_timeout
        while queue:
            elapsed, _, probe = heapq.heappop(queue)
            if elapsed > deadline:
                continue  # late probe: destination already stopped collecting
            if probe.at_sink:
                self.take_arrival(probe, tokens, result, arrivals)
                continue
            children, lookup_rtt = self._expand(
                probe, tokens, result, seen_children, wave
            )
            if probe.branch == ():  # the source's initial lookups = discovery phase
                discovery_time = lookup_rtt
            for child in children:
                heapq.heappush(queue, (child.elapsed, next(counter), child))
        return list(arrivals.values()), discovery_time

    def _expand(
        self,
        probe: Probe,
        tokens: Set[Tuple],
        result: CompositionResult,
        seen_children: Set[Tuple],
        wave: Optional[WaveLookupCache] = None,
    ) -> Tuple[List[Probe], float]:
        """Per-hop probe processing (Steps 2.1–2.4) at ``probe.current_peer``."""
        cfg = self.config
        candidates = derive_next_functions(
            probe.graph, probe.current_function, probe.applied_swaps, cfg.explore_commutations
        )
        if not candidates:
            return [], 0.0
        # Step 2.3a: per-function discovery of duplicated components.
        # Lookups for all next-hop functions proceed in parallel; the
        # probe waits for the slowest one.  The wave cache elides repeat
        # DHT routing while charging the ledger for the logical query.
        lookup = self.registry.lookup if wave is None else wave.lookup
        lookups: List[List[ServiceMetadata]] = []
        max_rtt = 0.0
        for fn, _, _, _ in candidates:
            res = lookup(fn, probe.current_peer)
            lookups.append(res.components)
            max_rtt = max(max_rtt, res.rtt)
        children: List[Probe] = []
        plan = self.plan_children(probe, candidates, lookups, probe.budget)
        for fn, graph, applied, comp, child_budget in plan:
            result.probes_sent += 1
            child = self._admit(probe, fn, comp, graph, applied, child_budget, max_rtt, tokens)
            if child is None:
                continue
            key = child.dedup_key()
            if key in seen_children:
                continue
            seen_children.add(key)
            children.append(child)
        return children, max_rtt

    def plan_children(
        self,
        probe: Probe,
        candidates: Sequence[Tuple[str, FunctionGraph, FrozenSet[CommutationPair], bool]],
        lookups: Sequence[List[ServiceMetadata]],
        budget: int,
    ) -> Iterator[Tuple[str, FunctionGraph, FrozenSet[CommutationPair], ServiceMetadata, int]]:
        """Steps 2.3b–2.4 at the expanding peer: the child probes to send.

        ``candidates`` are :func:`derive_next_functions`' next hops and
        ``lookups`` their discovered duplicates.  ``budget`` is split
        over the functions by their quotas; each function's viable
        duplicates are ranked and the most promising sent a share.  Yields
        ``(function, graph, applied, component, child budget)`` per child
        and charges one ``bcp_probe`` for each.  Lazy: the synchronous
        engine admits every child before the next function's duplicates
        are scored, so scoring sees those admissions' reservations."""
        entries = [
            (fn, self.config.quota_policy(fn, len(comps)), is_dep)
            for (fn, _, _, is_dep), comps in zip(candidates, lookups)
        ]
        shares = split_budget(budget, entries)
        for idx, ((fn, graph, applied, _), comps) in enumerate(zip(candidates, lookups)):
            beta_k = shares.get(idx, 0)
            if beta_k < 1 or not comps:
                continue
            viable = self._filter_components(probe, comps)
            if not viable:
                continue
            i_k = min(beta_k, entries[idx][1], len(viable))
            chosen = self._select_components(probe, viable, i_k)
            child_budget = max(1, beta_k // max(len(chosen), 1))
            for comp in chosen:
                self.ledger.record("bcp_probe", 256)
                yield fn, graph, applied, comp, child_budget

    def _filter_components(
        self, probe: Probe, comps: Sequence[ServiceMetadata]
    ) -> List[ServiceMetadata]:
        """Function-qualified duplicates that are alive and quality-compatible."""
        prev = probe.last_component()
        out = []
        for c in comps:
            if not self.alive(c.peer):
                continue
            if prev is not None and not prev.output_quality.compatible_with(c.input_quality):
                continue
            out.append(c)
        return out

    def _select_components(
        self, probe: Probe, comps: List[ServiceMetadata], k: int
    ) -> List[ServiceMetadata]:
        """Step 2.3b: the Iₖ most promising duplicates by the composite metric."""
        if k >= len(comps):
            return list(comps)
        if not self.config.metric_selection:
            idx = self.rng.choice(len(comps), size=k, replace=False)
            return [comps[i] for i in idx]
        scores = self._score_components(probe, comps)
        ranked = sorted(
            [(score, c.component_id, i) for i, (score, c) in enumerate(zip(scores, comps))]
        )
        return [comps[i] for _, _, i in ranked[:k]]

    def _score_components(
        self, probe: Probe, comps: List[ServiceMetadata]
    ) -> List[float]:
        """The composite next-hop metric of each duplicate (lower is better):
        normalised delay, bandwidth-headroom penalty, normalised failure
        probability and, with a trust model, distrust.

        Row reads: the delays to every duplicate are one read of the
        router's row for ``current_peer``, and the paths' headroom one
        pool call."""
        w = self.config.nexthop_weights
        here = probe.current_peer
        peers = [c.peer for c in comps]
        delays = self.overlay.router.delays_to(here, peers)
        max_delay = max(max(delays), 1e-9)
        peer_failure = self.peer_failure
        fails = [peer_failure(p) for p in peers]
        max_fail = max(max(fails), 1e-9)
        if w.bandwidth > 0:
            out = probe.out_bandwidth
            penalties = [
                min(out / ba, 2.0) if 0.0 < ba < math.inf else 2.0
                for ba in self.pool.paths_available_bandwidth(here, peers)
            ]
        else:
            penalties = [0.0] * len(peers)
        w_delay, w_bandwidth, w_failure = w.delay, w.bandwidth, w.failure
        scores = [
            w_delay * d / max_delay + w_bandwidth * pen + w_failure * f / max_fail
            for d, pen, f in zip(delays, penalties, fails)
        ]
        if self.trust is not None and w.trust > 0:
            source, trust = probe.request.source_peer, self.trust.trust
            scores = [
                score + w.trust * (1.0 - trust(source, p)) for score, p in zip(scores, peers)
            ]
        return scores

    def _admit(
        self,
        probe: Probe,
        fn: str,
        comp: ServiceMetadata,
        graph: FunctionGraph,
        applied: FrozenSet[CommutationPair],
        budget: int,
        lookup_rtt: float,
        tokens: Set[Tuple],
    ) -> Optional[Probe]:
        """Step 2.1 at the receiving peer: QoS/resource check + soft allocation."""
        request = probe.request
        rid = request.request_id
        link_qos = self._link_qos(probe.current_peer, comp.peer)
        qos = probe.qos.plus(link_qos, self._qp_as_qos(comp))
        if request.qos.violation(qos) > 0:
            return None
        # bandwidth admission on the overlay path carrying this service link
        last = probe.last_component()
        from_id = SOURCE_ID if last is None else last.component_id
        link_token = (rid, "link", from_id, comp.component_id)
        if not self._reserve_path(link_token, probe.current_peer, comp.peer, probe.out_bandwidth, tokens):
            return None
        # end-system resources on the hosting peer
        comp_token = (rid, "comp", comp.component_id)
        if not self._reserve_peer(comp_token, comp.peer, comp.resources, tokens):
            return None
        # link_qos already carries latency(current_peer, comp.peer)
        elapsed = probe.elapsed + lookup_rtt + HOP_PROCESSING_DELAY + link_qos.get("delay")
        return probe.spawn(fn, comp, graph, applied, qos, budget, elapsed)

    def _final_hop(
        self, probe: Probe, tokens: Set[Tuple], result: CompositionResult
    ) -> Optional[Probe]:
        """The hop from the branch's last component to the destination peer."""
        request = probe.request
        result.probes_sent += 1
        self.ledger.record("bcp_probe", 256)
        last = probe.last_component()
        assert last is not None
        link_qos = self._link_qos(probe.current_peer, request.dest_peer)
        qos = probe.qos + link_qos
        if request.qos.violation(qos) > 0:
            return None
        link_token = (request.request_id, "link", last.component_id, DEST_ID)
        if not self._reserve_path(
            link_token, probe.current_peer, request.dest_peer, probe.out_bandwidth, tokens
        ):
            return None
        return probe.arrived(qos, probe.elapsed + HOP_PROCESSING_DELAY + link_qos.get("delay"))

    def take_arrival(
        self,
        probe: Probe,
        tokens: Set[Tuple],
        result: CompositionResult,
        arrivals: Dict[Tuple, Probe],
    ) -> Optional[Probe]:
        """The destination's intake of a probe at the sink: the final hop,
        then the collection deadline; ``arrivals`` keeps the earliest
        arrival per branch set.  Returns the arrival unless the final hop
        pruned it or it came too late."""
        arrival = self._final_hop(probe, tokens, result)
        if arrival is None or arrival.elapsed > self.config.collect_timeout:
            return None
        key = arrival.dedup_key()
        prev = arrivals.get(key)
        if prev is None or arrival.elapsed < prev.elapsed:
            arrivals[key] = arrival
        return arrival

    # ------------------------------------------------------------------
    # step 3: selection
    # ------------------------------------------------------------------
    def select_graph(
        self,
        request: CompositeRequest,
        arrivals: Sequence[Probe],
        result: CompositionResult,
        pool,
    ) -> bool:
        """Step 3 at the destination: merge the collected branches into
        candidate graphs and pick the qualified one with minimum ψλ,
        ranked against ``pool``'s availability (the engine's own pool, or
        a live destination's view of its whole wave's load).  A failure
        is charged; returns whether a graph was selected."""
        cfg = self.config
        result.candidates_examined = len(arrivals)
        if not arrivals:
            self.fail(result, "no probe reached the destination")
            return False
        candidates = merge_probes(request, arrivals, self.overlay)
        selection = select_composition(candidates, request.qos, pool, objective=cfg.objective)
        result.qualified = selection.qualified
        if selection.best is None:
            self.fail(result, f"no qualified service graph among {len(candidates)} candidates")
            return False
        result.best = selection.best.graph
        result.best_qos = selection.best.qos
        result.best_cost = selection.best.cost
        return True

    # ------------------------------------------------------------------
    # step 4: setup (ack pass)
    # ------------------------------------------------------------------
    def time_setup(self, result: CompositionResult) -> None:
        """Step 4's timing: the ack travels the reversed winning graph,
        initialising each component on its way, branches in parallel.
        Charges the ack hops and fills ``setup_time`` and the
        ``composition`` / ``setup_ack`` phases (``discovery`` is set)."""
        cfg = self.config
        ack_time = 0.0
        for peers in result.best.branch_paths():
            t = sum(
                self.overlay.latency(u, v) for u, v in zip(peers, peers[1:]) if u != v
            )
            t += COMPONENT_INIT_DELAY * (len(peers) - 2)
            ack_time = max(ack_time, t)
            self.ledger.record("bcp_ack", 128, max(len(peers) - 1, 1))
        arrivals_done = max((c.arrival_elapsed for c in result.qualified), default=0.0)
        probing_time = min(arrivals_done, cfg.collect_timeout)
        result.phases["composition"] = max(probing_time - result.phases.get("discovery", 0.0), 0.0)
        result.phases["setup_ack"] = ack_time
        result.setup_time = probing_time + ack_time

    def _setup_phase(
        self,
        request: CompositeRequest,
        result: CompositionResult,
        tokens: Set[Tuple],
        confirm: bool,
    ) -> bool:
        best = result.best
        assert best is not None
        self.time_setup(result)
        # keep the winning graph's reservations; drop the rest
        keep = self._tokens_of(best, request.request_id)
        for token in sorted(tokens):
            if token not in keep:
                self.pool.cancel(token)
                tokens.discard(token)
        if not confirm:
            return True
        if self.config.soft_allocation:
            for token in keep:
                if self.pool.has_token(token):
                    self.pool.confirm(token)
            result.session_tokens = sorted(tokens)
            return True
        # without probe-time reservations admission happens only now,
        # against whatever state concurrent requests left — the
        # conflicted-admission risk soft allocation removes
        token = (request.request_id, "session")
        if not admit_graph(best, self.pool, token):
            result.best = None
            self.fail(result, "admission failed at setup (no soft allocation)")
            return False
        result.session_tokens = [token]
        return True

    def _tokens_of(self, graph: ServiceGraph, rid: int) -> Set[Tuple]:
        keep: Set[Tuple] = set()
        for cid in graph.component_ids():
            keep.add((rid, "comp", cid))
        for link in graph.service_links():
            from_id = SOURCE_ID if link.from_fn is None else graph.component(link.from_fn).component_id
            to_id = DEST_ID if link.to_fn is None else graph.component(link.to_fn).component_id
            keep.add((rid, "link", from_id, to_id))
        return keep

    def _required_tokens(self, graph: ServiceGraph, rid: int) -> Set[Tuple]:
        """The subset of ``_tokens_of`` that was actually reserved.

        ``_reserve_path`` never allocates for a same-peer hop (e.g. the
        last component hosted on the destination itself), so those link
        tokens exist in the keep set but not in the pool.  Setup-ack
        checks must not treat them as expired reservations."""
        cid_peer = {m.component_id: m.peer for m in graph.assignment.values()}
        required: Set[Tuple] = set()
        for token in self._tokens_of(graph, rid):
            if token[1] == "link":
                _, _, from_id, to_id = token
                u = graph.source_peer if from_id == SOURCE_ID else cid_peer[from_id]
                v = graph.dest_peer if to_id == DEST_ID else cid_peer[to_id]
                if u == v:
                    continue
            required.add(token)
        return required

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _link_qos(self, u: int, v: int) -> QoSVector:
        router = self.overlay.router
        if router is not self._pair_qos_router:
            self._pair_qos = {}
            self._pair_qos_router = router
        key = (u, v)
        hit = self._pair_qos.get(key)
        if hit is not None:
            return hit
        if u == v:
            out = QoSVector({"delay": 0.0, "loss": 0.0})
        else:
            out = QoSVector({"delay": router.delay(u, v), "loss": router.path_loss_add(u, v)})
        self._pair_qos[key] = out
        return out

    def _qp_as_qos(self, comp: ServiceMetadata) -> QoSVector:
        qp = comp.qp
        hit = self._comp_qos.get(comp.component_id)
        if hit is not None and hit[0] is qp:
            return hit[1]
        values = qp.values
        out = QoSVector({"delay": values.get("delay", 0.0), "loss": values.get("loss", 0.0)})
        self._comp_qos[comp.component_id] = (qp, out)
        return out

    def _reserve_peer(self, token: Tuple, peer: int, res, tokens: Set[Tuple]) -> bool:
        if not self.config.soft_allocation:
            return self.pool.can_host(peer, res)
        if self.pool.has_token(token):
            return True  # another probe of this request already reserved it
        if not self.pool.soft_allocate_peer(token, peer, res):
            return False
        tokens.add(token)
        return True

    def _reserve_path(
        self, token: Tuple, src: int, dst: int, bandwidth: float, tokens: Set[Tuple]
    ) -> bool:
        if src == dst:
            return True
        if not self.config.soft_allocation:
            return self.pool.can_carry(src, dst, bandwidth)
        if self.pool.has_token(token):
            return True
        if not self.pool.soft_allocate_path(token, src, dst, bandwidth):
            return False
        tokens.add(token)
        return True
