"""The comparison algorithms of the paper's evaluation (§6.1).

* **optimal** — unbounded network flooding: exhaustively examines every
  candidate service graph (all composition patterns × all duplicate
  choices) and picks the best qualified one.  Its probe count is the
  denominator of the "probing-X" fractions (e.g. 17³ = 4913 in §6.2).
* **random** — picks a uniformly random functionally-qualified component
  per function; ignores QoS and resource requirements.
* **static** — picks a fixed, pre-defined component per function (the
  lowest component id — "first deployed"); also requirement-oblivious.
* **centralized** — the global-view scheme SpiderNet is compared against
  for overhead: every peer pushes periodic state updates to a central
  composer, which then runs the same exhaustive selection on its (maybe
  stale) cached view.  Its message cost = N peers × update rate, accounted
  in the shared ledger under ``"state_update"``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..discovery.metadata import ServiceMetadata
from ..discovery.registry import ServiceRegistry
from ..sim.metrics import MessageLedger
from ..sim.rng import as_generator
from ..topology.overlay import Overlay
from .bcp import CompositionResult
from .cost import CostWeights, psi_cost
from .qos import QoSVector
from .request import CompositeRequest
from .resources import ResourcePool, ResourceVector
from .selection import (
    CandidateGraph,
    SelectionOutcome,
    admit_graph,
    select_composition,
)
from .service_graph import ServiceGraph

__all__ = [
    "admit_graph",
    "enumerate_candidates",
    "optimal_probe_count",
    "SearchSpaceExceeded",
    "OptimalComposer",
    "RandomComposer",
    "StaticComposer",
    "CentralizedComposer",
]


class SearchSpaceExceeded(ValueError):
    """The optimal composer refused a request beyond its size guard."""


def enumerate_candidates(
    request: CompositeRequest,
    duplicates: Dict[str, List[ServiceMetadata]],
    overlay: Overlay,
    alive: Callable[[int], bool] = lambda p: True,
    max_patterns: int = 8,
    limit: Optional[int] = None,
) -> List[CandidateGraph]:
    """Every complete service graph over every composition pattern."""
    fg = request.function_graph
    out: List[CandidateGraph] = []
    seen: Set[Tuple] = set()
    for _, pattern in fg.composition_patterns(max_patterns):
        order = pattern.topological_order()
        pools = []
        for fn in order:
            comps = [c for c in duplicates.get(fn, []) if alive(c.peer)]
            if not comps:
                pools = None
                break
            pools.append(comps)
        if pools is None:
            continue
        for combo in itertools.product(*pools):
            assignment = dict(zip(order, combo))
            if not _quality_consistent(pattern, assignment):
                continue
            graph = ServiceGraph(
                pattern=pattern,
                assignment=assignment,
                source_peer=request.source_peer,
                dest_peer=request.dest_peer,
                base_bandwidth=request.bandwidth,
            )
            sig = graph.signature()
            if sig in seen:
                continue
            seen.add(sig)
            out.append(CandidateGraph(graph=graph, qos=graph.end_to_end_qos(overlay)))
            if limit is not None and len(out) >= limit:
                return out
    return out


def _quality_consistent(pattern, assignment: Dict[str, ServiceMetadata]) -> bool:
    for a, b in pattern.edges:
        if not assignment[a].output_quality.compatible_with(assignment[b].input_quality):
            return False
    return True


def optimal_probe_count(
    request: CompositeRequest,
    duplicates: Dict[str, List[ServiceMetadata]],
    max_patterns: int = 8,
) -> int:
    """Probes the unbounded flooding scheme needs: Σ over patterns of Π Zᵢ."""
    total = 0
    for _, pattern in request.function_graph.composition_patterns(max_patterns):
        prod = 1
        for fn in pattern.functions:
            prod *= max(len(duplicates.get(fn, [])), 0)
        total += prod
    return total




@dataclass
class _ComposerBase:
    """Shared plumbing for the global-knowledge composers."""

    overlay: Overlay
    pool: ResourcePool
    registry: ServiceRegistry
    ledger: MessageLedger = field(default_factory=MessageLedger)
    alive: Callable[[int], bool] = lambda p: True
    cost_weights: Optional[CostWeights] = None
    max_patterns: int = 8
    objective: str = "cost"  # destination ranking: "cost" (ψλ) or "delay"

    def _duplicates(self, request: CompositeRequest) -> Dict[str, List[ServiceMetadata]]:
        return {
            fn: self.registry.duplicates(fn)
            for fn in request.function_graph.functions
        }

    def _result(
        self,
        request: CompositeRequest,
        selection: SelectionOutcome,
        probes: int,
        confirm: bool,
    ) -> CompositionResult:
        result = CompositionResult(request=request, success=False, probes_sent=probes)
        result.qualified = selection.qualified
        result.candidates_examined = selection.n_candidates
        if selection.best is None:
            result.failure_reason = "no qualified service graph"
            return result
        token = (request.request_id, "session")
        if confirm:
            if not admit_graph(selection.best.graph, self.pool, token):
                result.failure_reason = "admission failed at setup"
                return result
            result.session_tokens = [token]
        result.best = selection.best.graph
        result.best_qos = selection.best.qos
        result.best_cost = selection.best.cost
        result.success = True
        return result


class OptimalComposer(_ComposerBase):
    """Unbounded flooding ground truth: provably best qualified graph.

    The *message accounting* is still exhaustive — the ledger is charged
    ``optimal_probe_count`` flood probes, the denominator of the paper's
    "probing-X" fractions — but the *evaluation* now runs through the
    exact branch-and-bound of :mod:`repro.core.strategies.search` instead
    of materialising every Π Zᵢ combination: lower-bound and dominance
    pruning are value-preserving, so the selected graph (and its
    cost/QoS) is identical to full enumeration while mid-size graphs
    that previously could not finish now do.

    ``max_search_space`` guards the raw combination count; beyond it the
    ground truth is declined with :class:`SearchSpaceExceeded` (use the
    ``backtrack``/``decompose`` strategies there — they are anytime, this
    class must prove optimality).
    """

    DEFAULT_MAX_SEARCH_SPACE = 10_000_000

    def __init__(self, *args, max_search_space: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.max_search_space = (
            self.DEFAULT_MAX_SEARCH_SPACE if max_search_space is None else max_search_space
        )
        self.last_counters = None  # OpCounters of the most recent compose

    def compose(self, request: CompositeRequest, confirm: bool = True) -> CompositionResult:
        from ..perf.counters import OpCounters
        from .strategies.search import search_compositions

        duplicates = self._duplicates(request)
        probes = optimal_probe_count(request, duplicates, self.max_patterns)
        if probes > self.max_search_space:
            raise SearchSpaceExceeded(
                f"optimal composition over {probes} candidate graphs exceeds the "
                f"size guard ({self.max_search_space}); raise max_search_space or "
                f"use an anytime strategy ('backtrack' or 'decompose') instead"
            )
        self.ledger.record("flood_probe", 256, probes)
        counters = OpCounters()
        outcome = search_compositions(
            request,
            duplicates,
            self.overlay,
            self.pool,
            alive=self.alive,
            cost_weights=self.cost_weights,
            objective=self.objective,
            max_patterns=self.max_patterns,
            node_limit=None,  # exhaustive-equivalent: run to proven optimality
            top_k=64,
            counters=counters,
        )
        self.last_counters = counters
        result = self._result(request, outcome.selection(), probes, confirm)
        result.phases.update(counters.as_phases())
        return result


class RandomComposer(_ComposerBase):
    """Random functionally-qualified choice; requirement-oblivious."""

    def __init__(self, *args, rng=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rng = as_generator(rng)

    def compose(self, request: CompositeRequest, confirm: bool = True) -> CompositionResult:
        duplicates = self._duplicates(request)
        fg = request.function_graph
        assignment: Dict[str, ServiceMetadata] = {}
        for fn in fg.functions:
            comps = [c for c in duplicates.get(fn, []) if self.alive(c.peer)]
            if not comps:
                return CompositionResult(
                    request=request, success=False, failure_reason=f"no component for {fn}"
                )
            assignment[fn] = comps[int(self.rng.integers(0, len(comps)))]
        self.ledger.record("random_setup", 128, len(fg))
        return self._finish(request, assignment, confirm)

    def _finish(
        self, request: CompositeRequest, assignment: Dict[str, ServiceMetadata], confirm: bool
    ) -> CompositionResult:
        graph = ServiceGraph(
            pattern=request.function_graph,
            assignment=assignment,
            source_peer=request.source_peer,
            dest_peer=request.dest_peer,
            base_bandwidth=request.bandwidth,
        )
        qos = graph.end_to_end_qos(self.overlay)
        result = CompositionResult(request=request, success=False, probes_sent=len(assignment))
        result.best = graph
        result.best_qos = qos
        # success requires function, resource AND QoS satisfaction — the
        # requirement-oblivious choice may well fail these (that is the point)
        if not request.qos.satisfied_by(qos):
            result.failure_reason = "QoS requirement violated"
            return result
        token = (request.request_id, "session")
        if not admit_graph(graph, self.pool, token):
            result.failure_reason = "insufficient resources"
            return result
        if confirm:
            result.session_tokens = [token]
        else:
            self.pool.release(token)
        result.best_cost = psi_cost(graph, self.pool, self.cost_weights)
        result.success = True
        return result


class StaticComposer(RandomComposer):
    """Pre-defined component per function: the lowest component id."""

    def compose(self, request: CompositeRequest, confirm: bool = True) -> CompositionResult:
        duplicates = self._duplicates(request)
        assignment: Dict[str, ServiceMetadata] = {}
        for fn in request.function_graph.functions:
            comps = self.registry.duplicates(fn, include_down=True)
            if not comps:
                return CompositionResult(
                    request=request, success=False, failure_reason=f"no component for {fn}"
                )
            static_choice = min(comps, key=lambda c: c.component_id)
            if not self.alive(static_choice.peer):
                # the pre-defined component's host is down: the static
                # scheme has no fallback, the request simply fails
                return CompositionResult(
                    request=request,
                    success=False,
                    failure_reason=f"static component for {fn} is down",
                )
            assignment[fn] = static_choice
        self.ledger.record("static_setup", 128, len(assignment))
        return self._finish(request, assignment, confirm)


class CentralizedComposer(_ComposerBase):
    """Global-view composition over periodically refreshed cached state.

    ``refresh()`` models one update round.  Two dissemination models:

    * ``"global-view"`` (default, the scheme §6.1 compares against):
      every peer maintains the global view, because any peer may act as
      a composition source — so each peer's state update must reach all
      N−1 other peers, costing N·(N−1) message deliveries per round
      (application-level multicast lower bound).  This is what makes
      periodic maintenance "more than one order of magnitude" costlier
      than on-demand probing.
    * ``"server"`` — a single directory server: N messages per round
      (every peer uploads once).  Cheaper, but reintroduces the central
      infrastructure P2P systems exclude; provided for comparison.

    ``compose`` selects on the *cached* snapshot — between refreshes the
    view is stale, which is precisely the imprecision the paper argues
    periodic global-state maintenance suffers from — but admission is
    then performed against live state (a session either fits or fails).
    """

    def __init__(
        self,
        *args,
        dissemination: str = "global-view",
        max_search_space: Optional[int] = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if dissemination not in ("global-view", "server"):
            raise ValueError(f"unknown dissemination model {dissemination!r}")
        self.dissemination = dissemination
        self.max_search_space = (
            OptimalComposer.DEFAULT_MAX_SEARCH_SPACE
            if max_search_space is None
            else max_search_space
        )
        self._cached_available: Dict[int, ResourceVector] = {}
        self.refreshes = 0

    def refresh(self) -> None:
        """One global state-update round (messages into the ledger)."""
        peers = self.overlay.peers()
        for p in peers:
            self._cached_available[p] = self.pool.available(p)
        n = len(peers)
        msgs = n * (n - 1) if self.dissemination == "global-view" else n
        self.ledger.record("state_update", 512, msgs)
        self.refreshes += 1

    def compose(self, request: CompositeRequest, confirm: bool = True) -> CompositionResult:
        if not self._cached_available:
            self.refresh()
        duplicates = self._duplicates(request)
        combos = optimal_probe_count(request, duplicates, self.max_patterns)
        if combos > self.max_search_space:
            raise SearchSpaceExceeded(
                f"centralized composition over {combos} candidate graphs exceeds "
                f"the size guard ({self.max_search_space}); raise max_search_space "
                f"or use an anytime strategy ('backtrack' or 'decompose') instead"
            )
        candidates = enumerate_candidates(
            request, duplicates, self.overlay, self.alive, self.max_patterns
        )
        # rank on the cached view: filter by Qreq, order by a ψ-like cost
        # computed against cached availability
        qualified: List[CandidateGraph] = []
        for cand in candidates:
            if not request.qos.satisfied_by(cand.qos):
                continue
            cand.cost = self._cached_cost(cand.graph)
            if math.isfinite(cand.cost):
                qualified.append(cand)
        qualified.sort(key=lambda c: (c.cost, c.qos.values.get("delay", 0.0)))
        selection = SelectionOutcome(
            best=qualified[0] if qualified else None,
            qualified=qualified,
            n_candidates=len(candidates),
        )
        self.ledger.record("centralized_setup", 128, len(request.function_graph))
        return self._result(request, selection, probes=0, confirm=confirm)

    def _cached_cost(self, graph: ServiceGraph) -> float:
        weights = self.cost_weights or CostWeights.uniform(self.pool.resource_types)
        total = 0.0
        for meta in graph.components():
            avail = self._cached_available.get(meta.peer)
            if avail is None:
                return math.inf
            for rtype, w in weights.resource_weights.items():
                demand = meta.resources.get(rtype)
                if w == 0.0 or demand == 0.0:
                    continue
                a = avail.get(rtype)
                if a <= 1e-9:
                    return math.inf
                total += w * demand / a
        # link bandwidth is read live even in centralized schemes (edge
        # routers report utilisation); keep the same term as psi_cost
        for link in graph.service_links():
            if link.src_peer == link.dst_peer or link.bandwidth <= 0:
                continue
            ba = self.pool.path_available_bandwidth(link.src_peer, link.dst_peer)
            if ba <= 1e-9:
                return math.inf
            if not math.isinf(ba):
                total += weights.bandwidth_weight * link.bandwidth / ba
        return total
