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
  for overhead: every peer pushes periodic state updates to every other
  peer, and the composer runs the same exhaustive selection on its
  (maybe stale) cached view.  Its message cost = N·(N−1) per update
  round, accounted in the shared ledger under ``"state_update"``.

Each is a :class:`~repro.core.strategies.base.CompositionStrategy`
registered under its name, built by
``create_strategy(name, ctx, **options)`` over a
:class:`~repro.core.strategies.base.StrategyContext`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..discovery.metadata import ServiceMetadata
from ..perf.counters import OpCounters
from ..sim.rng import as_generator
from ..topology.overlay import Overlay
from .bcp import CompositionResult
from .cost import psi_cost
from .request import CompositeRequest
from .resources import ResourcePool, ResourceVector
from .selection import CandidateGraph, SelectionOutcome, admit_graph
from .service_graph import ServiceGraph
from .strategies.base import (
    CompositionStrategy,
    StrategyContext,
    finalize_selection,
    register_strategy,
)
from .strategies.search import search_compositions

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


@register_strategy
class OptimalComposer(CompositionStrategy):
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

    name = "optimal"
    DEFAULT_MAX_SEARCH_SPACE = 10_000_000

    def __init__(self, ctx: StrategyContext, max_search_space: Optional[int] = None) -> None:
        super().__init__(ctx)
        self.max_search_space = (
            self.DEFAULT_MAX_SEARCH_SPACE if max_search_space is None else max_search_space
        )

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        ctx = self.ctx
        duplicates = ctx.duplicates(request)
        probes = optimal_probe_count(request, duplicates, ctx.max_patterns)
        if probes > self.max_search_space:
            raise SearchSpaceExceeded(
                f"optimal composition over {probes} candidate graphs exceeds the "
                f"size guard ({self.max_search_space}); raise max_search_space or "
                f"use an anytime strategy ('backtrack' or 'decompose') instead"
            )
        ctx.ensure_ledger().record("flood_probe", 256, probes)
        counters = OpCounters()
        outcome = search_compositions(
            request,
            duplicates,
            ctx.overlay,
            ctx.pool,
            alive=ctx.alive_fn,
            cost_weights=ctx.cost_weights,
            objective=ctx.objective,
            max_patterns=ctx.max_patterns,
            node_limit=None,  # exhaustive-equivalent: run to proven optimality
            top_k=64,
            counters=counters,
        )
        result = finalize_selection(request, outcome.selection(), ctx.pool, probes, confirm)
        result.phases.update(counters.as_phases())
        return result


@register_strategy
class RandomComposer(CompositionStrategy):
    """Random functionally-qualified choice; requirement-oblivious.

    ``rng`` defaults to the context's generator."""

    name = "random"

    def __init__(self, ctx: StrategyContext, rng=None) -> None:
        super().__init__(ctx)
        self.rng = as_generator(ctx.rng if rng is None else rng)

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        ctx = self.ctx
        duplicates = ctx.duplicates(request)
        alive = ctx.alive_fn
        fg = request.function_graph
        assignment: Dict[str, ServiceMetadata] = {}
        for fn in fg.functions:
            comps = [c for c in duplicates.get(fn, []) if alive(c.peer)]
            if not comps:
                return CompositionResult(
                    request=request, success=False, failure_reason=f"no component for {fn}"
                )
            assignment[fn] = comps[int(self.rng.integers(0, len(comps)))]
        ctx.ensure_ledger().record("random_setup", 128, len(fg))
        return self._finish(request, assignment, confirm)

    def _finish(
        self, request: CompositeRequest, assignment: Dict[str, ServiceMetadata], confirm: bool
    ) -> CompositionResult:
        pool = self.ctx.pool
        graph = ServiceGraph(
            pattern=request.function_graph,
            assignment=assignment,
            source_peer=request.source_peer,
            dest_peer=request.dest_peer,
            base_bandwidth=request.bandwidth,
        )
        qos = graph.end_to_end_qos(self.ctx.overlay)
        result = CompositionResult(request=request, success=False, probes_sent=len(assignment))
        result.best = graph
        result.best_qos = qos
        # success requires function, resource AND QoS satisfaction — the
        # requirement-oblivious choice may well fail these (that is the point)
        if not request.qos.satisfied_by(qos):
            result.failure_reason = "QoS requirement violated"
            return result
        token = (request.request_id, "session")
        if not admit_graph(graph, pool, token):
            result.failure_reason = "insufficient resources"
            return result
        if confirm:
            result.session_tokens = [token]
        else:
            pool.release(token)
        result.best_cost = psi_cost(graph, pool, self.ctx.cost_weights)
        result.success = True
        return result


@register_strategy
class StaticComposer(RandomComposer):
    """Pre-defined component per function: the lowest component id."""

    name = "static"

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        ctx = self.ctx
        assignment: Dict[str, ServiceMetadata] = {}
        for fn in request.function_graph.functions:
            comps = ctx.registry.duplicates(fn, include_down=True)
            if not comps:
                return CompositionResult(
                    request=request, success=False, failure_reason=f"no component for {fn}"
                )
            static_choice = min(comps, key=lambda c: c.component_id)
            if not ctx.alive_fn(static_choice.peer):
                # the pre-defined component's host is down: the static
                # scheme has no fallback, the request simply fails
                return CompositionResult(
                    request=request,
                    success=False,
                    failure_reason=f"static component for {fn} is down",
                )
            assignment[fn] = static_choice
        ctx.ensure_ledger().record("static_setup", 128, len(assignment))
        return self._finish(request, assignment, confirm)


class _CachedView:
    """The pool as the centralized composer sees it: peer resources from
    the last refresh, path bandwidth live (edge routers report
    utilisation), so :func:`psi_cost` ranks against the cached view."""

    def __init__(self, cached: Dict[int, ResourceVector], pool: ResourcePool) -> None:
        self._cached = cached
        self.resource_types = pool.resource_types
        self.path_available_bandwidth = pool.path_available_bandwidth

    def available_amount(self, peer: int, rtype: str) -> float:
        return self._cached[peer].get(rtype)


@register_strategy
class CentralizedComposer(CompositionStrategy):
    """Global-view composition over periodically refreshed cached state.

    ``refresh()`` models one update round of the scheme §6.1 compares
    against: every peer maintains the global view, because any peer may
    act as a composition source — so each peer's state update must reach
    all N−1 other peers, costing N·(N−1) message deliveries per round
    (application-level multicast lower bound).  This is what makes
    periodic maintenance "more than one order of magnitude" costlier
    than on-demand probing.

    ``compose`` selects on the *cached* snapshot — between refreshes the
    view is stale, which is precisely the imprecision the paper argues
    periodic global-state maintenance suffers from — but admission is
    then performed against live state (a session either fits or fails).
    """

    name = "centralized"

    def __init__(self, ctx: StrategyContext, max_search_space: Optional[int] = None) -> None:
        super().__init__(ctx)
        self.max_search_space = (
            OptimalComposer.DEFAULT_MAX_SEARCH_SPACE
            if max_search_space is None
            else max_search_space
        )
        self._cached_available: Dict[int, ResourceVector] = {}
        self._view = _CachedView(self._cached_available, ctx.pool)
        self.refreshes = 0

    def refresh(self) -> None:
        """One global state-update round (messages into the ledger)."""
        peers = self.ctx.overlay.peers()
        for p in peers:
            self._cached_available[p] = self.ctx.pool.available(p)
        n = len(peers)
        self.ctx.ensure_ledger().record("state_update", 512, n * (n - 1))
        self.refreshes += 1

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        ctx = self.ctx
        if not self._cached_available:
            self.refresh()
        duplicates = ctx.duplicates(request)
        combos = optimal_probe_count(request, duplicates, ctx.max_patterns)
        if combos > self.max_search_space:
            raise SearchSpaceExceeded(
                f"centralized composition over {combos} candidate graphs exceeds "
                f"the size guard ({self.max_search_space}); raise max_search_space "
                f"or use an anytime strategy ('backtrack' or 'decompose') instead"
            )
        candidates = enumerate_candidates(
            request, duplicates, ctx.overlay, ctx.alive_fn, ctx.max_patterns
        )
        # rank on the cached view: filter by Qreq, order by ψλ
        qualified: List[CandidateGraph] = []
        for cand in candidates:
            if not request.qos.satisfied_by(cand.qos):
                continue
            cand.cost = psi_cost(cand.graph, self._view, ctx.cost_weights)
            if math.isfinite(cand.cost):
                qualified.append(cand)
        qualified.sort(key=lambda c: (c.cost, c.qos.values.get("delay", 0.0)))
        selection = SelectionOutcome(
            best=qualified[0] if qualified else None,
            qualified=qualified,
            n_candidates=len(candidates),
        )
        ctx.ensure_ledger().record("centralized_setup", 128, len(request.function_graph))
        return finalize_selection(request, selection, ctx.pool, probes=0, confirm=confirm)
