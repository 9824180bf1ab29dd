"""Pruned backtracking composition (branch-and-bound).

The first of the two large-graph strategies: a depth-first
branch-and-bound over per-function candidate lists (the shape of
backtracking QoS-aware service selection, arXiv:1402.1309), built on the
shared :mod:`~repro.core.strategies.search` engine — admissible QoS and
ψλ lower bounds (the ψλ one prices links not yet placed), dominance
pruning, and candidates tried cheapest ψλ bound first (fastest Qp first
under the delay objective).

Unlike the rewritten ``OptimalComposer`` (which must run to proven
optimality or refuse), this strategy is *anytime*: ``node_limit`` caps
the number of partial-assignment expansions and the best incumbent found
within the cap is returned.  On graphs where BCP's probe budget starves
(hundreds of functions), the ordered DFS typically reaches a strong
incumbent within a few thousand expansions and the bounds close the rest
of the tree.
"""

from __future__ import annotations

from typing import Optional

from ...perf.counters import OpCounters
from ...perf.timers import PhaseTimer
from ..bcp import CompositionResult
from ..request import CompositeRequest
from .base import (
    CompositionStrategy,
    StrategyContext,
    finalize_selection,
    register_strategy,
)
from .search import search_compositions

__all__ = ["PrunedBacktrackingComposer"]


@register_strategy
class PrunedBacktrackingComposer(CompositionStrategy):
    """Branch-and-bound over candidate lists with admissible bounds."""

    name = "backtrack"

    def __init__(
        self,
        ctx: StrategyContext,
        node_limit: Optional[int] = 200_000,
        dominance: bool = True,
        top_k: int = 16,
    ) -> None:
        super().__init__(ctx)
        self.node_limit = node_limit
        self.dominance = dominance
        self.top_k = top_k

    def compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
    ) -> CompositionResult:
        ctx = self.ctx
        counters = OpCounters()
        timer = PhaseTimer()
        with timer.phase("candidates"):
            duplicates = ctx.duplicates(request)
        with timer.phase("search"):
            outcome = search_compositions(
                request,
                duplicates,
                ctx.overlay,
                ctx.pool,
                alive=ctx.alive_fn,
                objective=ctx.objective,
                dominance=self.dominance,
                node_limit=self.node_limit,
                top_k=self.top_k,
                counters=counters,
            )
        result = finalize_selection(
            request, outcome.selection(), ctx.pool, probes=0, confirm=confirm
        )
        if not outcome.exhausted and result.failure_reason == "no qualified service graph":
            result.failure_reason = "no qualified service graph within node limit"
        result.phases.update(timer.as_dict("wall_"))
        result.phases.update(counters.as_phases())
        return result
