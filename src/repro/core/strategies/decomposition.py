"""Decomposition composition: partition large DAGs, compose per part,
stitch boundaries with a small backtracking pass.

The second large-graph strategy (community decomposition of composition
graphs, arXiv:1305.0187).  Function DAGs from real requests are wide but
shallow-coupled: most dependency edges connect adjacent topological
layers.  The composer exploits that:

1. **Partition** — functions are grouped into *segments* of consecutive
   topological layers (a layer never contains an internal edge, so
   layer-sorted order is a valid topological order), each at most
   ``partition_size`` functions; oversize layers are split.
2. **Per-segment composition** — each segment is composed independently
   by a beam search over its own candidate lists with NumPy-vectorized
   extension scoring (resource term + QoS pressure + intra-segment link
   delay), keeping the ``per_partition_k`` best sub-assignments.
3. **Stitch** — a depth-first backtracking pass walks the segments in
   order, choosing one precomputed option per segment; the shared
   :class:`~repro.core.strategies.search.PatternState` accounts boundary
   link cost/QoS *exactly* and prunes with the same admissible bounds as
   the backtracking strategy.  Complete graphs are re-evaluated exactly,
   so reported cost/QoS match §4.3 selection.

The search space collapses from Π Zᵢ (over all functions) to
Σ (segment beams) + Π Kⱼ (over segments) — polynomial in graph size for
fixed ``partition_size``/``per_partition_k`` — at the price of
optimality: only combinations of per-segment front-runners are explored.
A bounded full-search fallback covers the rare case where stitching the
front-runners finds nothing qualified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...perf.counters import OpCounters
from ...perf.timers import PhaseTimer
from ..bcp import CompositionResult
from ..cost import CostWeights
from ..function_graph import FunctionGraph
from ..request import CompositeRequest
from ..selection import SelectionOutcome
from .base import (
    CompositionStrategy,
    StrategyContext,
    finalize_selection,
    register_strategy,
)
from .search import (
    Candidate,
    PatternState,
    _complete_leaf,
    _Incumbent,
    _NodeLimit,
    _Slot,
    _spend,
    prepare_candidates,
    search_compositions,
)

__all__ = ["DecompositionComposer"]


@dataclass
class _SegmentOption:
    """One precomputed sub-assignment for a segment, with its beam score:
    per segment function, in segment order, the index of its candidate
    (which is also the index of that candidate's row in a state's slot)."""

    picks: Tuple[int, ...]
    score: float


@dataclass
class _Partial:
    assignment: Dict[str, Candidate]
    picks: Tuple[int, ...]
    score: float


def _layer_segments(pattern: FunctionGraph, partition_size: int) -> List[List[str]]:
    """Consecutive topological-layer segments of ≤ partition_size functions."""
    order = pattern.topological_order()
    depth: Dict[str, int] = {}
    for fn in order:
        preds = pattern.predecessors(fn)
        depth[fn] = 1 + max((depth[p] for p in preds), default=0)
    # stable layer sort: any edge strictly increases depth, so this is a
    # valid topological order and layers contain no internal edges
    index = {fn: i for i, fn in enumerate(order)}
    layered = sorted(order, key=lambda f: (depth[f], index[f]))
    layers: List[List[str]] = []
    for fn in layered:
        if layers and depth[layers[-1][-1]] == depth[fn]:
            layers[-1].append(fn)
        else:
            layers.append([fn])
    segments: List[List[str]] = []
    current: List[str] = []
    for layer in layers:
        while len(layer) > partition_size:  # oversize layer: split
            if current:
                segments.append(current)
                current = []
            segments.append(layer[:partition_size])
            layer = layer[partition_size:]
        if current and len(current) + len(layer) > partition_size:
            segments.append(current)
            current = []
        current.extend(layer)
    if current:
        segments.append(current)
    return segments


@register_strategy
class DecompositionComposer(CompositionStrategy):
    """Partition → compose per partition → stitch boundaries."""

    name = "decompose"

    def __init__(
        self,
        ctx: StrategyContext,
        partition_size: int = 6,
        per_partition_k: int = 8,
        beam_width: int = 24,
        stitch_node_limit: int = 50_000,
        fallback_node_limit: int = 50_000,
    ) -> None:
        super().__init__(ctx)
        if partition_size < 1:
            raise ValueError("partition_size must be >= 1")
        self.partition_size = partition_size
        self.per_partition_k = per_partition_k
        self.beam_width = max(beam_width, per_partition_k)
        self.stitch_node_limit = stitch_node_limit
        self.fallback_node_limit = fallback_node_limit

    # ------------------------------------------------------------------
    def compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
        now: Optional[float] = None,
    ) -> CompositionResult:
        ctx = self.ctx
        counters = OpCounters()
        timer = PhaseTimer()
        weights = ctx.cost_weights or CostWeights.uniform(ctx.pool.resource_types)
        objective = ctx.objective
        with timer.phase("candidates"):
            duplicates = ctx.duplicates(request)
            candidates = prepare_candidates(
                request.function_graph.functions,
                duplicates,
                ctx.pool,
                weights,
                ctx.alive_fn,
                objective,
                dominance=True,
                counters=counters,
            )
        incumbent = _Incumbent(objective, top_k=16)
        exhausted = True
        if candidates is not None:
            bounds = request.qos.bounds
            delay_pressure = 1.0 / bounds["delay"] if "delay" in bounds else 0.0
            loss_pressure = 1.0 / bounds["loss"] if "loss" in bounds else 0.0
            stitch_budget = [self.stitch_node_limit]
            for _, pattern in request.function_graph.composition_patterns(
                ctx.max_patterns
            ):
                segments = _layer_segments(pattern, self.partition_size)
                counters.incr("segments", len(segments))
                with timer.phase("segment_beam"):
                    options = [
                        self._segment_options(
                            pattern, seg, candidates, delay_pressure, loss_pressure,
                            counters,
                        )
                        for seg in segments
                    ]
                if any(not opts for opts in options):
                    counters.incr("pattern_no_options")
                    continue
                state = PatternState(
                    pattern, candidates, request, ctx.overlay, ctx.pool, weights,
                    counters,
                )
                try:
                    with timer.phase("stitch"):
                        self._stitch(
                            state,
                            [[state.slots[fn] for fn in seg] for seg in segments],
                            options, 0, incumbent, stitch_budget, counters,
                        )
                except _NodeLimit:
                    exhausted = False
                    break
                finally:
                    state.fold_counts()
        if incumbent.best is None and candidates is not None:
            # front-runner combinations missed every qualified graph (or
            # the stitch budget ran dry): bounded exact search fallback
            counters.incr("fallback_search")
            with timer.phase("fallback"):
                fallback = search_compositions(
                    request,
                    duplicates,
                    ctx.overlay,
                    ctx.pool,
                    alive=ctx.alive_fn,
                    cost_weights=weights,
                    objective=objective,
                    max_patterns=ctx.max_patterns,
                    node_limit=self.fallback_node_limit,
                    counters=counters,
                    candidates=candidates,
                )
            for cand in fallback.qualified:
                incumbent.offer(cand)
            exhausted = exhausted and fallback.exhausted
        selection = SelectionOutcome(
            best=incumbent.best,
            qualified=list(incumbent.qualified),
            n_candidates=counters["complete_graphs"],
        )
        result = finalize_selection(request, selection, ctx.pool, probes=0, confirm=confirm)
        if not exhausted and result.failure_reason == "no qualified service graph":
            result.failure_reason = "no qualified service graph within node limit"
        result.phases.update(timer.as_dict("wall_"))
        result.phases.update(counters.as_phases())
        return result

    # ------------------------------------------------------------------
    def _delays(self, src: int, peers: Sequence[int]) -> np.ndarray:
        router = getattr(self.ctx.overlay, "router", None)
        if router is not None and hasattr(router, "delays"):
            return np.asarray(router.delays(src, list(peers)), dtype=float)
        return np.array([self.ctx.overlay.latency(src, p) for p in peers], dtype=float)

    def _segment_options(
        self,
        pattern: FunctionGraph,
        segment: List[str],
        candidates: Dict[str, List[Candidate]],
        delay_pressure: float,
        loss_pressure: float,
        counters: OpCounters,
    ) -> List[_SegmentOption]:
        """Beam-compose one segment independently (vectorized scoring).

        The segment-local score ranks sub-assignments by their own ψλ
        resource terms plus dimensionless QoS pressure (Qp and
        intra-segment link delay relative to the requirement bounds);
        boundary links are priced later, exactly, by the stitch."""
        in_segment = set(segment)
        partials: List[_Partial] = [_Partial({}, (), 0.0)]
        for fn in segment:
            cands = candidates[fn]
            peers = [c.meta.peer for c in cands]
            res = np.array([c.res_term for c in cands])
            qp_delay = np.array([c.qp_delay for c in cands])
            qp_loss = np.array([c.qp_loss for c in cands])
            seg_preds = [p for p in pattern.predecessors(fn) if p in in_segment]
            scored: List[Tuple[float, int, int]] = []
            for pi, part in enumerate(partials):
                link = np.zeros(len(cands))
                mask = np.ones(len(cands), dtype=bool)
                for p in seg_preds:
                    pc = part.assignment[p]
                    link += self._delays(pc.meta.peer, peers)
                    mask &= np.array(
                        [
                            pc.meta.output_quality.compatible_with(c.meta.input_quality)
                            for c in cands
                        ]
                    )
                score = (
                    part.score
                    + res
                    + (qp_delay + link) * delay_pressure
                    + qp_loss * loss_pressure
                )
                for ci in np.nonzero(mask)[0]:
                    scored.append((float(score[ci]), pi, int(ci)))
            scored.sort()
            del scored[self.beam_width:]
            counters.incr("beam_partials", len(scored))
            partials = [
                _Partial(
                    {**partials[pi].assignment, fn: cands[ci]},
                    partials[pi].picks + (ci,),
                    sc,
                )
                for sc, pi, ci in scored
            ]
            if not partials:
                return []
        seen = set()
        options: List[_SegmentOption] = []
        for part in partials:
            key = tuple(part.assignment[f].meta.component_id for f in segment)
            if key in seen:
                continue
            seen.add(key)
            options.append(_SegmentOption(part.picks, part.score))
            if len(options) >= self.per_partition_k:
                break
        return options

    def _stitch(
        self,
        state: PatternState,
        segments: List[List[_Slot]],
        options: List[List[_SegmentOption]],
        depth: int,
        incumbent: _Incumbent,
        budget: List[int],
        counters: OpCounters,
    ) -> None:
        if depth == len(segments):
            _complete_leaf(state, incumbent, counters)
            return
        slots = segments[depth]
        for option in options[depth]:
            _spend(budget)
            counters.incr("stitch_expansions")
            undos = []
            try:
                for slot, pick in zip(slots, option.picks):
                    undo = state.extend(slot, slot[2][pick], incumbent)
                    if undo is None:
                        break
                    undos.append(undo)
                else:
                    self._stitch(
                        state, segments, options, depth + 1, incumbent, budget,
                        counters,
                    )
            finally:
                for undo in reversed(undos):
                    state.unassign(undo)
