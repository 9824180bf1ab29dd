"""Exact branch-and-bound search over candidate service graphs.

The shared machinery behind the global-view composers: the pruned
backtracking strategy, the decomposition stitcher, and the rewritten
``OptimalComposer`` all drive the same :class:`PatternState` — a partial
assignment of components to functions, extended in topological order,
with incremental exact cost/QoS accounting and admissible lower bounds.

Three pruning rules, all value-preserving (they never cut a subtree that
could contain a strictly better solution):

* **QoS lower bound** — a branch path's assigned prefix contributes its
  exact QoS (links + component Qp); its remaining functions contribute
  at least the sum of their per-function minimum Qp plus the cheapest
  last-hop to the destination.  If prefix + remainder already violates
  ``Qreq`` on some path, every completion violates it too.  The paths
  are never enumerated: each assigned function carries the largest
  prefix over the paths ending at it, each function the largest
  remainder over the paths starting at it, and the worst path through a
  frontier edge is the sum of the two (see :class:`PatternState`).
* **Cost lower bound** — the assigned prefix contributes its exact ψλ
  terms (mirroring :func:`~repro.core.cost.psi_cost` term by term); each
  unassigned function contributes its least *row bound*: a candidate's
  resource term plus its input links (and at a sink its final hop),
  each priced at a floor of the rate it carries and from the cheapest
  peer its sender could sit on (see :meth:`PatternState._cost_bounds`).
  Subtrees whose bound exceeds the incumbent are cut, and under the cost
  objective a function's candidates are tried cheapest row bound first.
* **Dominance** — within a (peer, input-quality, output-quality) group,
  a candidate that is no better on any ψλ-relevant dimension (resource
  term, Qp delay, Qp loss, bandwidth factor) than another is discarded
  up front: the dominating candidate can replace it in any graph without
  making cost, QoS, or feasibility worse.

Complete assignments are re-evaluated *exactly* via ``ServiceGraph`` +
``psi_cost`` + ``end_to_end_qos``, so reported values are identical to
what :func:`~repro.core.selection.select_composition` would compute for
the same graph.  The running sums cannot stand in for that: a branch's
QoS adds every link before any Qp, ``head`` adds them hop by hop, and
the two differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ...discovery.metadata import ServiceMetadata
from ...perf.counters import OpCounters
from ...services.component import QualitySpec
from ...topology.overlay import Overlay
from ..cost import CostWeights, psi_cost
from ..function_graph import FunctionGraph
from ..request import CompositeRequest
from ..resources import ResourcePool
from ..selection import CandidateGraph, SelectionOutcome
from ..service_graph import ServiceGraph

__all__ = [
    "Candidate",
    "SearchOutcome",
    "PatternState",
    "prepare_candidates",
    "search_compositions",
]

_EPS = 1e-9
# the cost bound's relative give: the running sums add ψλ's terms in
# another order than psi_cost, and rem_res is kept by subtraction, so a
# bound that is tight could exceed the graph's ψλ by a few ulps
_SLACK = 1.0 - 1e-12


@dataclass(frozen=True)
class Candidate:
    """One duplicated component with its precomputed ψλ-relevant terms."""

    meta: ServiceMetadata
    res_term: float  # Σ wᵢ·rᵢ/raᵢ on the host peer (finite by construction)
    qp_delay: float
    qp_loss: float


@dataclass
class SearchOutcome:
    """What a bounded search learned (shape mirrors SelectionOutcome)."""

    best: Optional[CandidateGraph]
    qualified: List[CandidateGraph] = field(default_factory=list)
    n_complete: int = 0  # complete service graphs evaluated
    counters: OpCounters = field(default_factory=OpCounters)
    exhausted: bool = True  # False when the node limit stopped the search

    def selection(self) -> SelectionOutcome:
        return SelectionOutcome(
            best=self.best, qualified=self.qualified, n_candidates=self.n_complete
        )


def _res_term(meta: ServiceMetadata, pool: ResourcePool, weights: CostWeights) -> float:
    total = 0.0
    for rtype, w in weights.resource_weights.items():
        demand = meta.resources.get(rtype)
        if w == 0.0 or demand == 0.0:
            continue
        a = pool.available_amount(meta.peer, rtype)
        if a <= _EPS:
            return math.inf
        total += w * demand / a
    return total


def prepare_candidates(
    functions: Sequence[str],
    duplicates: Dict[str, List[ServiceMetadata]],
    pool: ResourcePool,
    weights: CostWeights,
    alive: Callable[[int], bool],
    objective: str = "cost",
    dominance: bool = True,
    counters: Optional[OpCounters] = None,
) -> Optional[Dict[str, List[Candidate]]]:
    """Per-function candidate lists: filtered, dominance-pruned, ordered.

    Returns ``None`` when some function has no viable candidate (no
    duplicate alive, or every host's resources exhausted).  Ordering is
    by marginal benefit for the requested objective — cheapest resource
    term first under ``"cost"``, fastest Qp first under ``"delay"`` —
    so depth-first search reaches strong incumbents early.
    """
    out: Dict[str, List[Candidate]] = {}
    for fn in functions:
        cands: List[Candidate] = []
        for meta in duplicates.get(fn, []):
            if not alive(meta.peer):
                continue
            term = _res_term(meta, pool, weights)
            if math.isinf(term):
                # psi_cost of any graph using this component is inf and
                # select_composition never qualifies inf-cost graphs
                if counters is not None:
                    counters.incr("pruned_exhausted_host")
                continue
            qp = meta.qp.values
            cands.append(
                Candidate(meta, term, qp.get("delay", 0.0), qp.get("loss", 0.0))
            )
        if dominance:
            cands = _dominance_filter(cands, counters)
        if not cands:
            return None
        if objective == "delay":
            cands.sort(key=lambda c: (c.qp_delay, c.res_term, c.meta.component_id))
        else:
            cands.sort(key=lambda c: (c.res_term, c.qp_delay, c.meta.component_id))
        out[fn] = cands
    return out


def _dominance_filter(
    cands: List[Candidate], counters: Optional[OpCounters]
) -> List[Candidate]:
    """Drop candidates dominated within their (peer, quality) group.

    Dominance is exact-safe only within a group sharing the host peer and
    both quality specs: swapping in the dominator then changes no link
    endpoints, no quality compatibility, and no ψλ/QoS term for the
    worse.  Lower ``bandwidth_factor`` is included because it can only
    shrink every downstream link's bandwidth demand.
    """
    groups: Dict[Tuple, List[Candidate]] = {}
    for c in cands:
        key = (c.meta.peer, c.meta.input_quality, c.meta.output_quality)
        groups.setdefault(key, []).append(c)
    kept: List[Candidate] = []
    for group in groups.values():
        group.sort(
            key=lambda c: (
                c.res_term,
                c.qp_delay,
                c.qp_loss,
                c.meta.bandwidth_factor,
                c.meta.component_id,
            )
        )
        front: List[Candidate] = []
        for c in group:
            dominated = any(
                f.res_term <= c.res_term
                and f.qp_delay <= c.qp_delay
                and f.qp_loss <= c.qp_loss
                and f.meta.bandwidth_factor <= c.meta.bandwidth_factor
                for f in front
            )
            if dominated:
                if counters is not None:
                    counters.incr("pruned_dominated")
            else:
                front.append(c)
        kept.extend(front)
    kept.sort(key=lambda c: c.meta.component_id)
    return kept


class _NodeLimit(Exception):
    """Internal: the expansion budget ran out mid-search."""


# what ``extend`` hands back and ``unassign`` restores: the function and
# the two running sums as they were before it
_Undo = Tuple[str, float, float]
# (latency, additive loss, available bandwidth) of one routed peer pair
_Link = Tuple[float, float, float]
# one candidate compiled for one state: (candidate, host peer, the
# compatibility row of its input quality — indexed by an output code —,
# its output code, bandwidth factor, res term, Qp delay, Qp loss, the
# links into its peer keyed by the peer they leave, and at a sink off the
# destination the final hop)
_Row = Tuple[
    Candidate, int, Tuple[bool, ...], int, float, float, float, float,
    Dict[int, _Link], Optional[_Link],
]
# one function compiled for one state: (name, predecessors, rows in
# candidate order, the largest delay and loss remainder right behind it,
# its least row bound, the rows in ascending row bound)
_Slot = Tuple[str, Tuple[str, ...], List[_Row], float, float, float, List[_Row]]
# the counts ``extend`` keeps as integers on the state until folded
_HOT_COUNTS = (
    "expansions", "pruned_quality", "pruned_exhausted_link", "pruned_qos", "pruned_bound",
)


class PatternState:
    """A partial component assignment over one composition pattern.

    Functions are assigned strictly in topological order (callers may
    assign one at a time, or whole consecutive segments), so the assigned
    set is closed under predecessors and every successor of the function
    being assigned is still open.  The state keeps, incrementally:

    * exact ψλ terms of the assigned prefix (component resource terms +
      every service link whose bandwidth is already determined) and, in
      ``rem_res``, the sum of every unassigned function's least row bound
      (``row_bounds[f]``, one per candidate: a lower bound on the ψλ that
      placing it adds — its resource term and its input and final links
      at their cheapest),
    * ``head[f]`` for every assigned ``f``: its host peer, its output
      rate, the largest exact prefix QoS (link delay/loss + component
      Qp, the final hop included at a sink) over all paths ending at
      ``f`` — ``max`` over predecessors ``p`` of ``head[p] + step(p, f)``
      — and the code of its output quality,
    * ``tail_delay[f]`` / ``tail_loss[f]`` for every ``f``, built once:
      the largest admissible remainder (Qp minima + the cheapest final
      hop) over all paths starting at ``f``.

    Floating-point addition is monotone in each argument, so the largest
    ``prefix + remainder`` over all branch paths through an edge
    ``u → v`` with ``u`` assigned and ``v`` not is ``head[u] + tail[v]``
    to the last bit, and the bound over the whole graph is the largest
    such value over the *frontier* (those edges, the finished sinks, and
    the untouched sources).  No branch path is ever enumerated.

    Every candidate is compiled once into a row of ``slots[fn]`` (see
    ``_Row``; the slot keeps its rows in candidate order and again in
    ascending row bound, the order a cost search tries them in), with
    quality specs interned to small integer codes and
    one compatibility table filled by ``QualitySpec.compatible_with``, so
    :meth:`extend` — the only place an extension is decided — is tuple
    reads and float arithmetic.  It counts what it does in integers on
    the state; :meth:`fold_counts` moves them into ``counters``.

    ``extend`` and ``assign`` return an undo token or ``None`` when the
    extension is cut (``assign``: only when immediately infeasible —
    quality mismatch or exhausted link); ``unassign`` restores the saved
    sums, so a state that has been unwound equals a freshly built one
    exactly.  The overlay and the pool must not change while a state
    lives: link QoS and available bandwidth are read once per peer pair.
    A function whose every row bound is ∞ (each of its rows meets an
    exhausted link however the rest is placed) leaves ``placeable``
    False, and no search starts on the state.
    """

    def __init__(
        self,
        pattern: FunctionGraph,
        candidates: Dict[str, List[Candidate]],
        request: CompositeRequest,
        overlay: Overlay,
        pool: ResourcePool,
        weights: CostWeights,
        counters: OpCounters,
    ) -> None:
        self.pattern = pattern
        self.candidates = candidates
        self.request = request
        self.overlay = overlay
        self.pool = pool
        self.weights = weights
        self.counters = counters
        self.order: List[str] = pattern.topological_order()
        self.sources = pattern.sources()
        self._preds = {f: tuple(pattern.predecessors(f)) for f in self.order}
        self._succs = {f: pattern.successors(f) for f in self.order}
        # what a source is extended from: the head entry of no function
        # (a source has no predecessor, so its quality is never checked)
        self._origin = ((request.source_peer, request.bandwidth, 0.0, 0.0, None),)
        # b -> a -> the link a → b, a != b
        self._links: Dict[int, Dict[int, _Link]] = {}
        self._build_bounds()
        self._compile()
        # mutable search state
        self.assignment: Dict[str, Candidate] = {}
        self.head: Dict[str, Tuple[int, float, float, float, int]] = {}
        self.partial_cost = 0.0
        self.rem_res = sum(self.min_res[f] for f in self.order)
        # a function whose every row prices at ∞ can never be placed (and
        # ∞ - ∞ would turn rem_res into NaN): no search may start
        self.placeable = self.rem_res != math.inf
        self.expansions = self.pruned_quality = self.pruned_exhausted_link = 0
        self.pruned_qos = self.pruned_bound = 0

    # ------------------------------------------------------------------
    def _build_bounds(self) -> None:
        dest = self.request.dest_peer
        self.row_bounds = self._cost_bounds()
        self.min_res = {f: min(self.row_bounds[f]) for f in self.order}
        # cheapest possible last hop (sink candidate -> destination)
        hop_delay: Dict[str, float] = {}
        hop_loss: Dict[str, float] = {}
        for fn, succs in self._succs.items():
            if succs:
                continue
            dd, dl = math.inf, math.inf
            for c in self.candidates[fn]:
                if c.meta.peer == dest:
                    dd, dl = 0.0, 0.0
                    break
                latency, loss, _ = self._link(c.meta.peer, dest)
                dd = min(dd, latency)
                dl = min(dl, loss)
            hop_delay[fn] = dd
            hop_loss[fn] = dl
        self.tail_delay = self._tails(
            {f: min(c.qp_delay for c in self.candidates[f]) for f in self.order},
            hop_delay,
        )
        self.tail_loss = self._tails(
            {f: min(c.qp_loss for c in self.candidates[f]) for f in self.order},
            hop_loss,
        )
        # the largest remainder right behind each function (nothing at a sink)
        self._ahead = {
            f: (
                max((self.tail_delay[s] for s in succs), default=0.0),
                max((self.tail_loss[s] for s in succs), default=0.0),
            )
            for f, succs in self._succs.items()
        }
        bounds = self.request.qos.bounds
        self.delay_bound = bounds.get("delay", math.inf)
        self.loss_bound = bounds.get("loss", math.inf)
        # every source is open in the empty state; a state below it can
        # only be feasible if this one is
        self._root_feasible = all(
            self.tail_delay[s] <= self.delay_bound
            and self.tail_loss[s] <= self.loss_bound
            for s in self.sources
        )

    def _cost_bounds(self) -> Dict[str, List[float]]:
        """Per function, per candidate: a lower bound on the ψλ that
        :meth:`extend` adds when it places that candidate, however the
        predecessors are placed.

        The rate on a link is bounded below by a *floor* per function, one
        topological pass that mirrors ``extend``: a source's input is the
        request's bandwidth, any other function's the largest of its
        predecessors' floors, and its output that times the least
        bandwidth factor among its candidates.  A row's bound is its
        resource term, then each input link at its sender's floor from the
        cheapest of the sender's candidate peers, then at a sink the final
        hop at the row's own output floor — summed in ``extend``'s order,
        every term no larger than the one ``extend`` adds.  A link with no
        bandwidth left (``extend``'s exhausted-link cut) prices at ∞.

        What a link costs falls as its available bandwidth grows, so the
        cheapest link into a peer is the widest one; the paths out of
        each sender peer are read in one pass."""
        weight = self.weights.bandwidth_weight
        widths = self.pool.paths_available_bandwidth

        def price(available: float, rate: float) -> float:
            if rate <= 0 or weight <= 0.0 or available == math.inf:
                return 0.0
            if available <= _EPS:
                return math.inf
            return weight * rate / available

        request = self.request
        dest = request.dest_peer
        hosts = {f: sorted({c.meta.peer for c in self.candidates[f]}) for f in self.order}
        floor: Dict[str, float] = {}  # the output rate floor of each function
        bounds: Dict[str, List[float]] = {}
        for fn in self.order:
            cands = self.candidates[fn]
            preds = self._preds[fn]
            peers = hosts[fn]
            # (the peers an input link can leave, the rate floor on it)
            if preds:
                senders = [(hosts[p], floor[p]) for p in preds]
                in_floor = max(floor[p] for p in preds)
            else:
                in_floor = request.bandwidth
                senders = [([request.source_peer], in_floor)]
            floor[fn] = in_floor * min(c.meta.bandwidth_factor for c in cands)
            # per input edge, per candidate peer: its cheapest link in
            inputs: List[Dict[int, float]] = []
            for from_peers, rate in senders:
                widest = dict.fromkeys(peers, 0.0)
                for q in from_peers:
                    dsts = [v for v in peers if v != q]
                    for v, width in zip(dsts, widths(q, dsts)):
                        if width > widest[v]:
                            widest[v] = width
                inputs.append({
                    v: 0.0 if v in from_peers else price(widest[v], rate) for v in peers
                })
            sink = not self._succs[fn]
            row_bounds: List[float] = []
            for c in cands:
                peer = c.meta.peer
                bound = c.res_term
                for cheapest in inputs:
                    bound += cheapest[peer]
                if sink and peer != dest:
                    rate = in_floor * c.meta.bandwidth_factor
                    bound += price(self._link(peer, dest)[2], rate)
                row_bounds.append(bound)
            bounds[fn] = row_bounds
        return bounds

    def _tails(
        self, min_qp: Dict[str, float], final_hop: Dict[str, float]
    ) -> Dict[str, float]:
        """Per function, the largest admissible QoS still to come over all
        paths from it to a sink: the Qp minima summed from the sink back
        to the function, then that sink's cheapest final hop — one
        reverse topological pass, a row of per-sink sums per function
        (the final hop is added last, so sums are kept apart by sink)."""
        below: Dict[str, Dict[str, float]] = {}
        tail: Dict[str, float] = {}
        for fn in reversed(self.order):
            succs = self._succs[fn]
            if succs:
                row: Dict[str, float] = {}
                for s in succs:
                    for sink, total in below[s].items():
                        total = total + min_qp[fn]
                        if total > row.get(sink, -math.inf):
                            row[sink] = total
            else:
                row = {fn: 0.0 + min_qp[fn]}
            below[fn] = row
            tail[fn] = max(total + final_hop[sink] for sink, total in row.items())
        return tail

    def _compile(self) -> None:
        """Build ``slots`` (and ``path``, the slots in topological order):
        every candidate as a ``_Row``, with its quality specs interned and
        the compatibility of every (output, input) code pair decided once."""
        codes: Dict[QualitySpec, int] = {}
        for fn in self.order:
            for c in self.candidates[fn]:
                codes.setdefault(c.meta.input_quality, len(codes))
                codes.setdefault(c.meta.output_quality, len(codes))
        # accepts[input spec][output code]: can that output feed this input
        accepts = {
            spec: tuple(out.compatible_with(spec) for out in codes) for spec in codes
        }
        dest = self.request.dest_peer
        self.slots: Dict[str, _Slot] = {}
        for fn in self.order:
            sink = not self._succs[fn]
            rows: List[_Row] = []
            for c in self.candidates[fn]:
                meta = c.meta
                peer = meta.peer
                rows.append((
                    c, peer, accepts[meta.input_quality], codes[meta.output_quality],
                    meta.bandwidth_factor, c.res_term, c.qp_delay, c.qp_loss,
                    self._links.setdefault(peer, {}),
                    self._link(peer, dest) if sink and peer != dest else None,
                ))
            ahead_delay, ahead_loss = self._ahead[fn]
            row_bounds = self.row_bounds[fn]
            # a stable sort: rows of one bound keep the candidates' order
            by_bound = [
                rows[i] for i in sorted(range(len(rows)), key=row_bounds.__getitem__)
            ]
            self.slots[fn] = (
                fn, self._preds[fn], rows, ahead_delay, ahead_loss, self.min_res[fn],
                by_bound,
            )
        self.path = [self.slots[fn] for fn in self.order]

    # ------------------------------------------------------------------
    def _link(self, a: int, b: int) -> _Link:
        into = self._links.setdefault(b, {})
        hit = into.get(a)
        if hit is None:
            hit = into[a] = (
                self.overlay.latency(a, b),
                self.overlay.path_loss_add(a, b),
                self.pool.path_available_bandwidth(a, b),
            )
        return hit

    def extend(
        self, slot: _Slot, row: _Row, incumbent: Optional["_Incumbent"]
    ) -> Optional[_Undo]:
        """Extend the prefix with one row at its slot's function: the one
        place an extension is decided.

        The prune ladder, in order: a predecessor's output quality the
        row's input does not accept, a link with no bandwidth left (ψλ
        terms mirror psi_cost exactly), then — unless ``incumbent`` is
        None — the QoS bound of :meth:`extension_feasible` and the
        incumbent's cutoff on the objective's lower bound (for cost: the
        prefix's exact terms plus the least row bound of every function
        still open, less a relative ``_SLACK``).  What the row adds to
        the prefix is never below its row bound.  Returns the undo token,
        or None with the state untouched."""
        fn, preds, _, ahead_delay, ahead_loss, min_res, _ = slot
        (cand, peer, accepts, out_code, factor, cost_delta, qp_delay, qp_loss,
         into, final) = row
        self.expansions += 1
        if preds:
            head = self.head
            inputs = [head[p] for p in preds]
            for entry in inputs:
                if not accepts[entry[4]]:
                    self.pruned_quality += 1
                    return None
        else:
            inputs = self._origin
        weight = self.weights.bandwidth_weight
        head_delay = head_loss = in_rate = -math.inf
        for prev_peer, rate, delay, loss, _ in inputs:
            if rate > in_rate:
                in_rate = rate
            step_delay = qp_delay
            step_loss = qp_loss
            if prev_peer != peer:
                link = into.get(prev_peer)
                if link is None:
                    link = self._link(prev_peer, peer)
                latency, link_loss, available = link
                if rate > 0 and weight > 0.0:
                    if available <= _EPS:
                        self.pruned_exhausted_link += 1
                        return None
                    if available != math.inf:
                        cost_delta += weight * rate / available
                step_delay += latency
                step_loss += link_loss
            if final is not None:
                step_delay += final[0]
                step_loss += final[1]
            delay += step_delay
            loss += step_loss
            if delay > head_delay:
                head_delay = delay
            if loss > head_loss:
                head_loss = loss
        out_rate = in_rate * factor
        if final is not None and out_rate > 0 and weight > 0.0:
            available = final[2]
            if available <= _EPS:
                self.pruned_exhausted_link += 1
                return None
            if available != math.inf:
                cost_delta += weight * out_rate / available
        partial_cost = self.partial_cost + cost_delta
        rem_res = self.rem_res - min_res
        if incumbent is not None:
            if not (
                self._root_feasible
                and head_delay + ahead_delay <= self.delay_bound
                and head_loss + ahead_loss <= self.loss_bound
            ):
                self.pruned_qos += 1
                return None
            if (partial_cost + rem_res) * _SLACK > incumbent.cost_cutoff:
                self.pruned_bound += 1
                return None
        undo = (fn, self.partial_cost, self.rem_res)
        self.assignment[fn] = cand
        self.head[fn] = (peer, out_rate, head_delay, head_loss, out_code)
        self.partial_cost = partial_cost
        self.rem_res = rem_res
        if (
            incumbent is not None
            and incumbent.delay_cutoff != math.inf
            and self.delay_lower_bound() > incumbent.delay_cutoff
        ):
            self.pruned_bound += 1
            self.unassign(undo)
            return None
        return undo

    def assign(self, fn: str, cand: Candidate) -> Optional[_Undo]:
        """Extend the prefix with ``fn -> cand``, one of ``candidates[fn]``,
        without the bound checks; None if immediately infeasible."""
        slot = self.slots[fn]
        return self.extend(slot, slot[2][self.candidates[fn].index(cand)], None)

    def unassign(self, undo: _Undo) -> None:
        fn, self.partial_cost, self.rem_res = undo
        del self.head[fn]
        del self.assignment[fn]

    def fold_counts(self) -> None:
        """Move the counts kept on the state into ``counters``."""
        for name in _HOT_COUNTS:
            n = getattr(self, name)
            if n:
                self.counters.incr(name, n)
                setattr(self, name, 0)

    # ------------------------------------------------------------------
    def extension_feasible(self, fn: str) -> bool:
        """:meth:`qos_feasible` for a state that was feasible until ``fn``,
        its latest function, was assigned: the only frontier entries that
        are new are ``fn``'s own out-edges (``fn`` itself at a sink)."""
        _, _, delay, loss, _ = self.head[fn]
        ahead_delay, ahead_loss = self._ahead[fn]
        return (
            self._root_feasible
            and delay + ahead_delay <= self.delay_bound
            and loss + ahead_loss <= self.loss_bound
        )

    def _frontier_worst(self) -> Tuple[float, float]:
        """The largest ``exact prefix + admissible remainder`` over all
        branch paths, as (delay, loss)."""
        head = self.head
        tail_delay, tail_loss = self.tail_delay, self.tail_loss
        # (exact prefix, admissible remainder) of every frontier entry
        entries = [
            (0.0, 0.0, tail_delay[s], tail_loss[s])
            for s in self.sources
            if s not in head
        ]
        for fn, (_, _, delay, loss, _) in head.items():
            succs = self._succs[fn]
            if not succs:
                entries.append((delay, loss, 0.0, 0.0))
            for s in succs:
                if s not in head:
                    entries.append((delay, loss, tail_delay[s], tail_loss[s]))
        return (
            max(delay + ahead for delay, _, ahead, _ in entries),
            max(loss + ahead for _, loss, _, ahead in entries),
        )

    def qos_feasible(self) -> bool:
        """Can any completion of the prefix still satisfy ``Qreq``?"""
        delay, loss = self._frontier_worst()
        return delay <= self.delay_bound and loss <= self.loss_bound

    def cost_lower_bound(self) -> float:
        return (self.partial_cost + self.rem_res) * _SLACK

    def delay_lower_bound(self) -> float:
        return self._frontier_worst()[0]

    def complete_graph(self) -> ServiceGraph:
        return ServiceGraph(
            pattern=self.pattern,
            assignment={f: c.meta for f, c in self.assignment.items()},
            source_peer=self.request.source_peer,
            dest_peer=self.request.dest_peer,
            base_bandwidth=self.request.bandwidth,
        )


class _Incumbent:
    """Best-so-far and top-K qualified graphs, ranked like §4.3 selection."""

    def __init__(self, objective: str, top_k: int) -> None:
        self.objective = objective
        self.top_k = top_k
        self.qualified: List[CandidateGraph] = []
        self._seen: Set[Tuple] = set()
        # a state whose lower bound on the objective exceeds its cutoff
        # cannot rank ahead of the best so far; inf until there is one
        self.cost_cutoff = math.inf
        self.delay_cutoff = math.inf

    def _key(self, cand: CandidateGraph) -> Tuple[float, float]:
        delay = cand.qos.values.get("delay", 0.0)
        return (cand.cost, delay) if self.objective == "cost" else (delay, cand.cost)

    @property
    def best(self) -> Optional[CandidateGraph]:
        return self.qualified[0] if self.qualified else None

    def offer(self, cand: CandidateGraph) -> None:
        sig = cand.graph.signature()
        if sig in self._seen:
            return
        self._seen.add(sig)
        self.qualified.append(cand)
        self.qualified.sort(key=self._key)
        if len(self.qualified) > self.top_k:
            dropped = self.qualified.pop()
            self._seen.discard(dropped.graph.signature())
        best = self.qualified[0]
        if self.objective == "cost":
            self.cost_cutoff = best.cost
        else:
            self.delay_cutoff = best.qos.values.get("delay", 0.0)


def search_compositions(
    request: CompositeRequest,
    duplicates: Dict[str, List[ServiceMetadata]],
    overlay: Overlay,
    pool: ResourcePool,
    alive: Callable[[int], bool] = lambda p: True,
    objective: str = "cost",
    dominance: bool = True,
    node_limit: Optional[int] = None,
    top_k: int = 32,
    counters: Optional[OpCounters] = None,
    candidates: Optional[Dict[str, List[Candidate]]] = None,
) -> SearchOutcome:
    """Branch-and-bound over every composition pattern of the request.

    With ``node_limit=None`` the search is exhaustive-equivalent: it
    returns the same best value the full enumeration would (dominance and
    lower-bound cuts are value-preserving).  With a limit it becomes an
    anytime algorithm — the incumbent found so far is returned and
    ``exhausted`` is False.

    A caller that already ran :func:`prepare_candidates` over these
    ``duplicates`` passes the result as ``candidates``; they are then
    neither prepared nor counted a second time.
    """
    if objective not in ("cost", "delay"):
        raise ValueError(f"unknown selection objective {objective!r}")
    weights = CostWeights.uniform(pool.resource_types)
    counters = counters if counters is not None else OpCounters()
    fg = request.function_graph
    if candidates is None:
        candidates = prepare_candidates(
            fg.functions, duplicates, pool, weights, alive, objective, dominance,
            counters,
        )
    incumbent = _Incumbent(objective, top_k)
    exhausted = True
    if candidates is not None:
        budget = [node_limit if node_limit is not None else -1]
        for _, pattern in fg.composition_patterns():
            state = PatternState(
                pattern, candidates, request, overlay, pool, weights, counters
            )
            if not state.placeable:
                counters.incr("pruned_unplaceable")
                continue
            try:
                _dfs(state, 0, incumbent, budget, counters)
            except _NodeLimit:
                exhausted = False
                break
    best = incumbent.best
    return SearchOutcome(
        best=best,
        qualified=list(incumbent.qualified),
        n_complete=counters["complete_graphs"],
        counters=counters,
        exhausted=exhausted,
    )


def _spend(budget: List[int]) -> None:
    """Take one expansion out of the budget (negative: unlimited)."""
    if budget[0] == 0:
        raise _NodeLimit
    if budget[0] > 0:
        budget[0] -= 1


def _dfs(
    state: PatternState,
    depth: int,
    incumbent: _Incumbent,
    budget: List[int],
    counters: OpCounters,
) -> None:
    """Branch and bound below ``depth``; the state's counts reach its
    ``counters`` however the search ends."""
    try:
        _descend(state, depth, incumbent, budget, counters)
    finally:
        state.fold_counts()


def _descend(
    state: PatternState,
    depth: int,
    incumbent: _Incumbent,
    budget: List[int],
    counters: OpCounters,
) -> None:
    if depth == len(state.path):
        _complete_leaf(state, incumbent, counters)
        return
    slot = state.path[depth]
    extend = state.extend
    for row in slot[6] if incumbent.objective == "cost" else slot[2]:
        _spend(budget)
        undo = extend(slot, row, incumbent)
        if undo is None:
            continue
        try:
            _descend(state, depth + 1, incumbent, budget, counters)
        finally:
            state.unassign(undo)


def _complete_leaf(
    state: PatternState, incumbent: _Incumbent, counters: OpCounters
) -> None:
    counters.incr("complete_graphs")
    graph = state.complete_graph()
    qos = graph.end_to_end_qos(state.overlay)
    if not state.request.qos.satisfied_by(qos):
        counters.incr("complete_unqualified")
        return
    cost = psi_cost(graph, state.pool, state.weights)
    if math.isinf(cost):
        counters.incr("complete_unqualified")
        return
    incumbent.offer(CandidateGraph(graph=graph, qos=qos, cost=cost))
