"""Conditional branch semantics (the paper's second future-work item).

§8: "We also plan to extend the current solution to support more
expressive service composition semantics such as conditional branch."

A conditional fork routes each ADU down *one* of a function's successor
branches (e.g. "if the receiver is mobile → downscale, else → upscale"),
chosen at runtime with some long-run probability per branch.  This
changes two things relative to the paper's parallel-branch DAGs:

* **QoS** — the end-to-end value is no longer the worst branch but the
  probability-weighted *expectation* over root→sink paths (each ADU
  takes exactly one); the worst case is still reported for admission
  against hard bounds;
* **bandwidth** — a conditional branch carries only its probability
  share of the stream in the long run, so expected-mode provisioning
  reserves ``p × rate`` on conditional links (peak mode keeps the full
  rate, trading efficiency for burst tolerance).

The extension layers on top of composed :class:`ServiceGraph`s without
changing the core model: annotate, evaluate and re-rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..topology.overlay import Overlay
from .function_graph import FunctionGraph
from .qos import QoSVector
from .selection import CandidateGraph
from .service_graph import ServiceGraph, ServiceLink

__all__ = [
    "ConditionalAnnotation",
    "branch_probabilities",
    "expected_qos",
    "conditional_link_bandwidths",
    "select_by_expected_qos",
]


@dataclass(frozen=True)
class ConditionalAnnotation:
    """Per-fork routing probabilities: fork function → {successor: p}.

    Forks not listed keep the paper's parallel (replicate-to-all)
    semantics; listed forks must cover *all* successors of the function
    with probabilities summing to 1.
    """

    forks: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "forks", {f: dict(ps) for f, ps in dict(self.forks).items()}
        )
        for fn, probs in self.forks.items():
            total = sum(probs.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"fork {fn!r} probabilities sum to {total}, not 1")
            if any(p < 0 for p in probs.values()):
                raise ValueError(f"fork {fn!r} has a negative probability")

    def validate_against(self, graph: FunctionGraph) -> None:
        for fn, probs in self.forks.items():
            if fn not in graph.functions:
                raise ValueError(f"fork {fn!r} is not a function of the graph")
            succ = set(graph.successors(fn))
            if set(probs) != succ:
                raise ValueError(
                    f"fork {fn!r} must cover successors {sorted(succ)}, got {sorted(probs)}"
                )

    def probability(self, fork: str, successor: str) -> float:
        """Routing probability of edge fork→successor (1.0 if parallel)."""
        probs = self.forks.get(fork)
        if probs is None:
            return 1.0
        return probs[successor]


def branch_probabilities(
    graph: FunctionGraph, annotation: ConditionalAnnotation
) -> Dict[Tuple[str, ...], float]:
    """Probability that an ADU traverses each branch path.

    The product of fork probabilities along the branch.  With parallel
    forks present the values need not sum to 1 over branches (an ADU may
    traverse several parallel branches at once); with only conditional
    forks they do.
    """
    annotation.validate_against(graph)
    out: Dict[Tuple[str, ...], float] = {}
    for branch in graph.branches():
        p = 1.0
        for a, b in zip(branch, branch[1:]):
            p *= annotation.probability(a, b)
        out[branch] = p
    return out


def expected_qos(
    graph: ServiceGraph, overlay: Overlay, annotation: ConditionalAnnotation
) -> QoSVector:
    """Probability-weighted QoS over branch paths.

    Branches with zero probability contribute nothing; if all parallel
    (no forks annotated) this degenerates to the *mean* over branches —
    callers wanting the paper's worst-branch semantics should use
    :meth:`ServiceGraph.end_to_end_qos`.
    """
    probs = branch_probabilities(graph.pattern, annotation)
    total_p = sum(probs.values())
    if total_p <= 0:
        raise ValueError("all branches have zero probability")
    acc: Dict[str, float] = {}
    for branch, p in probs.items():
        if p == 0.0:
            continue
        q = graph.branch_qos(overlay, branch)
        for metric, value in q.values.items():
            acc[metric] = acc.get(metric, 0.0) + p * value
    return QoSVector({m: v / total_p for m, v in acc.items()})


def conditional_link_bandwidths(
    graph: ServiceGraph, annotation: ConditionalAnnotation, mode: str = "expected"
) -> List[ServiceLink]:
    """Service links with conditional-aware bandwidth requirements.

    ``mode="expected"`` scales each link by the probability that traffic
    reaches it (long-run average provisioning); ``mode="peak"`` returns
    the unscaled links (burst-tolerant provisioning).
    """
    if mode not in ("expected", "peak"):
        raise ValueError(f"unknown provisioning mode {mode!r}")
    links = graph.service_links()
    if mode == "peak":
        return links
    annotation.validate_against(graph.pattern)
    # probability that traffic reaches a function = sum over branches
    # through it, capped at 1 (parallel forks duplicate traffic)
    probs = branch_probabilities(graph.pattern, annotation)
    reach: Dict[str, float] = {}
    for branch, p in probs.items():
        for fn in branch:
            reach[fn] = reach.get(fn, 0.0) + p
    reach = {fn: min(p, 1.0) for fn, p in reach.items()}
    out = []
    for link in links:
        if link.from_fn is None:
            factor = 1.0  # the sender always emits
        elif link.to_fn is None:
            factor = reach.get(link.from_fn, 1.0)
        else:
            factor = reach.get(link.from_fn, 1.0) * annotation.probability(
                link.from_fn, link.to_fn
            )
        out.append(
            ServiceLink(
                link.from_fn, link.to_fn, link.src_peer, link.dst_peer,
                link.bandwidth * factor,
            )
        )
    return out


def select_by_expected_qos(
    qualified: Sequence[CandidateGraph],
    overlay: Overlay,
    annotation: ConditionalAnnotation,
    metric: str = "delay",
) -> Optional[CandidateGraph]:
    """Re-rank a composition's qualified graphs by expected (not worst-
    branch) QoS — the right objective under conditional routing."""
    best = None
    best_value = None
    for cand in qualified:
        value = expected_qos(cand.graph, overlay, annotation).values.get(metric)
        if value is None:
            continue
        if best_value is None or value < best_value:
            best, best_value = cand, value
    return best

