"""Proactive failure recovery: backup service graphs (paper §5).

Two decisions are made per session:

* **How many** backups (§5.1, Eq. 2):

      γ = min( ⌊ U · ( Σᵢ qᵢ^λ / qᵢ^req  +  F^λ / F^req ) ⌋ ,  C − 1 )

  where U bounds the backup count, C is the number of qualified graphs
  the initial BCP found, qᵢ^λ the current graph's QoS, F^λ its failure
  probability.  The closer the current graph sails to the user's
  requirements, the more backups are kept.

* **Which** backups (§5.2): for each component sᵢ of the current graph λ
  (bottleneck — highest failure probability — first), pick the qualified
  graph that does not include sᵢ but has the largest overlap with λ
  (disjoint enough to survive sᵢ's failure, overlapped enough to switch
  cheaply); then repeat for pairs, triples, ... of components until γ
  backups are chosen.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

from .qos import QoSRequirement, QoSVector
from .resources import ResourcePool
from .selection import CandidateGraph, admit_graph
from .service_graph import ServiceGraph

__all__ = ["backup_count", "select_backups", "bottleneck_order", "revalidate_backup"]


def backup_count(
    qos: QoSVector,
    qos_req: QoSRequirement,
    failure_prob: float,
    failure_req: float,
    n_qualified: int,
    upper_bound: float = 1.0,
) -> int:
    """Eq. 2: the adaptive number of backup service graphs γ.

    ``n_qualified`` is C (qualified graphs found by the initial BCP);
    ``upper_bound`` is the configurable U.  Returns 0 when the session
    has no alternatives (C ≤ 1).
    """
    if n_qualified < 1:
        raise ValueError(f"C must be >= 1, got {n_qualified}")
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError(f"failure probability out of range: {failure_prob}")
    if failure_req <= 0:
        raise ValueError("failure requirement must be positive")
    if upper_bound < 0:
        raise ValueError("upper bound U must be >= 0")
    load = qos_req.utilisation(qos) + failure_prob / failure_req
    gamma = int(math.floor(upper_bound * load))
    return max(0, min(gamma, n_qualified - 1))


def bottleneck_order(
    graph: ServiceGraph, peer_failure: Callable[[int], float]
) -> List[int]:
    """Component ids of ``graph`` sorted by host failure probability, desc.

    §5.2's final rule: under a tight backup budget, protect the
    bottleneck components (largest failure probabilities) first.
    """
    comps = graph.components()
    return [
        m.component_id
        for m in sorted(comps, key=lambda m: (-peer_failure(m.peer), m.component_id))
    ]


def revalidate_backup(
    cand: CandidateGraph,
    pool: ResourcePool,
    alive: Callable[[int], bool],
    token,
) -> bool:
    """Check a backup against *current* state at failover time.

    Backups are monitored, not reserved (§5): their ranking reflects the
    resource state at composition time, and other sessions may have
    claimed their capacity since.  A backup is usable now iff every host
    peer is still alive **and** the graph admits against the pool as it
    stands this instant — admission makes the firm claim under ``token``
    on success, so a ``True`` return means the switch is already booked.
    On failure nothing is claimed and the caller moves to the next
    backup (then to reactive BCP).
    """
    if not all(alive(p) for p in cand.graph.peers()):
        return False
    return admit_graph(cand.graph, pool, token)


def select_backups(
    current: ServiceGraph,
    qualified: Sequence[CandidateGraph],
    count: int,
    peer_failure: Callable[[int], float],
    max_subset_size: int = 3,
    exclude_by: str = "peer",
) -> List[CandidateGraph]:
    """§5.2: pick ``count`` backup graphs from the qualified set.

    Iterates over failure subsets of the current graph's components in
    bottleneck-priority order (singletons first, then pairs, ...); for
    each subset, selects the qualified graph that excludes every
    component of the subset and maximises overlap with the current graph.

    ``exclude_by="peer"`` (default) treats a component failure as the
    failure of its *host peer* — the actual churn event — so a backup
    must avoid every component co-hosted with the failed one;
    ``exclude_by="component"`` is the paper's literal component-level
    rule (ablation).
    """
    if exclude_by not in ("peer", "component"):
        raise ValueError(f"unknown exclude_by {exclude_by!r}")
    if count <= 0:
        return []
    current_sig = current.signature()
    candidates = [c for c in qualified if c.graph.signature() != current_sig]
    if not candidates:
        return []
    ordered_components = bottleneck_order(current, peer_failure)
    peer_of = {m.component_id: m.peer for m in current.components()}
    selected: List[CandidateGraph] = []
    chosen_sigs = {current_sig}

    def excludes(cand: CandidateGraph, subset: Tuple[int, ...]) -> bool:
        if exclude_by == "component":
            return not any(cand.graph.uses_component(cid) for cid in subset)
        return not any(cand.graph.uses_peer(peer_of[cid]) for cid in subset)

    for k in range(1, min(max_subset_size, len(ordered_components)) + 1):
        # subsets in priority order: itertools.combinations of a
        # bottleneck-sorted list yields highest-risk subsets first
        for subset in itertools.combinations(ordered_components, k):
            best: Optional[CandidateGraph] = None
            best_key: Tuple[float, float] = (-1.0, math.inf)
            for cand in candidates:
                sig = cand.graph.signature()
                if sig in chosen_sigs:
                    continue
                if not excludes(cand, subset):
                    continue
                key = (float(cand.graph.overlap(current)), -cand.cost)
                if key > best_key:
                    best, best_key = cand, key
            if best is not None:
                selected.append(best)
                chosen_sigs.add(best.graph.signature())
                if len(selected) >= count:
                    return selected
        if len(selected) >= count:
            break
    return selected
