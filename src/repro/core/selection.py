"""Optimal composition selection at the destination (paper §4.3).

With a linear function graph every arriving probe records a complete
composition.  With a DAG, each probe covers one branch, so the
destination first **merges** branch probes into complete service graphs:
probes are compatible when they agree on the components of every
function they share (they then necessarily descend from the same probing
lineage at the shared prefix).  Merged candidates are filtered against
the user's QoS requirements and ranked by the load-balancing cost ψλ;
the minimum-cost qualified graph wins, and the remaining qualified
graphs are returned to seed the backup set (§5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..discovery.metadata import ServiceMetadata
from ..topology.overlay import Overlay
from .cost import CostWeights, psi_cost
from .probe import Probe
from .qos import QoSRequirement, QoSVector
from .request import CompositeRequest
from .resources import ResourcePool
from .service_graph import ServiceGraph

__all__ = [
    "CandidateGraph",
    "SelectionOutcome",
    "admit_graph",
    "merge_probes",
    "select_composition",
]


@dataclass
class CandidateGraph:
    """A complete candidate composition with its evaluated QoS and cost."""

    graph: ServiceGraph
    qos: QoSVector
    arrival_elapsed: float = 0.0
    cost: float = math.inf


@dataclass
class SelectionOutcome:
    best: Optional[CandidateGraph]
    qualified: List[CandidateGraph] = field(default_factory=list)
    n_candidates: int = 0


@dataclass
class _Partial:
    assignment: Dict[str, ServiceMetadata]
    elapsed: float


def admit_graph(graph: ServiceGraph, pool: ResourcePool, token: Tuple) -> bool:
    """Firmly admit a selected graph's resources; all-or-nothing.

    Reserves every component's end-system resources and every service
    link's bandwidth under ``token``; on any shortfall the partial claim
    is rolled back and False is returned.
    """
    ok = True
    for meta in graph.components():
        if not pool.soft_allocate_peer(token, meta.peer, meta.resources):
            ok = False
            break
    if ok:
        for link in graph.service_links():
            if link.src_peer == link.dst_peer:
                continue
            if not pool.soft_allocate_path(token, link.src_peer, link.dst_peer, link.bandwidth):
                ok = False
                break
    if not ok:
        pool.cancel(token)
        return False
    pool.confirm(token)
    return True


def merge_probes(
    request: CompositeRequest,
    arrivals: Sequence[Probe],
    overlay: Overlay,
    max_candidates: int = 512,
) -> List[CandidateGraph]:
    """Merge branch probes into complete, deduplicated candidate graphs."""
    fg = request.function_graph
    patterns = fg.composition_patterns()
    candidates: List[CandidateGraph] = []
    seen: Set[Tuple] = set()
    hops: Dict[Tuple[int, int], Tuple[float, float]] = {}  # (latency, loss) per peer pair
    for _, pattern in patterns:
        branches = pattern.branches()
        per_branch: Dict[Tuple[str, ...], List[Probe]] = {b: [] for b in branches}
        for probe in arrivals:
            if probe.branch in per_branch:
                per_branch[probe.branch].append(probe)
        if any(not probes for probes in per_branch.values()):
            continue  # some mandatory branch was never covered in this pattern
        partials: List[_Partial] = [_Partial({}, 0.0)]
        for branch in branches:
            new_partials: List[_Partial] = []
            for partial in partials:
                for probe in per_branch[branch]:
                    if not _compatible(partial.assignment, probe.assignment):
                        continue
                    merged = dict(partial.assignment)
                    merged.update(probe.assignment)
                    new_partials.append(
                        _Partial(merged, max(partial.elapsed, probe.elapsed))
                    )
                    if len(new_partials) >= max_candidates:
                        break
                if len(new_partials) >= max_candidates:
                    break
            partials = new_partials
            if not partials:
                break
        for partial in partials:
            if set(partial.assignment) != set(pattern.functions):
                continue
            graph = ServiceGraph(
                pattern=pattern,
                assignment=partial.assignment,
                source_peer=request.source_peer,
                dest_peer=request.dest_peer,
                base_bandwidth=request.bandwidth,
            )
            sig = graph.signature()
            if sig in seen:
                continue
            seen.add(sig)
            candidates.append(
                CandidateGraph(
                    graph=graph,
                    qos=graph.end_to_end_qos(overlay, hops),
                    arrival_elapsed=partial.elapsed,
                )
            )
            if len(candidates) >= max_candidates:
                return candidates
    return candidates


def _compatible(
    a: Dict[str, ServiceMetadata], b: Dict[str, ServiceMetadata]
) -> bool:
    """Probes merge only when shared functions use identical components."""
    if len(b) < len(a):
        a, b = b, a
    for fn, meta in a.items():
        other = b.get(fn)
        if other is not None and other.component_id != meta.component_id:
            return False
    return True


def select_composition(
    candidates: Sequence[CandidateGraph],
    qos_req: QoSRequirement,
    pool: ResourcePool,
    objective: str = "cost",
) -> SelectionOutcome:
    """Filter by Qreq, rank, return best + all qualified graphs.

    ``objective="cost"`` ranks by ψλ (the paper's default, §4.3);
    ``objective="delay"`` ranks by end-to-end delay (the §6.2 PlanetLab
    experiment asks for "the best qualified service composition that has
    minimum end-to-end service delay").
    """
    if objective not in ("cost", "delay"):
        raise ValueError(f"unknown selection objective {objective!r}")
    weights = CostWeights.uniform(pool.resource_types)
    qualified: List[CandidateGraph] = []
    for cand in candidates:
        if not qos_req.satisfied_by(cand.qos):
            continue
        cand.cost = psi_cost(cand.graph, pool, weights)
        if math.isinf(cand.cost):
            continue  # some resource fully exhausted: not actually admittable
        qualified.append(cand)
    if objective == "cost":
        qualified.sort(key=lambda c: (c.cost, c.qos.values.get("delay", 0.0)))
    else:
        qualified.sort(key=lambda c: (c.qos.values.get("delay", 0.0), c.cost))
    best = qualified[0] if qualified else None
    return SelectionOutcome(best=best, qualified=qualified, n_candidates=len(candidates))
