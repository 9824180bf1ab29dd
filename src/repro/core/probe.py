"""Composition probe messages (paper §4.1, Fig. 5/6).

A probe carries the function graph (as currently commuted — its
*effective pattern*), the user's requirements, the accumulated QoS and
resource states of the partial service graph it has examined, and a
probing budget.  Each per-hop step spawns child probes that inherit the
parent's state (Step 2.4) and split its budget.

Probes traverse one *branch* of the (possibly DAG) pattern; the
destination merges compatible branch probes into complete service graphs
(§4.3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

from ..discovery.metadata import ServiceMetadata
from .function_graph import CommutationPair, FunctionGraph
from .qos import QoSVector
from .request import CompositeRequest

__all__ = ["Probe"]

_probe_ids = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Probe:
    """One in-flight composition probe (immutable; hops create children)."""

    probe_id: int
    request: CompositeRequest
    graph: FunctionGraph  # effective pattern after applied commutations
    applied_swaps: FrozenSet[CommutationPair]
    assignment: Mapping[str, ServiceMetadata]  # choices along this lineage
    branch: Tuple[str, ...]  # functions visited, in traversal order
    current_peer: int
    qos: QoSVector  # accumulated along this branch
    budget: int
    out_bandwidth: float  # stream rate leaving the current hop
    elapsed: float = 0.0  # protocol time consumed so far (setup-time runs)
    hops: int = 0
    # lazily computed by dedup_key(); excluded from init/equality/repr
    _dedup: Optional[Tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        if self.budget < 0:
            raise ValueError(f"negative probing budget: {self.budget}")

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, request: CompositeRequest, budget: int) -> "Probe":
        """The conceptual probe sitting at the application sender."""
        return cls(
            probe_id=next(_probe_ids),
            request=request,
            graph=request.function_graph,
            applied_swaps=frozenset(),
            assignment={},
            branch=(),
            current_peer=request.source_peer,
            qos=request.qos.zero_vector(),
            budget=budget,
            out_bandwidth=request.bandwidth,
        )

    def spawn(
        self,
        function: str,
        component: ServiceMetadata,
        graph: FunctionGraph,
        applied_swaps: FrozenSet[CommutationPair],
        qos: QoSVector,
        budget: int,
        elapsed: float,
    ) -> "Probe":
        """Child probe after choosing ``component`` for ``function``.

        Inherits the parent's QoS/resource states (Step 2.4) with the new
        hop's link QoS and the component's Qp already folded into ``qos``.
        """
        child = Probe(
            probe_id=next(_probe_ids),
            request=self.request,
            graph=graph,
            applied_swaps=applied_swaps,
            assignment=self.assignment,
            branch=self.branch + (function,),
            current_peer=component.peer,
            qos=qos,
            budget=budget,
            out_bandwidth=self.out_bandwidth * component.bandwidth_factor,
            elapsed=elapsed,
            hops=self.hops + 1,
        )
        # the copy __post_init__ made is the child's own: the one copy
        child.assignment[function] = component
        return child

    def arrived(self, qos: QoSVector, elapsed: float) -> "Probe":
        """The probe after its final hop to the destination peer."""
        return Probe(
            probe_id=next(_probe_ids),
            request=self.request,
            graph=self.graph,
            applied_swaps=self.applied_swaps,
            assignment=self.assignment,
            branch=self.branch,
            current_peer=self.request.dest_peer,
            qos=qos,
            budget=self.budget,
            out_bandwidth=self.out_bandwidth,
            elapsed=elapsed,
            hops=self.hops + 1,
        )

    # ------------------------------------------------------------------
    @property
    def current_function(self) -> Optional[str]:
        return self.branch[-1] if self.branch else None

    @property
    def at_sink(self) -> bool:
        """No dependency successors remain on this branch."""
        fn = self.current_function
        return fn is not None and not self.graph.successors(fn)

    def last_component(self) -> Optional[ServiceMetadata]:
        fn = self.current_function
        return self.assignment[fn] if fn is not None else None

    def dedup_key(self) -> Tuple:
        """Identity of the partial composition this probe has built.

        Probes agreeing on the effective pattern, the component chosen
        for every visited function, and the branch are duplicates: the
        per-hop processors and the destination both keep only the
        earliest of each key."""
        key = self._dedup
        if key is None:
            key = (
                self.graph.edges,
                tuple(sorted([(f, m.component_id) for f, m in self.assignment.items()])),
                self.branch,
            )
            object.__setattr__(self, "_dedup", key)
        return key

    def __repr__(self) -> str:
        path = "→".join(self.branch) or "·"
        return (
            f"Probe(#{self.probe_id} req={self.request.request_id} {path} "
            f"@v{self.current_peer} β={self.budget})"
        )
