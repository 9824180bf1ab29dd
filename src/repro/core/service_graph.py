"""Service graphs: function graphs instantiated onto concrete components.

The middle tier of the paper's Fig. 2: each function of a composition
pattern is mapped to one duplicated service component; **service links**
connect consecutive components (plus the application sender at the head
and receiver at the tail) and each maps onto an overlay network path.
A service graph decomposes into **branch paths**, QoS accumulates
additively along each branch, and the graph's end-to-end QoS is the
metric-wise worst branch (a DAG's output cannot be earlier/cleaner than
its slowest/lossiest branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..discovery.metadata import ServiceMetadata
from ..topology.overlay import Overlay
from .function_graph import FunctionGraph
from .qos import QoSVector

__all__ = ["ServiceLink", "ServiceGraph"]


@dataclass(frozen=True)
class ServiceLink:
    """One service link: ``from_fn@src_peer → to_fn@dst_peer``.

    ``None`` function names denote the virtual endpoints (application
    sender/receiver).  ``bandwidth`` is the stream rate this link must
    carry — the base request bandwidth scaled by the bandwidth factors of
    every upstream component (transcoders shrink the stream, upscalers
    grow it).
    """

    from_fn: Optional[str]
    to_fn: Optional[str]
    src_peer: int
    dst_peer: int
    bandwidth: float


@dataclass(frozen=True)
class ServiceGraph:
    """An instantiated composition: pattern + per-function component choice."""

    pattern: FunctionGraph
    assignment: Mapping[str, ServiceMetadata]
    source_peer: int
    dest_peer: int
    base_bandwidth: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))
        missing = set(self.pattern.functions) - set(self.assignment)
        if missing:
            raise ValueError(f"unassigned functions: {sorted(missing)}")
        for fn, meta in self.assignment.items():
            if meta.function != fn:
                raise ValueError(
                    f"component {meta.component_id} provides {meta.function!r}, "
                    f"assigned to {fn!r}"
                )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def component(self, fn: str) -> ServiceMetadata:
        return self.assignment[fn]

    def components(self) -> List[ServiceMetadata]:
        return [self.assignment[f] for f in self.pattern.functions]

    def component_ids(self) -> FrozenSet[int]:
        return frozenset(m.component_id for m in self.assignment.values())

    def peers(self, include_endpoints: bool = False) -> List[int]:
        out = [self.assignment[f].peer for f in self.pattern.functions]
        if include_endpoints:
            out = [self.source_peer] + out + [self.dest_peer]
        # preserve order, drop duplicates
        seen: Dict[int, None] = {}
        for p in out:
            seen.setdefault(p)
        return list(seen)

    def uses_peer(self, peer: int) -> bool:
        return any(m.peer == peer for m in self.assignment.values())

    def uses_component(self, component_id: int) -> bool:
        return any(m.component_id == component_id for m in self.assignment.values())

    def signature(self) -> Tuple[FrozenSet[Tuple[str, str]], FrozenSet[Tuple[str, int]]]:
        """Identity for deduplication: pattern edges + assignment."""
        return (
            self.pattern.edges,
            frozenset((f, m.component_id) for f, m in self.assignment.items()),
        )

    def overlap(self, other: "ServiceGraph") -> int:
        """Number of common service components (backup-selection criterion)."""
        return len(self.component_ids() & other.component_ids())

    # ------------------------------------------------------------------
    # bandwidth along links
    # ------------------------------------------------------------------
    @cached_property
    def _flow_bandwidth(self) -> Dict[str, Tuple[float, float]]:
        """fn → (input_rate, output_rate), worst case over converging branches."""
        rates: Dict[str, Tuple[float, float]] = {}
        for fn in self.pattern.topological_order():
            preds = self.pattern.predecessors(fn)
            if preds:
                in_rate = max(rates[p][1] for p in preds)
            else:
                in_rate = self.base_bandwidth
            out_rate = in_rate * self.assignment[fn].bandwidth_factor
            rates[fn] = (in_rate, out_rate)
        return rates

    def service_links(self) -> List[ServiceLink]:
        """All service links, head (sender→sources) to tail (sinks→receiver)."""
        links: List[ServiceLink] = []
        rates = self._flow_bandwidth
        for fn in self.pattern.sources():
            links.append(
                ServiceLink(None, fn, self.source_peer, self.assignment[fn].peer, rates[fn][0])
            )
        for a, b in sorted(self.pattern.edges):
            links.append(
                ServiceLink(a, b, self.assignment[a].peer, self.assignment[b].peer, rates[a][1])
            )
        for fn in self.pattern.sinks():
            links.append(
                ServiceLink(fn, None, self.assignment[fn].peer, self.dest_peer, rates[fn][1])
            )
        return links

    # ------------------------------------------------------------------
    # branch paths & QoS
    # ------------------------------------------------------------------
    def branch_paths(self) -> List[List[int]]:
        """Peer-level branch paths including the virtual endpoints."""
        out = []
        for branch in self.pattern.branches():
            peers = [self.source_peer] + [self.assignment[f].peer for f in branch]
            peers.append(self.dest_peer)
            out.append(peers)
        return out

    def branch_qos(self, overlay: Overlay, branch: Sequence[str]) -> QoSVector:
        """Additive QoS along one branch: link delays/losses + component Qp."""
        return self._branch_qos(overlay, branch, {})

    def _branch_qos(
        self,
        overlay: Overlay,
        branch: Sequence[str],
        hops: Dict[Tuple[int, int], Tuple[float, float]],
    ) -> QoSVector:
        """:meth:`branch_qos` with the (latency, loss) of every peer pair
        read through ``hops``.  Every link is added before any Qp: that
        order is the value, to the last bit."""
        delay = loss = 0.0
        u = self.source_peer
        for v in [self.assignment[f].peer for f in branch] + [self.dest_peer]:
            if u != v:
                hop = hops.get((u, v))
                if hop is None:
                    hop = hops[u, v] = (overlay.latency(u, v), overlay.path_loss_add(u, v))
                delay += hop[0]
                loss += hop[1]
            u = v
        for f in branch:
            qp = self.assignment[f].qp.values
            delay += qp.get("delay", 0.0)
            loss += qp.get("loss", 0.0)
        return QoSVector({"delay": delay, "loss": loss})

    def end_to_end_qos(self, overlay: Overlay) -> QoSVector:
        """Metric-wise maximum over branch paths (the worst branch rules);
        each distinct peer pair is read from the overlay once."""
        hops: Dict[Tuple[int, int], Tuple[float, float]] = {}
        result: Optional[QoSVector] = None
        for branch in self.pattern.branches():
            q = self._branch_qos(overlay, branch, hops)
            result = q if result is None else result.elementwise_max(q)
        assert result is not None  # validated non-empty pattern
        return result

    # ------------------------------------------------------------------
    # failure probability
    # ------------------------------------------------------------------
    def failure_probability(self, peer_failure: Callable[[int], float]) -> float:
        """1 − Π(1 − pᵢ) over hosting peers, assuming independence (§5.1 fn. 6)."""
        survive = 1.0
        for peer in {m.peer for m in self.assignment.values()}:
            p = peer_failure(peer)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"peer {peer} failure probability {p} out of range")
            survive *= 1.0 - p
        return 1.0 - survive

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f}→s{self.assignment[f].component_id}@v{self.assignment[f].peer}"
            for f in self.pattern.topological_order()
        )
        return f"ServiceGraph({self.source_peer}⇒[{parts}]⇒{self.dest_peer})"
