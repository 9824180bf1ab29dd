"""Composite service requests (paper §2.1).

A request names a function graph, the user's QoS requirements ``Qreq``,
the stream endpoints (application sender and receiver peers), the base
stream bandwidth (a resource requirement, per the paper's footnote), a
failure-probability requirement ``F^req`` (consumed by the backup-count
formula, Eq. 2) and a session duration for workload bookkeeping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .function_graph import FunctionGraph
from .qos import QoSRequirement

__all__ = ["CompositeRequest"]

_request_ids = itertools.count(1)


@dataclass(frozen=True)
class CompositeRequest:
    """Everything the BCP source needs to start probing."""

    request_id: int
    function_graph: FunctionGraph
    qos: QoSRequirement
    source_peer: int
    dest_peer: int
    bandwidth: float = 0.5  # Mbps entering the first function
    failure_req: float = 0.05  # F^req: tolerated session failure probability
    duration: float = 600.0  # expected session length (virtual seconds)
    priority: float = 1.0  # may scale the probing budget (§4.1 Step 1)

    def __post_init__(self) -> None:
        if self.source_peer == self.dest_peer:
            raise ValueError("source and destination peers must differ")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not 0.0 < self.failure_req <= 1.0:
            raise ValueError(f"failure_req must be in (0, 1], got {self.failure_req}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @classmethod
    def create(
        cls,
        function_graph: FunctionGraph,
        qos: QoSRequirement,
        source_peer: int,
        dest_peer: int,
        bandwidth: float = 0.5,
        failure_req: float = 0.05,
        duration: float = 600.0,
        priority: float = 1.0,
        request_id: Optional[int] = None,
    ) -> "CompositeRequest":
        return cls(
            request_id=next(_request_ids) if request_id is None else request_id,
            function_graph=function_graph,
            qos=qos,
            source_peer=source_peer,
            dest_peer=dest_peer,
            bandwidth=bandwidth,
            failure_req=failure_req,
            duration=duration,
            priority=priority,
        )

    @property
    def n_functions(self) -> int:
        return len(self.function_graph)
