"""Service meta-data records stored in the DHT (paper §3).

Registration stores a component's *static* meta-data — location (host
peer), input/output quality, resource requirement, performance quality —
under ``key = hash(function name)``, so all functionally duplicated
components land on the same DHT-responsible peer and one lookup returns
the whole duplicate list.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.qos import QoSVector
from ..core.resources import ResourceVector
from ..services.component import ComponentSpec, QualitySpec

__all__ = ["ServiceMetadata"]


@dataclass(frozen=True, slots=True)
class ServiceMetadata:
    """One duplicated component's entry in the function's meta-data list.

    This is deliberately *static* information (the paper stores static
    meta-data at registration time): dynamic QoS/resource states are
    collected on demand by composition probes, never from the DHT.
    """

    component_id: int
    function: str
    peer: int
    qp: QoSVector
    resources: ResourceVector
    input_quality: QualitySpec
    output_quality: QualitySpec
    bandwidth_factor: float = 1.0
    registered_at: float = 0.0

    @classmethod
    def from_spec(cls, spec: ComponentSpec, registered_at: float = 0.0) -> "ServiceMetadata":
        return cls(
            component_id=spec.component_id,
            function=spec.function,
            peer=spec.peer,
            qp=spec.qp,
            resources=spec.resources,
            input_quality=spec.input_quality,
            output_quality=spec.output_quality,
            bandwidth_factor=spec.bandwidth_factor,
            registered_at=registered_at,
        )
