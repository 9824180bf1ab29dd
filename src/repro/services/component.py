"""The service component model (paper §2.2, Fig. 3).

A service component is a self-contained application unit with

* a provisioned **function** ``F`` (its place in function graphs),
* an **input quality** ``Qin`` and **output quality** ``Qout`` —
  application-level quality descriptors (format, resolution class) used
  for compatibility checks between chained components,
* a **performance quality** ``Qp`` — the same vector of performance
  parameters as the user's QoS requirements (its service delay, its
  contribution to loss),
* a **resource requirement** ``R`` on the host peer,
* one or more **input queues** buffering ADUs from the network; whenever
  no queue is empty the component consumes one ADU per queue, processes
  them, and emits output ADU(s).

The *descriptor* part (everything the composition layer needs) is the
frozen :class:`ComponentSpec`; the *runtime* part (queues + transform) is
:class:`ServiceComponent`, instantiated on a peer when a session's setup
ack arrives.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, FrozenSet, List, Optional, Sequence, Tuple

from ..core.qos import QoSVector
from ..core.resources import ResourceVector
from .adu import ADU

__all__ = ["ComponentSpec", "ServiceComponent", "QualitySpec", "ProcessingError"]

_component_ids = itertools.count(1)


class ProcessingError(RuntimeError):
    """Raised when a component cannot process its inputs."""


@dataclass(frozen=True)
class QualitySpec:
    """Application-level quality descriptor (the Qin/Qout of Fig. 3).

    ``formats`` is the set of data formats accepted/produced; a service
    link is quality-compatible when the upstream output format is among
    the downstream accepted formats (wildcard ``"*"`` accepts anything).
    """

    formats: FrozenSet[str] = frozenset({"*"})

    @classmethod
    def of(cls, *formats: str) -> "QualitySpec":
        return cls(frozenset(formats) if formats else frozenset({"*"}))

    def accepts(self, fmt: str) -> bool:
        return "*" in self.formats or fmt in self.formats

    def primary_format(self) -> str:
        if "*" in self.formats:
            return "*"
        return min(self.formats)

    def compatible_with(self, downstream: "QualitySpec") -> bool:
        """Can our output feed the downstream input?"""
        if "*" in self.formats or "*" in downstream.formats:
            return True
        return bool(self.formats & downstream.formats)


TransformFn = Callable[[Sequence[ADU]], List[ADU]]


@dataclass(frozen=True)
class ComponentSpec:
    """Static descriptor of a deployed service component.

    This is exactly what service discovery stores in the DHT: the
    function name, host peer, quality interfaces, performance quality
    ``Qp`` and resource needs ``R``.
    """

    component_id: int
    function: str
    peer: int
    qp: QoSVector
    resources: ResourceVector
    input_quality: QualitySpec = field(default_factory=QualitySpec)
    output_quality: QualitySpec = field(default_factory=QualitySpec)
    n_inputs: int = 1
    bandwidth_factor: float = 1.0  # output rate / input rate (transcoding shrinks)

    @classmethod
    def create(
        cls,
        function: str,
        peer: int,
        qp: QoSVector,
        resources: ResourceVector,
        input_quality: Optional[QualitySpec] = None,
        output_quality: Optional[QualitySpec] = None,
        n_inputs: int = 1,
        bandwidth_factor: float = 1.0,
    ) -> "ComponentSpec":
        if n_inputs < 1:
            raise ValueError(f"component needs >= 1 input queue, got {n_inputs}")
        if bandwidth_factor <= 0:
            raise ValueError("bandwidth_factor must be positive")
        return cls(
            component_id=next(_component_ids),
            function=function,
            peer=peer,
            qp=qp,
            resources=resources,
            input_quality=input_quality or QualitySpec(),
            output_quality=output_quality or QualitySpec(),
            n_inputs=n_inputs,
            bandwidth_factor=bandwidth_factor,
        )

    @property
    def service_delay(self) -> float:
        """The Qp delay term (seconds of processing per ADU)."""
        return self.qp.values.get("delay", 0.0)


class ServiceComponent:
    """Runtime instance: input queues + the actual transform.

    The transform is supplied by the service library (:mod:`.media`) or
    by users of the public API; the default is the identity function.
    """

    def __init__(
        self,
        spec: ComponentSpec,
        transform: Optional[TransformFn] = None,
        max_queue: int = 256,
    ) -> None:
        self.spec = spec
        self.transform = transform if transform is not None else lambda adus: list(adus)
        self.max_queue = max_queue
        self.queues: List[Deque[ADU]] = [deque() for _ in range(spec.n_inputs)]
        self.processed = 0
        self.emitted = 0
        self.dropped = 0

    def enqueue(self, adu: ADU, queue_index: int = 0) -> bool:
        """Buffer an input ADU; drops (returns False) when the queue is full."""
        if not 0 <= queue_index < len(self.queues):
            raise ProcessingError(
                f"component {self.spec.component_id} has no queue {queue_index}"
            )
        q = self.queues[queue_index]
        if len(q) >= self.max_queue:
            self.dropped += 1
            return False
        q.append(adu)
        return True

    @property
    def ready(self) -> bool:
        """Per the model: process whenever *no* input queue is empty."""
        return all(self.queues)

    def process_once(self) -> List[ADU]:
        """Take one ADU per queue, run the transform, return outputs."""
        if not self.ready:
            return []
        inputs = [q.popleft() for q in self.queues]
        outputs = self.transform(inputs)
        self.processed += 1
        self.emitted += len(outputs)
        return outputs

    def drain(self, limit: int = 10_000) -> List[ADU]:
        """Process until some queue runs dry; returns all outputs in order."""
        out: List[ADU] = []
        for _ in range(limit):
            if not self.ready:
                break
            out.extend(self.process_once())
        return out

    def queue_depths(self) -> Tuple[int, ...]:
        return tuple(len(q) for q in self.queues)

    def __repr__(self) -> str:
        return (
            f"ServiceComponent(id={self.spec.component_id}, fn={self.spec.function!r}, "
            f"peer={self.spec.peer}, queues={self.queue_depths()})"
        )
