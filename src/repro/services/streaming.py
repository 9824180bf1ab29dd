"""Streaming data plane: ADUs flowing through a composed service graph.

The control plane (composition, recovery) is what the paper evaluates,
but its subject is a *streaming application*: "the application sender
starts to stream application data units along the selected service
graph".  This module runs that stream on the virtual-time loop:

* the sender emits one ADU per frame interval;
* each service link delays the ADU by the overlay path latency and
  drops it with the path's loss probability;
* each component buffers the ADU in its input queue, spends its ``Qp``
  service delay, applies its transform, and forwards the output;
* the receiver records per-frame end-to-end latency and gaps.

The session's *current* service graph is consulted at every hop, so a
proactive failover (§5) redirects the stream mid-flight: frames already
heading to a dead peer are lost, and the receiver-side **glitch** (the
longest inter-arrival gap) measures the user-visible disruption — the
quantity proactive recovery exists to minimise.

Linear service graphs only (the unicast streaming case the paper's
examples use); DAG data planes are exercised at component level in
:mod:`repro.services.component`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.qos import additive_to_loss
from ..core.service_graph import ServiceGraph
from ..sim.rng import as_generator
from ..sim.vtime import every
from ..topology.overlay import Overlay
from .adu import VideoFrame
from .component import ComponentSpec, ServiceComponent, TransformFn
from .media import MEDIA_FUNCTIONS, make_transform

__all__ = ["StreamStats", "StreamingSession"]


@dataclass
class StreamStats:
    """Receiver-side measurements of one stream."""

    frames_sent: int = 0
    frames_delivered: int = 0
    frames_lost_link: int = 0  # network loss
    frames_lost_peer: int = 0  # delivered to a dead/obsolete component
    latencies: List[float] = field(default_factory=list)
    arrival_times: List[float] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        return self.frames_delivered / self.frames_sent if self.frames_sent else 0.0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    def longest_gap(self) -> float:
        """The worst receiver-side stall (user-visible glitch length)."""
        if len(self.arrival_times) < 2:
            return 0.0
        return float(np.max(np.diff(self.arrival_times)))


class StreamingSession:
    """Pushes a frame stream through a (possibly switching) service graph."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        overlay: Overlay,
        graph_provider: Callable[[], Optional[ServiceGraph]],
        spec_of: Optional[Callable[[int], ComponentSpec]] = None,
        fps: float = 10.0,
        frame_width: int = 640,
        frame_height: int = 480,
        alive: Optional[Callable[[int], bool]] = None,
        rng=None,
        model_loss: bool = True,
    ) -> None:
        """``graph_provider`` returns the session's *current* graph (None
        ends the stream); ``spec_of`` maps component ids to their
        deployed :class:`ComponentSpec` so the real transform runs —
        without it, media functions are resolved by name and anything
        else is the identity."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        self.loop = loop
        self.overlay = overlay
        self.graph_provider = graph_provider
        self.spec_of = spec_of
        self.frame_interval = 1.0 / fps
        self.frame_width = frame_width
        self.frame_height = frame_height
        self.alive = alive or (lambda p: True)
        self.rng = as_generator(rng)
        self.model_loss = model_loss
        self.stats = StreamStats()
        self.stream_id = int(self.rng.integers(1, 2**31))
        self._runtime: Dict[int, ServiceComponent] = {}  # component_id -> runtime
        self._emitter = None

    # ------------------------------------------------------------------
    def start(self, duration: Optional[float] = None) -> None:
        graph = self.graph_provider()
        if graph is None:
            raise RuntimeError("no service graph to stream over")
        self._check_linear(graph)
        self._emitter = every(self.loop, self.frame_interval, self._emit)
        if duration is not None:
            self.loop.call_later(duration, self.stop)

    def stop(self) -> None:
        if self._emitter is not None:
            self._emitter.cancel()
            self._emitter = None

    @staticmethod
    def _check_linear(graph: ServiceGraph) -> None:
        if not graph.pattern.is_linear():
            raise NotImplementedError(
                "StreamingSession supports linear service graphs (unicast "
                "streams); DAG data planes are tested at component level"
            )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _emit(self) -> None:
        graph = self.graph_provider()
        if graph is None:
            self.stop()
            return
        frame = VideoFrame.source(
            self.stream_id, timestamp=self.loop.time(),
            width=self.frame_width, height=self.frame_height,
        )
        self.stats.frames_sent += 1
        self._send_link(frame, graph.source_peer, stage=0, sent_at=self.loop.time())

    def _chain(self, graph: ServiceGraph) -> List[str]:
        return graph.pattern.topological_order()

    def _send_link(self, frame, from_peer: int, stage: int, sent_at: float) -> None:
        """Forward the frame over the overlay toward stage ``stage``."""
        graph = self.graph_provider()
        if graph is None:
            self.stats.frames_lost_peer += 1
            return
        chain = self._chain(graph)
        if stage >= len(chain):
            to_peer = graph.dest_peer
        else:
            to_peer = graph.component(chain[stage]).peer
        latency = self.overlay.latency(from_peer, to_peer) if from_peer != to_peer else 0.0
        if self.model_loss and from_peer != to_peer:
            loss_rate = additive_to_loss(self.overlay.path_loss_add(from_peer, to_peer))
            if self.rng.random() < loss_rate:
                self.stats.frames_lost_link += 1
                return
        self.loop.call_later(latency, self._arrive, frame, stage, sent_at)

    def _arrive(self, frame, stage: int, sent_at: float) -> None:
        graph = self.graph_provider()
        if graph is None:
            self.stats.frames_lost_peer += 1
            return
        chain = self._chain(graph)
        if stage >= len(chain):
            # receiver
            if not self.alive(graph.dest_peer):
                self.stats.frames_lost_peer += 1
                return
            self.stats.frames_delivered += 1
            now = self.loop.time()
            self.stats.latencies.append(now - sent_at)
            self.stats.arrival_times.append(now)
            return
        meta = graph.component(chain[stage])
        if not self.alive(meta.peer):
            # the component's host died (or a failover moved the stage
            # elsewhere while this frame was in flight): frame lost
            self.stats.frames_lost_peer += 1
            return
        runtime = self._runtime_for(meta.component_id, chain[stage])
        if not runtime.enqueue(frame):
            self.stats.frames_lost_peer += 1  # queue overflow
            return
        self.loop.call_later(
            meta.qp.values.get("delay", 0.0), self._process, meta.component_id,
            stage, meta.peer, sent_at,
        )

    def _process(self, component_id: int, stage: int, peer: int, sent_at: float) -> None:
        graph = self.graph_provider()
        if graph is None or not self.alive(peer):
            self.stats.frames_lost_peer += 1
            return
        runtime = self._runtime.get(component_id)
        if runtime is None:
            self.stats.frames_lost_peer += 1
            return
        outputs = runtime.process_once()
        for out in outputs:
            self._send_link(out, peer, stage + 1, sent_at)

    # ------------------------------------------------------------------
    def _runtime_for(self, component_id: int, function: str) -> ServiceComponent:
        runtime = self._runtime.get(component_id)
        if runtime is not None:
            return runtime
        transform: Optional[TransformFn] = None
        spec: Optional[ComponentSpec] = None
        if self.spec_of is not None:
            try:
                spec = self.spec_of(component_id)
            except KeyError:
                spec = None
        if spec is None:
            graph = self.graph_provider()
            meta = graph.component(function)
            spec = ComponentSpec.create(
                function=function,
                peer=meta.peer,
                qp=meta.qp,
                resources=meta.resources,
                bandwidth_factor=meta.bandwidth_factor,
            )
        if spec.function in MEDIA_FUNCTIONS:
            transform = make_transform(spec.function)
        runtime = ServiceComponent(spec, transform)
        self._runtime[component_id] = runtime
        return runtime
