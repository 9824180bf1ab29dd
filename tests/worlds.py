"""Hand-built miniature worlds for protocol tests.

The figure-scale scenarios randomise everything; protocol tests instead
need exact control over who hosts what, at which delay, with how much
capacity — so assertions can be computed by hand.  Property tests take
their hypothesis settings from here too.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
from hypothesis import settings

from repro.core.bcp import BCP, BCPConfig
from repro.core.qos import QoSRequirement, QoSVector, loss_to_additive
from repro.core.request import CompositeRequest
from repro.core.resources import ResourcePool, ResourceVector
from repro.core.strategies import StrategyContext
from repro.dht.pastry import PastryNetwork
from repro.discovery.registry import ServiceRegistry
from repro.services.component import ComponentSpec, QualitySpec
from repro.topology.overlay import Overlay
from repro.topology.routing import OverlayRouter


def fuzz_settings(examples: int) -> settings:
    """Settings of a property test: ``examples`` derandomized ones, so
    tier-1 is repeatable; a profile selected on the command line
    (``--hypothesis-profile=long``, see conftest.py) decides both instead."""
    if settings.default is not settings.get_profile("default"):
        return settings(deadline=None)
    return settings(max_examples=examples, deadline=None, derandomize=True)


def micro_overlay(n_peers: int = 8, unit_delay: float = 0.010) -> Overlay:
    """A full mesh where latency(a, b) = unit_delay * |a - b|.

    Predictable by construction: the shortest path between two peers is
    always the direct link (metric is a line metric).
    """
    g = nx.Graph()
    g.add_nodes_from(range(n_peers))
    for a in range(n_peers):
        for b in range(a + 1, n_peers):
            g.add_edge(
                a,
                b,
                delay=unit_delay * (b - a),
                bandwidth=10.0,
                loss_add=loss_to_additive(0.001) * (b - a),
            )
    return Overlay(graph=g, router=OverlayRouter(g), kind="micro")


class MicroWorld:
    """Overlay + pool + registry + BCP with hand-placed components."""

    def __init__(
        self,
        n_peers: int = 8,
        cpu: float = 100.0,
        memory: float = 400.0,
        seed: int = 0,
        config: Optional[BCPConfig] = None,
        unit_delay: float = 0.010,
    ) -> None:
        self.overlay = micro_overlay(n_peers, unit_delay)
        caps = {
            p: ResourceVector({"cpu": cpu, "memory": memory})
            for p in self.overlay.peers()
        }
        self.pool = ResourcePool(self.overlay, caps)
        self.dht = PastryNetwork(self.overlay, rng=np.random.default_rng(seed))
        self.dht.build()
        self.registry = ServiceRegistry(self.dht)
        self.dead: set[int] = set()
        self.bcp = BCP(
            self.overlay,
            self.pool,
            self.registry,
            config=config or BCPConfig(),
            alive=lambda p: p not in self.dead,
            rng=np.random.default_rng(seed + 1),
        )
        self.specs: List[ComponentSpec] = []

    def place(
        self,
        function: str,
        peer: int,
        delay: float = 0.005,
        loss: float = 0.0,
        cpu: float = 10.0,
        memory: float = 20.0,
        bandwidth_factor: float = 1.0,
        input_formats: Tuple[str, ...] = (),
        output_formats: Tuple[str, ...] = (),
    ) -> ComponentSpec:
        """Deploy one component with fully specified properties."""
        spec = ComponentSpec.create(
            function=function,
            peer=peer,
            qp=QoSVector({"delay": delay, "loss": loss}),
            resources=ResourceVector({"cpu": cpu, "memory": memory}),
            input_quality=QualitySpec.of(*input_formats),
            output_quality=QualitySpec.of(*output_formats),
            bandwidth_factor=bandwidth_factor,
        )
        self.registry.register(spec)
        self.specs.append(spec)
        return spec

    def request(
        self,
        function_graph,
        source: int = 0,
        dest: int = 1,
        delay_bound: float = 10.0,
        loss_bound: float = 0.5,
        bandwidth: float = 0.5,
        **kwargs,
    ) -> CompositeRequest:
        return CompositeRequest.create(
            function_graph=function_graph,
            qos=QoSRequirement(
                {"delay": delay_bound, "loss": loss_to_additive(loss_bound)}
            ),
            source_peer=source,
            dest_peer=dest,
            bandwidth=bandwidth,
            **kwargs,
        )

    def kill(self, peer: int) -> None:
        self.dead.add(peer)
        self.registry.peer_departed(peer)
        self.dht.node_departed(peer)


def micro_context(world: MicroWorld) -> StrategyContext:
    """What a composition strategy binds to, over a hand-built world."""
    return StrategyContext(
        overlay=world.overlay,
        pool=world.pool,
        registry=world.registry,
        config=world.bcp.config,
        alive=world.bcp.alive,
        rng=world.bcp.rng,
        bcp=world.bcp,
    )
