"""IP-layer and overlay topology generation + shortest-path routing."""

from .graph import Graph, connected_components, is_connected
from .inet import TopologyError, generate_ip_network, power_law_degree_sequence
from .overlay import (
    Overlay,
    mesh_overlay,
    random_overlay,
    select_peers,
    wan_overlay,
)
from .routing import IPRouter, NoPathError, OverlayRouter, shortest_paths

__all__ = [
    "Graph",
    "IPRouter",
    "NoPathError",
    "Overlay",
    "OverlayRouter",
    "TopologyError",
    "connected_components",
    "generate_ip_network",
    "is_connected",
    "mesh_overlay",
    "power_law_degree_sequence",
    "random_overlay",
    "select_peers",
    "shortest_paths",
    "wan_overlay",
]
