"""IP-layer and overlay topology generation + shortest-path routing."""

from .inet import TopologyError, generate_ip_network, power_law_degree_sequence
from .overlay import (
    Overlay,
    mesh_overlay,
    peer_delay_matrix,
    random_overlay,
    select_peers,
    wan_overlay,
)
from .routing import IPRouter, OverlayRouter, graph_to_sparse

__all__ = [
    "IPRouter",
    "Overlay",
    "OverlayRouter",
    "TopologyError",
    "generate_ip_network",
    "graph_to_sparse",
    "mesh_overlay",
    "peer_delay_matrix",
    "power_law_degree_sequence",
    "random_overlay",
    "select_peers",
    "wan_overlay",
]
