"""Workload generation: populations, request streams, experiment scenarios."""

from .arrivals import (
    PoissonArrivals,
    ZipfFunctionSampler,
    zipf_weights,
)
from .generator import (
    PopulationConfig,
    RequestConfig,
    RequestGenerator,
    function_names,
    generate_population,
    media_population,
)
from .largegraph import (
    LargeGraphConfig,
    LargeGraphWorld,
    generate_large_graph,
    largegraph_population,
    largegraph_request,
    largegraph_world,
)

__all__ = [
    "LargeGraphConfig",
    "LargeGraphWorld",
    "PoissonArrivals",
    "PopulationConfig",
    "RequestConfig",
    "RequestGenerator",
    "function_names",
    "generate_large_graph",
    "generate_population",
    "largegraph_population",
    "largegraph_request",
    "largegraph_world",
    "media_population",
    "zipf_weights",
    "ZipfFunctionSampler",
]
