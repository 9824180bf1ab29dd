"""Large function-graph workloads for composition scaling studies.

The paper's requests stay small (2–4 functions, §6.1); this module
generates the *stress* regime instead — DAGs of 20–300 functions with a
configurable candidate density per function — so the anytime strategies
in :mod:`repro.core.strategies` have something to beat BCP on.

Three graph shapes are supported:

* ``layered`` — nodes arranged in consecutive layers, every non-first
  node wired to the previous layer (media pipelines with fan-out/fan-in);
* ``series-parallel`` — alternating join nodes and parallel groups, the
  classic stage-pipeline shape;
* ``random`` — a random DAG grown in topological order.

All generators keep the **source→sink path count** bounded
(``max_branches``): the composition machinery enumerates branches
explicitly (probe states, end-to-end evaluation of every complete
graph), so an uncontrolled DAG would make *every* algorithm exponential
in a way no real request is.  The search engine's QoS bounds are the
exception: they are kept per function, not per branch.  Extra edges beyond the spanning structure are only
committed if a full path-count recomputation stays within the cap.

Function names use a ``G`` prefix (``G001``…) so a large-graph catalogue
can coexist with the paper's ``F`` catalogue in one registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.composition import SpiderNet, default_peer_capacity
from ..core.function_graph import FunctionGraph
from ..core.qos import QoSRequirement, QoSVector, loss_to_additive
from ..core.request import CompositeRequest
from ..core.resources import ResourceVector
from ..services.component import ComponentSpec
from ..sim.rng import as_generator, spawn
from ..topology.inet import generate_ip_network
from ..topology.overlay import Overlay, mesh_overlay
from .generator import function_names

__all__ = [
    "LargeGraphConfig",
    "LargeGraphWorld",
    "generate_large_graph",
    "largegraph_population",
    "largegraph_request",
    "largegraph_world",
]


@dataclass(frozen=True)
class LargeGraphConfig:
    """Shape of one large-graph composition problem."""

    kind: str = "layered"  # "layered" | "series-parallel" | "random"
    n_functions: int = 50  # DAG size (20–300 is the intended regime)
    branching: int = 3  # layer width / parallel-group size / extra-edge rate
    candidate_density: int = 4  # component replicas per function
    max_branches: int = 32  # hard cap on source→sink path count
    # per-component footprint: small, so 100-function graphs still admit
    cpu_range: Tuple[float, float] = (1.0, 6.0)
    memory_range: Tuple[float, float] = (4.0, 32.0)
    service_delay_range: Tuple[float, float] = (0.002, 0.020)
    service_loss_range: Tuple[float, float] = (0.0, 0.001)
    bandwidth_factor_range: Tuple[float, float] = (0.9, 1.1)
    qos_tightness: float = 1.5  # multiplier on the calibrated QoS budgets
    per_hop_delay_allowance: float = 0.120
    per_function_delay_allowance: float = 0.030
    # loss budget: link loss dominates at depth (every hop crosses the
    # underlay), so it gets a per-hop allowance just like delay does
    per_hop_loss_allowance: float = 0.004
    per_function_loss_bound: float = 0.002
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("layered", "series-parallel", "random"):
            raise ValueError(f"unknown large-graph kind {self.kind!r}")
        if self.n_functions < 2:
            raise ValueError("n_functions must be at least 2")
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.candidate_density < 1:
            raise ValueError("candidate_density must be at least 1")
        if self.max_branches < 1:
            raise ValueError("max_branches must be at least 1")


# ----------------------------------------------------------------------
# DAG generation
# ----------------------------------------------------------------------
def _total_paths(n: int, preds: Sequence[Sequence[int]]) -> int:
    """Source→sink path count of the DAG given per-node predecessor lists
    (nodes are already in topological order: every pred index < node)."""
    paths = [0] * n
    has_succ = [False] * n
    for v in range(n):
        paths[v] = sum(paths[u] for u in preds[v]) if preds[v] else 1
        for u in preds[v]:
            has_succ[u] = True
    return sum(paths[v] for v in range(n) if not has_succ[v])


def _commit_extra_edges(
    n: int,
    preds: List[List[int]],
    proposals: List[Tuple[int, int]],
    max_branches: int,
    rng,
) -> None:
    """Greedily add proposed (u, v) edges, in shuffled order, while the
    path count stays within the cap.  Recomputing the count per proposal
    is O(V+E) — cheap at these sizes, and exact where any local bound
    would not be."""
    for idx in rng.permutation(len(proposals)):
        u, v = proposals[int(idx)]
        if u in preds[v]:
            continue
        preds[v].append(u)
        if _total_paths(n, preds) > max_branches:
            preds[v].remove(u)


def generate_large_graph(
    config: Optional[LargeGraphConfig] = None, rng=None
) -> FunctionGraph:
    """A large DAG of ``G``-prefixed functions with bounded path count."""
    cfg = config or LargeGraphConfig()
    rng = as_generator(rng if rng is not None else cfg.seed)
    n = cfg.n_functions
    names = function_names(n, prefix="G")
    preds: List[List[int]] = [[] for _ in range(n)]

    if cfg.kind == "layered":
        # a braid: entry → `branching` parallel chains → exit, with
        # cross-links between depth-adjacent positions of different
        # chains proposed under the path cap.  The base path count is
        # exactly the chain count, independent of depth.
        middle = list(range(1, n - 1))
        w = max(1, min(cfg.branching, len(middle) or 1))
        chains: List[List[int]] = [middle[c::w] for c in range(w)]
        chains = [c for c in chains if c]
        for chain in chains:
            preds[chain[0]].append(0)
            for u, v in zip(chain, chain[1:]):
                preds[v].append(u)
            preds[n - 1].append(chain[-1])
        if not chains:
            preds[n - 1].append(0)
        proposals: List[Tuple[int, int]] = []
        for c1, ch1 in enumerate(chains):
            for c2, ch2 in enumerate(chains):
                if c1 == c2:
                    continue
                for i in range(min(len(ch1), len(ch2)) - 1):
                    proposals.append((ch1[i], ch2[i + 1]))
        _commit_extra_edges(n, preds, proposals, cfg.max_branches, rng)

    elif cfg.kind == "series-parallel":
        # alternating join nodes and parallel groups: j → {p…} → j → …
        # path count is the product of group sizes, tracked exactly
        product = 1
        i = 1  # node 0 is the entry join
        last_join = 0
        while i < n:
            remaining = n - i
            size = int(rng.integers(1, max(1, cfg.branching) + 1))
            size = min(size, max(1, remaining - 1))
            if product * size > cfg.max_branches:
                size = 1
            group = list(range(i, i + size))
            for v in group:
                preds[v].append(last_join)
            i += size
            if i < n:  # closing join node
                for v in group:
                    preds[i].append(v)
                last_join = i
                product *= size
                i += 1

    else:  # random
        # a chain backbone (single source/sink, one path) plus random
        # local forward "skip" edges committed under the path cap
        for v in range(1, n):
            preds[v].append(v - 1)
        proposals = []
        for v in range(2, n):
            extra = int(rng.integers(0, cfg.branching + 1))
            lo = max(0, v - 4 * cfg.branching)  # keep edges local-ish
            pool = [u for u in range(lo, v - 1)]
            if pool and extra:
                for u in rng.choice(pool, size=min(extra, len(pool)), replace=False):
                    proposals.append((int(u), v))
        _commit_extra_edges(n, preds, proposals, cfg.max_branches, rng)

    edges = [(names[u], names[v]) for v in range(n) for u in preds[v]]
    return FunctionGraph.from_edges(names, edges)


# ----------------------------------------------------------------------
# population + request
# ----------------------------------------------------------------------
def largegraph_population(
    overlay: Overlay,
    graph: FunctionGraph,
    config: Optional[LargeGraphConfig] = None,
    rng=None,
) -> List[ComponentSpec]:
    """``candidate_density`` replicas of every graph function, each on a
    distinct random peer (per function), with deliberately small resource
    demands so deep graphs remain admissible."""
    cfg = config or LargeGraphConfig()
    rng = as_generator(rng if rng is not None else cfg.seed + 1)
    peers = list(overlay.peers())
    density = min(cfg.candidate_density, len(peers))
    specs: List[ComponentSpec] = []
    for fn in graph.functions:
        hosts = rng.choice(len(peers), size=density, replace=False)
        for pi in hosts:
            qp = QoSVector(
                {
                    "delay": float(rng.uniform(*cfg.service_delay_range)),
                    "loss": loss_to_additive(
                        float(rng.uniform(*cfg.service_loss_range))
                    ),
                }
            )
            res = ResourceVector(
                {
                    "cpu": float(rng.uniform(*cfg.cpu_range)),
                    "memory": float(rng.uniform(*cfg.memory_range)),
                }
            )
            specs.append(
                ComponentSpec.create(
                    function=fn,
                    peer=int(peers[int(pi)]),
                    qp=qp,
                    resources=res,
                    bandwidth_factor=float(
                        rng.uniform(*cfg.bandwidth_factor_range)
                    ),
                )
            )
    return specs


def largegraph_request(
    overlay: Overlay,
    graph: FunctionGraph,
    config: Optional[LargeGraphConfig] = None,
    rng=None,
    source: Optional[int] = None,
    dest: Optional[int] = None,
) -> CompositeRequest:
    """One composition request over ``graph`` with bounds calibrated to
    its depth (an absolute bound would be trivially loose at 20 functions
    and impossible at 300)."""
    cfg = config or LargeGraphConfig()
    rng = as_generator(rng if rng is not None else cfg.seed + 2)
    peers = list(overlay.peers())
    if source is None:
        source = int(peers[int(rng.integers(0, len(peers)))])
    if dest is None:
        dest = source
        while dest == source and len(peers) > 1:
            dest = int(peers[int(rng.integers(0, len(peers)))])
    longest_branch = max(len(b) for b in graph.branches())
    hops = longest_branch + 1
    delay_bound = cfg.qos_tightness * (
        hops * cfg.per_hop_delay_allowance
        + longest_branch * cfg.per_function_delay_allowance
    )
    loss_bound = min(
        0.5,
        cfg.qos_tightness
        * (
            hops * cfg.per_hop_loss_allowance
            + longest_branch * cfg.per_function_loss_bound
        ),
    )
    qos = QoSRequirement(
        {"delay": delay_bound, "loss": loss_to_additive(loss_bound)}
    )
    return CompositeRequest.create(
        function_graph=graph,
        qos=qos,
        source_peer=source,
        dest_peer=dest,
        bandwidth=float(rng.uniform(0.2, 0.6)),
        failure_req=0.05,
        duration=600.0,
    )


# ----------------------------------------------------------------------
# one-call world builder
# ----------------------------------------------------------------------
@dataclass
class LargeGraphWorld:
    """A built large-graph environment ready for strategy comparison."""

    net: SpiderNet
    overlay: Overlay
    graph: FunctionGraph
    population: List[ComponentSpec]
    request: CompositeRequest
    config: LargeGraphConfig


def largegraph_world(
    config: Optional[LargeGraphConfig] = None,
    n_peers: int = 60,
    n_ip: int = 300,
) -> LargeGraphWorld:
    """Build overlay + middleware, deploy the population, draw a request.

    Peer capacities are scaled with the expected per-peer component load
    so the generated problem is resource-feasible by construction (the
    strategies are being compared on *search*, not on a world where no
    valid graph exists at all).
    """
    cfg = config or LargeGraphConfig()
    rng = as_generator(cfg.seed)
    rng_topo, rng_overlay, rng_net, rng_pop, rng_req = spawn(rng, 5)
    ip = generate_ip_network(n_ip, rng=rng_topo)
    overlay = mesh_overlay(ip, n_peers, k=4, rng=rng_overlay)
    expected_load = max(
        1.0, cfg.n_functions * cfg.candidate_density / max(1, n_peers)
    )
    capacity = default_peer_capacity(
        n_peers,
        rng_net,
        cpu_range=(50.0 * expected_load, 150.0 * expected_load),
        memory_range=(256.0 * expected_load, 1024.0 * expected_load),
    )
    net = SpiderNet.build(overlay, rng=rng_net, peer_capacity=capacity)
    graph = generate_large_graph(cfg, rng=rng_pop)
    population = largegraph_population(overlay, graph, cfg, rng=rng_pop)
    net.deploy(population)
    request = largegraph_request(overlay, graph, cfg, rng=rng_req)
    return LargeGraphWorld(
        net=net,
        overlay=overlay,
        graph=graph,
        population=population,
        request=request,
        config=cfg,
    )
