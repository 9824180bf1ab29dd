"""Workload generation: service populations and composition requests.

The paper's simulation setup (§6.1): each of 1000 peers provides 1–3
service components drawn from 200 pre-defined functions; during each
time unit a number of composition requests arrive on random peers.  The
prototype setup (§6.2): 102 peers, one of six multimedia components
each (average replication degree 17).

Request QoS requirements are calibrated relative to the overlay's actual
delay scale (``qos_tightness`` × a per-hop allowance), because an
absolute bound that is trivially loose (everything succeeds) or
impossibly tight (nothing does) would flatten every curve the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


from ..core.function_graph import FunctionGraph
from ..core.qos import QoSRequirement, QoSVector, loss_to_additive
from ..core.request import CompositeRequest
from ..core.resources import ResourceVector
from ..services.component import ComponentSpec
from ..services.media import MEDIA_FUNCTIONS, make_media_component
from ..sim.rng import as_generator
from ..topology.overlay import Overlay

__all__ = [
    "PopulationConfig",
    "generate_population",
    "media_population",
    "RequestConfig",
    "RequestGenerator",
    "function_names",
]


def function_names(n: int, prefix: str = "F") -> List[str]:
    """The paper's pre-defined function catalogue: F001..Fnnn."""
    width = max(3, len(str(n)))
    return [f"{prefix}{i:0{width}d}" for i in range(1, n + 1)]


@dataclass(frozen=True)
class PopulationConfig:
    """How to populate an overlay with service components."""

    n_functions: int = 200
    components_per_peer: Tuple[int, int] = (1, 3)  # inclusive range, §6.1
    service_delay_range: Tuple[float, float] = (0.005, 0.050)
    service_loss_range: Tuple[float, float] = (0.0, 0.002)
    cpu_range: Tuple[float, float] = (4.0, 24.0)
    memory_range: Tuple[float, float] = (16.0, 128.0)
    bandwidth_factor_range: Tuple[float, float] = (0.5, 1.6)


def generate_population(
    overlay: Overlay, config: Optional[PopulationConfig] = None, rng=None
) -> List[ComponentSpec]:
    """Deploy [lo, hi] random-function components on every peer (§6.1)."""
    cfg = config or PopulationConfig()
    rng = as_generator(rng)
    names = function_names(cfg.n_functions)
    specs: List[ComponentSpec] = []
    lo, hi = cfg.components_per_peer
    if not 1 <= lo <= hi:
        raise ValueError(f"bad components_per_peer range: {cfg.components_per_peer}")
    for peer in overlay.peers():
        count = int(rng.integers(lo, hi + 1))
        fns = rng.choice(len(names), size=min(count, len(names)), replace=False)
        for fi in fns:
            qp = QoSVector(
                {
                    "delay": float(rng.uniform(*cfg.service_delay_range)),
                    "loss": loss_to_additive(float(rng.uniform(*cfg.service_loss_range))),
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
                    function=names[int(fi)],
                    peer=peer,
                    qp=qp,
                    resources=res,
                    bandwidth_factor=float(rng.uniform(*cfg.bandwidth_factor_range)),
                )
            )
    return specs


def media_population(overlay: Overlay, rng=None) -> List[ComponentSpec]:
    """One random media component per peer — the PlanetLab deployment
    of §6.2 (102 hosts / 6 functions → replication degree ≈ 17)."""
    rng = as_generator(rng)
    specs = []
    for peer in overlay.peers():
        fn = MEDIA_FUNCTIONS[int(rng.integers(0, len(MEDIA_FUNCTIONS)))]
        specs.append(make_media_component(fn, peer, rng=rng))
    return specs


@dataclass(frozen=True)
class RequestConfig:
    """Shape and stringency of generated composition requests."""

    function_count: Tuple[int, int] = (2, 4)  # inclusive range
    dag_probability: float = 0.0  # chance of a diamond DAG instead of a chain
    commutation_probability: float = 0.0  # chance of one commutation link
    qos_tightness: float = 1.0  # multiplier on the calibrated delay budget
    per_hop_delay_allowance: float = 0.120  # link + processing budget per hop
    per_function_delay_allowance: float = 0.050  # service time budget
    loss_bound: float = 0.05  # end-to-end loss-rate bound
    bandwidth_range: Tuple[float, float] = (0.2, 1.0)  # Mbps
    duration_mean: float = 600.0  # exponential session length
    failure_req: float = 0.05
    popularity_skew: float = 0.0  # Zipf exponent over functions (0 = uniform)


class RequestGenerator:
    """Draws random composite requests against a deployed population."""

    def __init__(
        self,
        overlay: Overlay,
        available_functions: Sequence[str],
        config: Optional[RequestConfig] = None,
        rng=None,
        alive=None,
        endpoint_pool: Optional[Sequence[int]] = None,
    ) -> None:
        if len(available_functions) == 0:
            raise ValueError("no functions available to request")
        self.overlay = overlay
        self.functions = list(available_functions)
        self.config = config or RequestConfig()
        self.rng = as_generator(rng)
        # endpoint liveness filter: users issue requests from live peers
        self.alive = alive if alive is not None else (lambda p: True)
        # optional restriction of sender/receiver peers (e.g. churn-
        # protected endpoints in the failure-recovery experiment)
        self.endpoint_pool = list(endpoint_pool) if endpoint_pool is not None else None
        self._sampler = None
        if self.config.popularity_skew > 0:
            from .arrivals import ZipfFunctionSampler

            self._sampler = ZipfFunctionSampler(
                self.functions, skew=self.config.popularity_skew, rng=self.rng
            )

    # ------------------------------------------------------------------
    def next_request(
        self,
        n_functions: Optional[int] = None,
        source: Optional[int] = None,
        dest: Optional[int] = None,
    ) -> CompositeRequest:
        cfg = self.config
        rng = self.rng
        lo, hi = cfg.function_count
        k = int(rng.integers(lo, hi + 1)) if n_functions is None else n_functions
        k = min(k, len(self.functions))
        if self._sampler is not None:
            fns = self._sampler.sample(k)
        else:
            idx = rng.choice(len(self.functions), size=k, replace=False)
            fns = [self.functions[int(i)] for i in idx]
        graph = self._build_graph(fns)
        base = self.endpoint_pool if self.endpoint_pool is not None else self.overlay.peers()
        peers = [p for p in base if self.alive(p)]
        if len(peers) < 2:
            raise RuntimeError("fewer than two live peers to act as endpoints")
        if source is None:
            source = int(peers[int(rng.integers(0, len(peers)))])
        if dest is None:
            dest = source
            while dest == source:
                dest = int(peers[int(rng.integers(0, len(peers)))])
        qos = self._qos_requirement(graph)
        return CompositeRequest.create(
            function_graph=graph,
            qos=qos,
            source_peer=source,
            dest_peer=dest,
            bandwidth=float(rng.uniform(*cfg.bandwidth_range)),
            failure_req=cfg.failure_req,
            duration=float(rng.exponential(cfg.duration_mean)),
        )

    def _build_graph(self, fns: List[str]) -> FunctionGraph:
        cfg = self.config
        rng = self.rng
        if len(fns) >= 4 and rng.random() < cfg.dag_probability:
            # diamond: f0 → {f1, f2} → f3 (→ chain of any remaining)
            edges = [(fns[0], fns[1]), (fns[0], fns[2]), (fns[1], fns[3]), (fns[2], fns[3])]
            for a, b in zip(fns[3:], fns[4:]):
                edges.append((a, b))
            return FunctionGraph.from_edges(fns, edges)
        commutations: List[Tuple[str, str]] = []
        if len(fns) >= 3 and rng.random() < cfg.commutation_probability:
            # one exchangeable interior pair (never the first hop, so the
            # pair stays chain-adjacent)
            i = int(rng.integers(1, len(fns) - 1))
            commutations.append((fns[i], fns[i + 1]) if i + 1 < len(fns) else (fns[i - 1], fns[i]))
        return FunctionGraph.linear(fns, commutations)

    def _qos_requirement(self, graph: FunctionGraph) -> QoSRequirement:
        cfg = self.config
        longest_branch = max(len(b) for b in graph.branches())
        hops = longest_branch + 1  # components + final hop to the receiver
        delay_bound = cfg.qos_tightness * (
            hops * cfg.per_hop_delay_allowance
            + longest_branch * cfg.per_function_delay_allowance
        )
        return QoSRequirement(
            {"delay": delay_bound, "loss": loss_to_additive(cfg.loss_bound)}
        )

    # ------------------------------------------------------------------
    def batch(self, n: int, **kwargs) -> List[CompositeRequest]:
        return [self.next_request(**kwargs) for _ in range(n)]
