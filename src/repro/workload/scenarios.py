"""Canned experiment environments.

Two testbeds appear in the paper:

* the **simulation testbed** (§6.1): Inet-generated 10 000-node IP layer,
  1000 overlay peers, 1–3 components/peer from 200 functions;
* the **PlanetLab testbed** (§6.2): 102 wide-area hosts, one of six
  multimedia components each.

Both are reproduced here at configurable scale (defaults are laptop-
sized; pass the paper's numbers to run full scale — see DESIGN.md on
scaling).  Builders return a ready :class:`~repro.core.SpiderNet` plus
the deployed population and a request generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


from ..core.bcp import BCPConfig
from ..core.composition import SpiderNet
from ..core.session import RecoveryConfig
from ..services.component import ComponentSpec
from ..sim.rng import as_generator, spawn
from ..topology.inet import generate_ip_network
from ..topology.overlay import Overlay, mesh_overlay, wan_overlay
from .generator import (
    PopulationConfig,
    RequestConfig,
    RequestGenerator,
    generate_population,
    media_population,
)

__all__ = ["Scenario", "simulation_testbed", "planetlab_testbed"]


@dataclass
class Scenario:
    """A built environment: middleware + population + request source."""

    net: SpiderNet
    overlay: Overlay
    population: List[ComponentSpec]
    requests: RequestGenerator
    name: str = "scenario"

    @property
    def replication_degree(self) -> float:
        """Average number of duplicated components per provided function."""
        functions = self.net.registry.functions()
        if not functions:
            return 0.0
        return len(self.population) / len(functions)


def simulation_testbed(
    n_ip: int = 2000,
    n_peers: int = 200,
    n_functions: int = 50,
    overlay_degree: int = 4,
    components_per_peer: Tuple[int, int] = (1, 3),
    request_config: Optional[RequestConfig] = None,
    bcp_config: Optional[BCPConfig] = None,
    recovery_config: Optional[RecoveryConfig] = None,
    churn_rate: Optional[float] = None,
    churn_downtime: float = 30.0,
    protected_endpoints: int = 0,
    capacity_scale: float = 1.0,
    seed=0,
) -> Scenario:
    """The §6.1 environment, scaled (paper: 10 000 IP / 1000 peers / 200 fns).

    The peers:functions ratio is held near the paper's (1000:200 = 5:1 by
    default here 200:50 = 4:1) so replication degrees — what BCP's budget
    fraction is measured against — stay comparable.
    """
    rng = as_generator(seed)
    rng_topo, rng_overlay, rng_net, rng_pop, rng_req = spawn(rng, 5)
    ip = generate_ip_network(n_ip, rng=rng_topo)
    overlay = mesh_overlay(ip, n_peers, k=overlay_degree, rng=rng_overlay)
    peer_capacity = None
    if capacity_scale != 1.0:
        if capacity_scale <= 0:
            raise ValueError(f"capacity_scale must be positive, got {capacity_scale}")
        from ..core.composition import default_peer_capacity

        peer_capacity = default_peer_capacity(
            n_peers,
            rng_net,
            cpu_range=(50.0 * capacity_scale, 150.0 * capacity_scale),
            memory_range=(256.0 * capacity_scale, 1024.0 * capacity_scale),
        )
    net = SpiderNet.build(
        overlay,
        rng=rng_net,
        bcp_config=bcp_config,
        recovery_config=recovery_config,
        peer_capacity=peer_capacity,
        churn_rate=churn_rate,
        churn_downtime=churn_downtime,
    )
    population = generate_population(
        overlay,
        PopulationConfig(n_functions=n_functions, components_per_peer=components_per_peer),
        rng=rng_pop,
    )
    net.deploy(population)
    endpoint_pool = None
    if protected_endpoints > 0:
        # a stable set of sender/receiver peers exempt from churn: the
        # recovery experiment studies failures of *service* peers (the
        # endpoints are the measuring user; see fig9 driver docs)
        endpoint_pool = [
            int(p)
            for p in rng_req.choice(
                overlay.n_peers, size=min(protected_endpoints, overlay.n_peers), replace=False
            )
        ]
        if net.churn is not None:
            net.churn.protected.update(endpoint_pool)
    requests = RequestGenerator(
        overlay,
        net.registry.functions(),
        request_config,
        rng=rng_req,
        alive=net.network.is_alive,
        endpoint_pool=endpoint_pool,
    )
    return Scenario(net, overlay, population, requests, name="simulation")


def planetlab_testbed(
    n_peers: int = 102,
    request_config: Optional[RequestConfig] = None,
    bcp_config: Optional[BCPConfig] = None,
    recovery_config: Optional[RecoveryConfig] = None,
    churn_rate: Optional[float] = None,
    seed=0,
) -> Scenario:
    """The §6.2 environment: WAN overlay + one media component per peer.

    With the paper's 102 peers and 6 functions the average replication
    degree is 102/6 = 17, making the optimal algorithm's probe count for
    3-function requests ≈ 17³ = 4913.
    """
    rng = as_generator(seed)
    rng_topo, rng_net, rng_pop, rng_req = spawn(rng, 4)
    overlay = wan_overlay(n_peers, rng=rng_topo)
    net = SpiderNet.build(
        overlay,
        rng=rng_net,
        bcp_config=bcp_config,
        recovery_config=recovery_config,
        churn_rate=churn_rate,
    )
    population = media_population(overlay, rng=rng_pop)
    net.deploy(population)
    cfg = request_config or RequestConfig(
        function_count=(3, 3),
        qos_tightness=3.0,  # §6.2 measures achieved delay, not rejection
        duration_mean=1800.0,  # "tens of minutes or several hours"
    )
    requests = RequestGenerator(
        overlay, net.registry.functions(), cfg, rng=rng_req, alive=net.network.is_alive
    )
    return Scenario(net, overlay, population, requests, name="planetlab")
