"""The §6.1 overhead claim: BCP vs centralized global-state maintenance.

"Compared to the global-view-based centralized scheme, SpiderNet can
achieve similar performance but with more than one order of magnitude
less overhead since SpiderNet does not perform periodical global view
maintenance."

We run the same request stream through (a) BCP (on-demand probes + DHT
lookups) and (b) a centralized composer fed by periodic per-peer state
updates, count every protocol message on both sides, and report the
per-request overhead ratio together with the achieved success ratios
(they should be comparable — the centralized scheme has a global view,
BCP a probed one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.baselines import CentralizedComposer
from ..core.bcp import BCPConfig
from ..sim.metrics import RatioMeter
from ..workload.generator import RequestConfig
from ..workload.scenarios import simulation_testbed
from .harness import HeldSessions

__all__ = ["OverheadConfig", "OverheadResult", "run_overhead"]

BCP_CATEGORIES = ("bcp_probe", "bcp_ack", "bcp_failure", "dht_route", "dht_replicate")
CENTRAL_CATEGORIES = ("state_update", "centralized_setup")


@dataclass(frozen=True)
class OverheadConfig:
    n_ip: int = 800
    n_peers: int = 150
    n_functions: int = 40
    duration: int = 30  # time units
    workload: int = 3  # requests per time unit
    session_duration: float = 15.0
    budget: int = 32
    update_period: float = 1.0  # centralized state refresh, per time unit
    function_count: Tuple[int, int] = (2, 3)
    seed: int = 0


@dataclass
class OverheadResult:
    config: OverheadConfig
    bcp_messages: int
    centralized_messages: int
    requests: int
    bcp_success: float
    centralized_success: float
    bcp_breakdown: Dict[str, int] = field(default_factory=dict)
    centralized_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def overhead_ratio(self) -> float:
        """centralized msgs / BCP msgs (paper: > 10×)."""
        return self.centralized_messages / max(self.bcp_messages, 1)

    def table(self) -> str:
        per_req_bcp = self.bcp_messages / max(self.requests, 1)
        per_req_cen = self.centralized_messages / max(self.requests, 1)
        rows = [
            f"{'scheme':>12s}  {'messages':>10s}  {'msgs/request':>12s}  {'success':>8s}",
            f"{'-'*12}  {'-'*10}  {'-'*12}  {'-'*8}",
            f"{'SpiderNet':>12s}  {self.bcp_messages:>10d}  {per_req_bcp:>12.1f}  {self.bcp_success:>8.3f}",
            f"{'centralized':>12s}  {self.centralized_messages:>10d}  {per_req_cen:>12.1f}  {self.centralized_success:>8.3f}",
            "",
            f"overhead ratio (centralized / SpiderNet): {self.overhead_ratio:.1f}x",
        ]
        return "\n".join(rows)


def _build(cfg: OverheadConfig):
    return simulation_testbed(
        n_ip=cfg.n_ip,
        n_peers=cfg.n_peers,
        n_functions=cfg.n_functions,
        request_config=RequestConfig(function_count=cfg.function_count),
        bcp_config=BCPConfig(budget=cfg.budget),
        seed=cfg.seed,
    )


def run_overhead(
    config: Optional[OverheadConfig] = None, verbose: bool = False, trace=None
) -> OverheadResult:
    """Count protocol messages for the same workload under both schemes.

    ``trace`` records one ``experiment_point`` per scheme with the
    category breakdown."""
    cfg = config or OverheadConfig()

    # --- SpiderNet / BCP side -----------------------------------------
    scenario = _build(cfg)
    net = scenario.net
    held = HeldSessions(net.pool)
    meter = RatioMeter()
    before = {c: net.ledger.count.get(c, 0) for c in BCP_CATEGORIES}
    n_requests = 0
    for t in range(cfg.duration):
        held.release_due(float(t))
        for _ in range(cfg.workload):
            request = scenario.requests.next_request()
            result = net.bcp.compose(request, budget=cfg.budget, confirm=True)
            n_requests += 1
            meter.record(result.success)
            if result.success:
                held.admit(result.session_tokens, t + cfg.session_duration)
    bcp_breakdown = {
        c: net.ledger.count.get(c, 0) - before[c] for c in BCP_CATEGORIES
    }
    bcp_messages = sum(bcp_breakdown.values())
    bcp_success = meter.ratio
    held.release_all()

    # --- centralized side (fresh, identical environment) ---------------
    scenario2 = _build(cfg)
    net2 = scenario2.net
    composer = CentralizedComposer(
        net2.overlay, net2.pool, net2.registry, ledger=net2.ledger
    )
    held2 = HeldSessions(net2.pool)
    meter2 = RatioMeter()
    next_refresh = 0.0
    for t in range(cfg.duration):
        held2.release_due(float(t))
        while next_refresh <= t:
            composer.refresh()
            next_refresh += cfg.update_period
        for _ in range(cfg.workload):
            request = scenario2.requests.next_request()
            result = composer.compose(request, confirm=True)
            meter2.record(result.success)
            if result.success:
                held2.admit(result.session_tokens, t + cfg.session_duration)
    centralized_breakdown = {
        c: net2.ledger.count.get(c, 0) for c in CENTRAL_CATEGORIES
    }
    centralized_messages = sum(centralized_breakdown.values())
    held2.release_all()

    if trace is not None:
        trace.record(
            "experiment_point", time=0.0, experiment="overhead",
            scheme="spidernet", messages=bcp_messages,
            success=bcp_success, breakdown=dict(bcp_breakdown),
        )
        trace.record(
            "experiment_point", time=0.0, experiment="overhead",
            scheme="centralized", messages=centralized_messages,
            success=meter2.ratio, breakdown=dict(centralized_breakdown),
        )
    result = OverheadResult(
        config=cfg,
        bcp_messages=bcp_messages,
        centralized_messages=centralized_messages,
        requests=n_requests,
        bcp_success=bcp_success,
        centralized_success=meter2.ratio,
        bcp_breakdown=bcp_breakdown,
        centralized_breakdown=centralized_breakdown,
    )
    if verbose:
        print(result.table())
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_overhead(verbose=True)
    print("\nbreakdowns:")
    print("  SpiderNet  :", result.bcp_breakdown)
    print("  centralized:", result.centralized_breakdown)


if __name__ == "__main__":  # pragma: no cover
    main()
