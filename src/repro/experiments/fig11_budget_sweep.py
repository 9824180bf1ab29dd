"""Figure 11: average end-to-end delay vs probing budget (WAN testbed).

Paper setup (§6.2): 3-function compositions over the 102-host overlay
with ~17 instances per media function (optimal flooding needs
17³ = 4913 probes); algorithms must find the composition with *minimum
end-to-end service delay*.  Expected shape: at tiny budgets SpiderNet
degenerates to random; delay falls as budget grows; by budget ≈ 200
(4 % of optimal's probes) it is near-optimal and flattens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.baselines import optimal_probe_count
from ..core.bcp import BCPConfig
from ..core.quota import ReplicationProportionalQuota
from ..core.strategies import create_strategy
from ..workload.generator import RequestConfig
from ..workload.scenarios import planetlab_testbed
from .harness import Series, format_table

__all__ = ["Fig11Config", "Fig11Result", "run_fig11"]


@dataclass(frozen=True)
class Fig11Config:
    n_peers: int = 102
    budgets: Tuple[int, ...] = (10, 50, 100, 200, 300, 400, 500, 1000)
    requests_per_point: int = 30
    n_functions: int = 3
    qos_tightness: float = 4.0  # delay is measured, not thresholded
    seed: int = 0


@dataclass
class Fig11Result:
    config: Fig11Config
    series: List[Series]  # avg delay (ms) vs budget: random / SpiderNet / optimal
    optimal_probes_mean: float = 0.0

    def table(self) -> str:
        return format_table("budget", self.series, float_fmt="{:.0f}")


def run_fig11(
    config: Optional[Fig11Config] = None, verbose: bool = False, trace=None
) -> Fig11Result:
    """Regenerate Figure 11 (avg service delay vs probing budget).

    ``trace`` records one ``experiment_point`` event per budget."""
    cfg = config or Fig11Config()
    scenario = planetlab_testbed(
        n_peers=cfg.n_peers,
        request_config=RequestConfig(
            function_count=(cfg.n_functions, cfg.n_functions),
            qos_tightness=cfg.qos_tightness,
        ),
        # quota must not bind here: the sweep's x axis *is* the budget, so
        # per-function quotas are opened up to the full duplicate set
        bcp_config=BCPConfig(
            objective="delay",
            quota_policy=ReplicationProportionalQuota(fraction=1.0, cap=10**6),
        ),
        seed=cfg.seed,
    )
    net = scenario.net
    # one fixed request sample reused across all budgets so curves differ
    # only by algorithm/budget, not workload noise
    sample = [scenario.requests.next_request() for _ in range(cfg.requests_per_point)]
    # the context carries the scenario's BCPConfig: optimal minimises delay
    opt = create_strategy("optimal", net.strategy_context())
    rnd = create_strategy("random", net.strategy_context(), rng=cfg.seed)

    def mean_delay(results: List[Optional[float]]) -> float:
        vals = [v for v in results if v is not None]
        return float(np.mean(vals)) * 1000.0 if vals else float("nan")

    random_delays: List[Optional[float]] = []
    optimal_delays: List[Optional[float]] = []
    opt_probe_counts: List[int] = []
    for request in sample:
        r = rnd.compose(request, confirm=False)
        random_delays.append(r.best_qos.get("delay") if r.best_qos is not None else None)
        o = opt.compose(request, confirm=False)
        optimal_delays.append(o.best_qos.get("delay") if o.success else None)
        duplicates = {
            fn: net.registry.duplicates(fn) for fn in request.function_graph.functions
        }
        opt_probe_counts.append(optimal_probe_count(request, duplicates))

    random_series = Series("random")
    spider_series = Series("SpiderNet")
    optimal_series = Series("optimal")
    for budget in cfg.budgets:
        spider_delays: List[Optional[float]] = []
        for request in sample:
            result = net.compose(request, budget=budget, confirm=False)
            spider_delays.append(
                result.best_qos.get("delay") if result.success else None
            )
        random_series.add(budget, mean_delay(random_delays))
        spider_series.add(budget, mean_delay(spider_delays))
        optimal_series.add(budget, mean_delay(optimal_delays))
        if trace is not None:
            trace.record(
                "experiment_point", time=float(budget), experiment="fig11",
                budget=budget, spidernet_ms=spider_series.y[-1],
                random_ms=random_series.y[-1], optimal_ms=optimal_series.y[-1],
            )
        if verbose:
            print(
                f"  budget {budget:5d}: SpiderNet {spider_series.y[-1]:.0f} ms "
                f"(random {random_series.y[-1]:.0f}, optimal {optimal_series.y[-1]:.0f})"
            )
    return Fig11Result(
        config=cfg,
        series=[random_series, spider_series, optimal_series],
        optimal_probes_mean=float(np.mean(opt_probe_counts)) if opt_probe_counts else 0.0,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_fig11(verbose=True)
    print("\nFigure 11 — average service delay vs probing budget")
    print(result.table())
    print(f"\nmean optimal probe count: {result.optimal_probes_mean:.0f} (paper: 4913)")


if __name__ == "__main__":  # pragma: no cover
    main()
