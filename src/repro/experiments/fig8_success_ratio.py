"""Figure 8: composition success ratio vs workload, five algorithms.

Paper setup (§6.1): the simulation testbed processes a Poisson-ish
stream of composition requests (x axis: requests per time unit, 50–250);
each admitted session *holds* its resources, so rising workload raises
contention and the "QoS success rate" — the fraction of requests whose
composed graph satisfies function, resource and QoS requirements —
falls.  Expected shape: probing-0.2 tracks the optimal (unbounded
flooding) curve closely, probing-0.1 sits slightly below, random is far
worse, static worst.

Defaults here are scaled (see DESIGN.md): fewer peers and a lower
request rate, with the replication degree and per-session resource
footprint held proportional so the ranking and the decline survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.baselines import optimal_probe_count
from ..core.bcp import BCPConfig
from ..core.strategies import create_strategy
from ..core.quota import budget_for_fraction
from ..sim.metrics import RatioMeter
from ..workload.generator import RequestConfig
from ..workload.scenarios import Scenario, simulation_testbed
from .harness import HeldSessions, Series, format_table

__all__ = ["Fig8Config", "Fig8Result", "run_fig8"]


@dataclass(frozen=True)
class Fig8Config:
    # environment (paper: 10 000 IP / 1000 peers / 200 functions)
    n_ip: int = 800
    n_peers: int = 150
    n_functions: int = 40
    workloads: Tuple[int, ...] = (2, 4, 6, 8, 10)  # requests per time unit
    duration: int = 40  # time units per run (paper: 2000)
    session_duration: float = 20.0  # time units resources stay held
    probing_fractions: Tuple[float, ...] = (0.2, 0.1)
    include_optimal: bool = True
    include_random: bool = True
    include_static: bool = True
    function_count: Tuple[int, int] = (2, 3)
    qos_tightness: float = 1.0
    max_budget: int = 200  # cap per-request budget (keeps runs tractable)
    arrival_model: str = "fixed"  # "fixed" per-tick batches or "poisson"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_model not in ("fixed", "poisson"):
            raise ValueError(f"unknown arrival model {self.arrival_model!r}")


@dataclass
class Fig8Result:
    config: Fig8Config
    series: List[Series]
    messages_per_request: Dict[str, float] = field(default_factory=dict)

    def table(self) -> str:
        return format_table("workload(req/tu)", self.series)


def _algorithms(cfg: Fig8Config) -> List[str]:
    algos = [f"probing-{f:g}" for f in cfg.probing_fractions]
    if cfg.include_optimal:
        algos.append("optimal")
    if cfg.include_random:
        algos.append("random")
    if cfg.include_static:
        algos.append("static")
    return algos


def _build(cfg: Fig8Config) -> Scenario:
    return simulation_testbed(
        n_ip=cfg.n_ip,
        n_peers=cfg.n_peers,
        n_functions=cfg.n_functions,
        request_config=RequestConfig(
            function_count=cfg.function_count,
            qos_tightness=cfg.qos_tightness,
        ),
        bcp_config=BCPConfig(),
        seed=cfg.seed,
    )


def _run_point(cfg: Fig8Config, algorithm: str, workload: int) -> Tuple[float, float]:
    """One (algorithm, workload) cell: returns (success_ratio, msgs/request)."""
    scenario = _build(cfg)
    net, requests = scenario.net, scenario.requests
    held = HeldSessions(net.pool)
    meter = RatioMeter()
    composer = None
    fraction = None
    if algorithm.startswith("probing-"):
        fraction = float(algorithm.split("-", 1)[1])
    else:
        # every non-probing curve resolves through the strategy registry,
        # so any registered composer can be plotted by name
        options = {"rng": cfg.seed} if algorithm in ("random", "static") else {}
        composer = create_strategy(algorithm, net.strategy_context(), **options)
    msgs_before = net.ledger.total_count()
    arrival_rng = np.random.default_rng(cfg.seed + workload)
    for t in range(cfg.duration):
        held.release_due(float(t))
        n_arrivals = (
            workload
            if cfg.arrival_model == "fixed"
            else int(arrival_rng.poisson(workload))
        )
        for _ in range(n_arrivals):
            request = requests.next_request()
            if fraction is not None:
                duplicates = {
                    fn: net.registry.duplicates(fn)
                    for fn in request.function_graph.functions
                }
                opt_probes = optimal_probe_count(request, duplicates)
                budget = min(budget_for_fraction(opt_probes, fraction), cfg.max_budget)
                result = net.bcp.compose(request, budget=budget, confirm=True)
            else:
                result = composer.compose(request, confirm=True)
            meter.record(result.success)
            if result.success and result.session_tokens:
                held.admit(result.session_tokens, release_at=t + cfg.session_duration)
    msgs = net.ledger.total_count() - msgs_before
    held.release_all()
    total_requests = max(meter.total, 1)
    return meter.ratio, msgs / total_requests


def run_fig8(
    config: Optional[Fig8Config] = None, verbose: bool = False, trace=None
) -> Fig8Result:
    """Regenerate Figure 8's curves (success ratio vs workload).

    ``trace`` (a :class:`~repro.sim.tracing.EventTrace`) records one
    ``experiment_point`` event per measured cell."""
    cfg = config or Fig8Config()
    series = [Series(a) for a in _algorithms(cfg)]
    msg_totals: Dict[str, List[float]] = {a: [] for a in _algorithms(cfg)}
    for workload in cfg.workloads:
        for s in series:
            ratio, msgs = _run_point(cfg, s.label, workload)
            s.add(workload, ratio)
            msg_totals[s.label].append(msgs)
            if trace is not None:
                trace.record(
                    "experiment_point", time=float(workload), experiment="fig8",
                    algorithm=s.label, workload=workload,
                    success_ratio=ratio, messages_per_request=msgs,
                )
            if verbose:
                print(f"  {s.label:>12s} @ {workload:3d} req/tu: success={ratio:.3f}")
    result = Fig8Result(
        config=cfg,
        series=series,
        messages_per_request={
            a: sum(v) / len(v) for a, v in msg_totals.items() if v
        },
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_fig8(verbose=True)
    print("\nFigure 8 — composition success ratio vs workload")
    print(result.table())
    print("\nmean messages/request:", {k: round(v, 1) for k, v in result.messages_per_request.items()})


if __name__ == "__main__":  # pragma: no cover
    main()
