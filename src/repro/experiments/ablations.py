"""Ablation studies for the design choices DESIGN.md calls out.

Each ablation flips one mechanism and reports the metric it is supposed
to move:

* **commutations** — exchangeable composition orders on/off → best-graph
  delay/cost on requests with commutation links (§2.4's second dimension);
* **metric selection** — composite next-hop metric vs random pruning →
  achieved delay at equal budget (Step 2.3);
* **soft allocation** — probe-time reservations on/off → admission
  conflicts under concurrent load (Step 2.1's stated purpose);
* **backup selection** — overlap-aware §5.2 selection vs random
  qualified graphs → recovery success and switch cost;
* **adaptive γ** — Eq. 2 vs fixed backup counts → backups maintained vs
  failures recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.bcp import BCPConfig
from ..core.session import RecoveryConfig
from ..sim.metrics import RatioMeter
from ..sim.rng import as_generator
from ..workload.generator import RequestConfig
from ..workload.scenarios import simulation_testbed
from .harness import HeldSessions

__all__ = [
    "AblationConfig",
    "ablate_adaptive_budget",
    "ablate_commutations",
    "ablate_metric_selection",
    "ablate_soft_allocation",
    "ablate_backup_policy",
]


@dataclass(frozen=True)
class AblationConfig:
    n_ip: int = 600
    n_peers: int = 120
    n_functions: int = 30
    requests: int = 40
    budget: int = 32
    seed: int = 0


def _scenario(cfg: AblationConfig, bcp_config: BCPConfig, request_config: RequestConfig, **kw):
    return simulation_testbed(
        n_ip=cfg.n_ip,
        n_peers=cfg.n_peers,
        n_functions=cfg.n_functions,
        bcp_config=bcp_config,
        request_config=request_config,
        seed=cfg.seed,
        **kw,
    )


def ablate_commutations(config: Optional[AblationConfig] = None) -> Dict[str, float]:
    """Delay of the selected graph with vs without commutation exploration."""
    cfg = config or AblationConfig()
    req_cfg = RequestConfig(
        function_count=(3, 4), commutation_probability=1.0, qos_tightness=2.0
    )
    out: Dict[str, float] = {}
    for label, explore in (("with_commutations", True), ("without_commutations", False)):
        scenario = _scenario(
            cfg, BCPConfig(budget=cfg.budget, explore_commutations=explore, objective="delay"), req_cfg
        )
        delays = []
        for _ in range(cfg.requests):
            request = scenario.requests.next_request()
            result = scenario.net.compose(request, budget=cfg.budget, confirm=False)
            if result.success and result.best_qos is not None:
                delays.append(result.best_qos.get("delay"))
        out[label] = float(np.mean(delays)) if delays else float("nan")
    out["delay_improvement"] = (
        (out["without_commutations"] - out["with_commutations"])
        / out["without_commutations"]
        if out.get("without_commutations")
        else float("nan")
    )
    return out


def ablate_metric_selection(config: Optional[AblationConfig] = None) -> Dict[str, float]:
    """Composite next-hop metric vs random pruning at equal budget."""
    cfg = config or AblationConfig()
    req_cfg = RequestConfig(function_count=(3, 3), qos_tightness=2.0)
    out: Dict[str, float] = {}
    for label, metric in (("metric_selection", True), ("random_pruning", False)):
        scenario = _scenario(
            cfg, BCPConfig(budget=cfg.budget, metric_selection=metric, objective="delay"), req_cfg
        )
        delays = []
        for _ in range(cfg.requests):
            request = scenario.requests.next_request()
            result = scenario.net.compose(request, budget=cfg.budget, confirm=False)
            if result.success and result.best_qos is not None:
                delays.append(result.best_qos.get("delay"))
        out[label] = float(np.mean(delays)) if delays else float("nan")
    return out


def ablate_soft_allocation(config: Optional[AblationConfig] = None) -> Dict[str, float]:
    """Admission conflicts with vs without probe-time soft reservations.

    Requests arrive in concurrent *batches*: all requests of a batch
    probe before any commits (the situation Step 2.1's soft allocation
    exists for).  With soft allocation, a probe's reservation is visible
    to concurrently probing requests, so selections never collide.
    Without it, every request selects against the same snapshot and the
    batch's firm admissions conflict — visible as admission failures.
    """
    cfg = config or AblationConfig()
    # few functions + scarce capacity: concurrent requests overlap heavily
    # in their component choices, so stale-snapshot selections collide
    req_cfg = RequestConfig(function_count=(3, 3))
    batch_size = 8
    out: Dict[str, float] = {}
    for label, soft in (("soft_allocation", True), ("no_soft_allocation", False)):
        scenario = simulation_testbed(
            n_ip=cfg.n_ip,
            n_peers=cfg.n_peers,
            n_functions=6,
            bcp_config=BCPConfig(budget=cfg.budget, soft_allocation=soft),
            request_config=req_cfg,
            capacity_scale=0.25,
            seed=cfg.seed,
        )
        net = scenario.net
        held = HeldSessions(net.pool)
        probed = 0
        selected = 0
        admitted = 0
        n_batches = max(cfg.requests // batch_size, 1)
        for _ in range(n_batches):
            batch = [scenario.requests.next_request() for _ in range(batch_size)]
            if soft:
                # reservations persist across the batch: later requests see
                # earlier in-flight claims, exactly as concurrent probing
                # would — selection then *implies* a held reservation, so a
                # selected graph can never fail admission
                for request in batch:
                    result = net.bcp.compose(request, budget=cfg.budget, confirm=True)
                    probed += 1
                    if result.success:
                        selected += 1
                        admitted += 1
                        held.admit(result.session_tokens, release_at=float("inf"))
            else:
                # all requests select on the same stale snapshot, then the
                # chosen graphs are admitted firmly one after another — the
                # batch's choices collide on the same well-placed components
                chosen = []
                for request in batch:
                    result = net.bcp.compose(request, budget=cfg.budget, confirm=False)
                    probed += 1
                    if result.success and result.best is not None:
                        selected += 1
                        chosen.append((request, result.best))
                from repro.core.selection import admit_graph

                for request, graph in chosen:
                    token = (request.request_id, "session")
                    if admit_graph(graph, net.pool, token):
                        admitted += 1
                        held.admit([token], release_at=float("inf"))
        net.pool.check_invariants()
        out[f"{label}_honoured"] = admitted / max(probed, 1)
        # the paper's stated purpose of soft allocation: no conflicted
        # admissions (a selected composition whose setup then fails)
        out[f"{label}_conflicted"] = (selected - admitted) / max(selected, 1)
        held.release_all()
    return out


def ablate_backup_policy(config: Optional[AblationConfig] = None) -> Dict[str, float]:
    """Overlap-aware backup selection (§5.2) vs random qualified graphs.

    Measures the mean switch overlap (components shared with the broken
    graph — higher = cheaper switch) and recovery success under churn.
    """
    cfg = config or AblationConfig()
    rng = as_generator(cfg.seed)
    req_cfg = RequestConfig(function_count=(2, 3), qos_tightness=1.8, duration_mean=200.0)
    out: Dict[str, float] = {}
    for label in ("paper_selection", "random_selection"):
        scenario = _scenario(
            cfg,
            BCPConfig(budget=cfg.budget),
            req_cfg,
            recovery_config=RecoveryConfig(upper_bound=1.4),
            churn_rate=0.02,
        )
        net = scenario.net
        if label == "random_selection":
            # monkey-patchable seam: replace the selection step used at
            # session establishment with a random draw of qualified graphs
            import repro.core.session as session_mod

            original = session_mod.select_backups

            def random_select(current, qualified, count, peer_failure, max_subset_size=3):
                pool = [c for c in qualified]
                rng.shuffle(pool)
                return pool[:count]

            session_mod.select_backups = random_select
        try:
            for _ in range(20):
                net.sessions.establish(scenario.requests.next_request())
            net.start_churn()
            net.run(until=40.0)
            stats = net.sessions.stats
            recovered = stats.proactive_recoveries + stats.reactive_recoveries
            out[f"{label}_recovered_fraction"] = recovered / max(stats.failures, 1)
            # proactive share is the discriminating metric: overlap-aware
            # backups survive the failures that actually occur, random
            # ones force the expensive reactive path more often
            out[f"{label}_proactive_fraction"] = stats.proactive_recoveries / max(
                recovered, 1
            )
            out[f"{label}_mean_backups"] = stats.mean_backups
        finally:
            if label == "random_selection":
                session_mod.select_backups = original
    return out


def ablate_adaptive_budget(config: Optional[AblationConfig] = None) -> Dict[str, float]:
    """Adaptive budget (§4.1 Step 1) vs a fixed budget, at matched cost.

    A mixed workload (2–4 functions, some strict, some loose) runs under
    (a) the adaptive controller and (b) a fixed budget equal to the
    adaptive run's *mean* spend — so the comparison is success per probe,
    not just more probes.
    """
    from repro.core.budget import AdaptiveBudgetPolicy, BudgetPolicyConfig

    cfg = config or AblationConfig()
    req_cfg = RequestConfig(function_count=(2, 4), qos_tightness=0.9)

    def run(policy) -> Dict[str, float]:
        scenario = _scenario(cfg, BCPConfig(budget=cfg.budget), req_cfg)
        net = scenario.net
        meter = RatioMeter()
        spent: List[int] = []
        for _ in range(cfg.requests * 2):
            request = scenario.requests.next_request()
            budget = policy.budget_for(request) if policy else fixed_budget
            result = net.bcp.compose(request, budget=budget, confirm=False)
            if policy:
                policy.record_outcome(result)
            meter.record(result.success)
            spent.append(budget)
        return {"success": meter.ratio, "mean_budget": sum(spent) / len(spent)}

    adaptive = run(AdaptiveBudgetPolicy(BudgetPolicyConfig(base=6, window=10)))
    fixed_budget = max(int(round(adaptive["mean_budget"])), 1)
    fixed = run(None)
    return {
        "adaptive_success": adaptive["success"],
        "adaptive_mean_budget": adaptive["mean_budget"],
        "fixed_success": fixed["success"],
        "fixed_budget": float(fixed_budget),
    }
