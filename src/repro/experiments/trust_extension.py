"""Secure composition via decentralized trust (the §8 extension, evaluated).

Setup: a fraction of peers is malicious — function-qualified, normal
advertised QoS, but they sabotage sessions at runtime.  Sources rate
the service peers of every finished session (beta reputation) and share
opinions through one-level recommendations.

Measured: the clean-session rate over consecutive session batches, with
trust-aware next-hop selection vs the plain composite metric.  Expected
shape: both start near ``(1 - malicious_fraction)^k``; the trust-aware
curve climbs as evidence accumulates, the baseline stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


from ..core.bcp import BCPConfig, NextHopWeights
from ..sim.rng import as_generator
from ..trust.malice import MaliciousPopulation
from ..trust.reputation import TrustManager
from ..workload.generator import RequestConfig
from ..workload.scenarios import simulation_testbed
from .harness import Series, format_table

__all__ = ["TrustConfig", "TrustResult", "run_trust_extension"]


@dataclass(frozen=True)
class TrustConfig:
    n_ip: int = 500
    n_peers: int = 100
    n_functions: int = 12
    malicious_fraction: float = 0.25
    sabotage_probability: float = 0.9
    sessions: int = 300
    batch: int = 30  # sessions per plotted point
    budget: int = 24
    n_sources: int = 8  # stable set of requesters accumulating evidence
    trust_weight: float = 0.5
    seed: int = 0


@dataclass
class TrustResult:
    config: TrustConfig
    series: List[Series]
    final_clean_rate_with: float = 0.0
    final_clean_rate_without: float = 0.0

    def table(self) -> str:
        return format_table("sessions", self.series)


def _run_mode(cfg: TrustConfig, use_trust: bool) -> Series:
    weights = (
        NextHopWeights(delay=0.2, bandwidth=0.15, failure=0.15, trust=cfg.trust_weight)
        if use_trust
        else NextHopWeights()
    )
    scenario = simulation_testbed(
        n_ip=cfg.n_ip,
        n_peers=cfg.n_peers,
        n_functions=cfg.n_functions,
        request_config=RequestConfig(function_count=(3, 3), qos_tightness=2.0),
        bcp_config=BCPConfig(budget=cfg.budget, nexthop_weights=weights),
        seed=cfg.seed,
    )
    net = scenario.net
    rng = as_generator(cfg.seed + 1)
    sources = [int(p) for p in rng.choice(cfg.n_peers, size=cfg.n_sources, replace=False)]
    malice = MaliciousPopulation.random(
        net.overlay.peers(),
        cfg.malicious_fraction,
        rng=rng,
        sabotage_probability=cfg.sabotage_probability,
        protected=set(sources),
    )
    trust = TrustManager(ledger=net.ledger)
    if use_trust:
        net.bcp.trust = trust
    label = "trust-aware" if use_trust else "baseline"
    series = Series(label)
    clean = 0
    seen = 0
    for i in range(cfg.sessions):
        source = sources[i % len(sources)]
        dest = sources[(i + 1) % len(sources)]
        request = scenario.requests.next_request(source=source, dest=dest)
        result = net.compose(request, budget=cfg.budget, confirm=False)
        seen += 1
        if result.success and result.best is not None:
            service_peers = [m.peer for m in result.best.components()]
            ok = malice.session_outcome(service_peers, rng)
            # the source rates what it observed, trust-aware or not —
            # evidence only *influences selection* in trust-aware mode.
            # It also endorses the (honest) receiving endpoint, which is
            # how the requester population becomes each other's
            # recommenders: a source evaluating a stranger component asks
            # the endpoints it has streamed with.
            trust.session_feedback(source, service_peers, ok)
            trust.record_interaction(source, dest, positive=True)
            if ok:
                clean += 1
        if (i + 1) % cfg.batch == 0:
            series.add(i + 1, clean / max(seen, 1))
            clean = 0
            seen = 0
    return series


def run_trust_extension(
    config: Optional[TrustConfig] = None, verbose: bool = False, trace=None
) -> TrustResult:
    cfg = config or TrustConfig()
    baseline = _run_mode(cfg, use_trust=False)
    aware = _run_mode(cfg, use_trust=True)
    if trace is not None:
        for s in (baseline, aware):
            for x, y in zip(s.x, s.y):
                trace.record(
                    "experiment_point", time=float(x), experiment="trust",
                    mode=s.label, sessions=int(x), clean_rate=y,
                )
    result = TrustResult(
        config=cfg,
        series=[baseline, aware],
        final_clean_rate_with=aware.y[-1] if aware.y else float("nan"),
        final_clean_rate_without=baseline.y[-1] if baseline.y else float("nan"),
    )
    if verbose:
        print(result.table())
        print(
            f"final clean-session rate: trust-aware {result.final_clean_rate_with:.3f} "
            f"vs baseline {result.final_clean_rate_without:.3f} "
            f"({cfg.malicious_fraction:.0%} malicious peers)"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run_trust_extension(verbose=True)


if __name__ == "__main__":  # pragma: no cover
    main()
