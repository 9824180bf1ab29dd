"""Figure 10: service session setup time vs function number (WAN testbed).

Paper setup (§6.2): 102 PlanetLab hosts across the US and Europe, one of
six multimedia components per host; >500 requests; the session setup
time — (1) decentralized service discovery, (2) service-graph finding
via BCP, (3) session initialization — is a few seconds and grows with
the number of requested functions.

Our WAN substitute (DESIGN.md) drives the same protocol phases over a
simulated wide-area latency model, so the reported milliseconds come
from actual DHT hop counts and probe/ack round trips, not constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.bcp import BCPConfig
from ..sim.metrics import LatencyStats
from ..workload.generator import RequestConfig
from ..workload.scenarios import planetlab_testbed
from .harness import Series, format_table

__all__ = ["Fig10Config", "Fig10Result", "run_fig10"]


@dataclass(frozen=True)
class Fig10Config:
    n_peers: int = 102
    function_numbers: Tuple[int, ...] = (2, 3, 4, 5, 6)
    requests_per_point: int = 100  # paper uses >500 total
    budget: int = 40
    qos_tightness: float = 3.0  # measure time, not rejection
    seed: int = 0


@dataclass
class Fig10Result:
    config: Fig10Config
    series: List[Series]  # ms: discovery, composition (probing+ack), total
    success_rate: Dict[int, float] = field(default_factory=dict)

    def table(self) -> str:
        return format_table("functions", self.series, float_fmt="{:.0f}")


def run_fig10(
    config: Optional[Fig10Config] = None, verbose: bool = False, trace=None
) -> Fig10Result:
    """Regenerate Figure 10 (setup time split by protocol phase, in ms).

    ``trace`` records one ``composition`` event per request — the same
    category a live cluster emits, so sim and live runs produce
    comparable JSONL logs."""
    cfg = config or Fig10Config()
    scenario = planetlab_testbed(
        n_peers=cfg.n_peers,
        request_config=RequestConfig(
            function_count=(2, 6),  # overridden per request below
            qos_tightness=cfg.qos_tightness,
        ),
        bcp_config=BCPConfig(budget=cfg.budget),
        seed=cfg.seed,
    )
    net, requests = scenario.net, scenario.requests
    discovery = Series("discovery(ms)")
    composition = Series("composition(ms)")
    total = Series("total setup(ms)")
    success_rate: Dict[int, float] = {}
    for k in cfg.function_numbers:
        stats = LatencyStats()
        ok = 0
        n = 0
        while n < cfg.requests_per_point:
            request = requests.next_request(n_functions=k)
            result = net.compose(request, budget=cfg.budget, confirm=False)
            n += 1
            if trace is not None:
                trace.record(
                    "composition", time=net.loop.time(), request=request.request_id,
                    functions=k, success=result.success,
                    probes=result.probes_sent, setup_time=result.setup_time,
                )
            if not result.success:
                continue
            ok += 1
            stats.record("discovery", result.phases.get("discovery", 0.0))
            stats.record(
                "composition",
                result.phases.get("composition", 0.0) + result.phases.get("setup_ack", 0.0),
            )
            stats.record("total", result.setup_time)
        success_rate[k] = ok / max(n, 1)
        discovery.add(k, stats.mean("discovery") * 1000.0)
        composition.add(k, stats.mean("composition") * 1000.0)
        total.add(k, stats.mean("total") * 1000.0)
        if verbose:
            print(
                f"  {k} functions: total={total.y[-1]:.0f} ms "
                f"(discovery {discovery.y[-1]:.0f} + composition {composition.y[-1]:.0f}), "
                f"success {success_rate[k]:.2f}"
            )
    return Fig10Result(
        config=cfg,
        series=[discovery, composition, total],
        success_rate=success_rate,
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_fig10(verbose=True)
    print("\nFigure 10 — session setup time vs function number")
    print(result.table())


if __name__ == "__main__":  # pragma: no cover
    main()
