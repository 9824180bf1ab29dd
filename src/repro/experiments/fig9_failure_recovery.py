"""Figure 9: failure frequency over time, with vs without proactive recovery.

Paper setup (§6.1): a dynamic P2P network where 1 % of peers randomly
fail during each time unit; long-lived sessions; the y axis counts
failures per time unit over a 60-minute run.  With proactive recovery
(an average of 2.74 backup service graphs per session in the paper)
almost every failure is recovered — the "with recovery" curve hugs zero
while the "without recovery" curve shows a steady failure stream.

We plot *user-visible* (unrecovered) failures: without recovery every
session-breaking departure is user-visible; with recovery only the ones
no backup nor reactive re-composition could absorb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


from ..core.bcp import BCPConfig
from ..core.session import RecoveryConfig
from ..sim.metrics import RateOverTime
from ..sim.vtime import every
from ..workload.generator import RequestConfig
from ..workload.scenarios import simulation_testbed
from .harness import Series, format_table

__all__ = ["Fig9Config", "Fig9Result", "run_fig9"]


@dataclass(frozen=True)
class Fig9Config:
    n_ip: int = 800
    n_peers: int = 150
    n_functions: int = 40
    duration_minutes: float = 60.0  # one time unit == one minute (paper x-axis)
    churn_fraction: float = 0.01  # 1 % of peers fail per time unit
    churn_downtime: float = 15.0
    target_sessions: int = 40  # steady active-session population
    session_duration: float = 120.0  # long-lived streaming sessions
    budget: int = 64  # generous probing -> enough qualified graphs for backups
    backup_upper_bound: float = 3.2  # U of Eq. 2 (tuned for ~2.7 backups, as the paper reports)
    maintenance_interval: float = 2.0
    function_count: Tuple[int, int] = (2, 3)
    qos_tightness: float = 1.6  # sessions qualify with headroom; Eq. 2 adapts
    seed: int = 0


@dataclass
class Fig9Result:
    config: Fig9Config
    series: List[Series]  # failure counts per time unit, one per mode
    mean_backups: float = 0.0
    recovered_fraction: float = 0.0
    stats_with: Optional[object] = None
    stats_without: Optional[object] = None

    def table(self) -> str:
        return format_table("time(min)", self.series, float_fmt="{:.1f}")


def _run_mode(cfg: Fig9Config, proactive: bool, trace=None) -> Tuple[Series, object]:
    scenario = simulation_testbed(
        n_ip=cfg.n_ip,
        n_peers=cfg.n_peers,
        n_functions=cfg.n_functions,
        request_config=RequestConfig(
            function_count=cfg.function_count,
            qos_tightness=cfg.qos_tightness,
            duration_mean=cfg.session_duration,
        ),
        bcp_config=BCPConfig(budget=cfg.budget),
        recovery_config=RecoveryConfig(
            proactive=proactive,
            reactive=proactive,  # "without recovery" = no recovery at all
            upper_bound=cfg.backup_upper_bound,
            maintenance_interval=cfg.maintenance_interval,
        ),
        churn_rate=cfg.churn_fraction,
        churn_downtime=cfg.churn_downtime,
        protected_endpoints=max(cfg.n_peers // 10, 4),
        seed=cfg.seed,
    )
    net = scenario.net
    failures = RateOverTime(bin_width=1.0)
    net.sessions.on_failure(lambda t, recovered: None if recovered else failures.record(t))
    if trace is not None:
        from ..sim.tracing import trace_churn, trace_sessions

        trace_churn(net.churn, trace)
        trace_sessions(net.sessions, trace)


    def replenish_sessions() -> None:
        """Keep ~target_sessions active (steady long-lived workload)."""
        deficit = cfg.target_sessions - len(net.sessions.active_sessions())
        for _ in range(max(deficit, 0)):
            req = scenario.requests.next_request()
            net.sessions.establish(req)

    # establish the initial population, then run with churn + arrivals
    replenish_sessions()
    net.start_churn()
    every(net.loop, 1.0, replenish_sessions, start_after=0.5)
    net.run(until=cfg.duration_minutes)

    label = "with proactive recovery" if proactive else "without recovery"
    series = Series(label)
    times, counts = failures.series(until=cfg.duration_minutes)
    for t, c in zip(times, counts):
        series.add(t, c)
    return series, net.sessions.stats


def run_fig9(
    config: Optional[Fig9Config] = None, verbose: bool = False, trace=None
) -> Fig9Result:
    """Regenerate Figure 9 (plus the §6.1 backup-count claim).

    ``trace`` records churn departures/arrivals and per-session failure
    events (recovered or not) from both runs."""
    cfg = config or Fig9Config()
    without_series, without_stats = _run_mode(cfg, proactive=False, trace=trace)
    with_series, with_stats = _run_mode(cfg, proactive=True, trace=trace)
    recovered = with_stats.proactive_recoveries + with_stats.reactive_recoveries
    total_failures = max(with_stats.failures, 1)
    result = Fig9Result(
        config=cfg,
        series=[without_series, with_series],
        mean_backups=with_stats.mean_backups,
        recovered_fraction=recovered / total_failures,
        stats_with=with_stats,
        stats_without=without_stats,
    )
    if verbose:
        print(
            f"  without recovery: {without_stats.failures} failures, "
            f"{without_stats.unrecovered_failures} user-visible"
        )
        print(
            f"  with recovery:    {with_stats.failures} failures, "
            f"{with_stats.proactive_recoveries} proactive + "
            f"{with_stats.reactive_recoveries} reactive recoveries, "
            f"{with_stats.unrecovered_failures} user-visible; "
            f"mean backups {with_stats.mean_backups:.2f}"
        )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_fig9(verbose=True)
    print("\nFigure 9 — user-visible failure frequency (per time unit)")
    print(result.table())
    print(
        f"\nmean backups/session: {result.mean_backups:.2f} (paper: 2.74); "
        f"recovered fraction: {result.recovered_fraction:.3f}"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
