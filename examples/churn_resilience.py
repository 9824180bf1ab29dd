#!/usr/bin/env python
"""Failure-resilient streaming sessions in a churning P2P network (paper §5).

Sets up long-lived sessions in an overlay where 2 % of peers fail every
virtual minute, and shows proactive failure recovery at work:

* each session maintains an adaptive number of backup service graphs
  (Eq. 2), selected for failure-disjointness + maximum overlap (§5.2);
* on a peer departure the session switches to a live backup (proactive)
  or, if all backups are gone, re-runs BCP (reactive);
* the same workload is replayed without recovery for contrast.

Run:  python examples/churn_resilience.py
"""

from repro.core.bcp import BCPConfig
from repro.core.session import RecoveryConfig
from repro.sim.vtime import every
from repro.workload.generator import RequestConfig
from repro.workload.scenarios import simulation_testbed

SEED = 3
MINUTES = 40.0
TARGET_SESSIONS = 15


def run(proactive: bool) -> None:
    scenario = simulation_testbed(
        n_ip=500,
        n_peers=100,
        n_functions=24,
        request_config=RequestConfig(
            function_count=(2, 3), qos_tightness=1.6, duration_mean=120.0
        ),
        bcp_config=BCPConfig(budget=48),
        recovery_config=RecoveryConfig(
            proactive=proactive, reactive=proactive, upper_bound=2.2
        ),
        churn_rate=0.02,
        churn_downtime=10.0,
        protected_endpoints=10,
        seed=SEED,
    )
    net = scenario.net

    def replenish() -> None:
        deficit = TARGET_SESSIONS - len(net.sessions.active_sessions())
        for _ in range(max(deficit, 0)):
            net.sessions.establish(scenario.requests.next_request())

    replenish()
    net.start_churn()
    every(net.loop, 1.0, replenish, start_after=0.5)
    net.run(until=MINUTES)

    stats = net.sessions.stats
    mode = "WITH proactive recovery" if proactive else "WITHOUT recovery"
    print(f"\n--- {mode} ---")
    print(f"sessions established: {stats.sessions_established}")
    print(f"session-breaking peer departures: {stats.failures}")
    if proactive:
        print(f"  recovered proactively (backup switch): {stats.proactive_recoveries}")
        print(f"  recovered reactively (re-probing):     {stats.reactive_recoveries}")
        print(f"  mean backups per session: {stats.mean_backups:.2f}")
        if stats.recovery_times:
            mean_rt = sum(stats.recovery_times) / len(stats.recovery_times)
            print(f"  mean recovery time: {mean_rt * 1000:.0f} ms")
    print(f"user-visible failures: {stats.unrecovered_failures}")


def main() -> None:
    print(f"{TARGET_SESSIONS} long-lived sessions, 2%/minute peer churn, "
          f"{MINUTES:.0f} virtual minutes")
    run(proactive=False)
    run(proactive=True)
    print("\nproactive recovery turns a steady failure stream into "
          "(near-)zero user-visible failures — Figure 9's result.")


if __name__ == "__main__":
    main()
