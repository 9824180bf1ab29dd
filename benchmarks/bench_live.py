"""Live-path throughput benchmark: sustained concurrent compose sessions.

Boots a :class:`~repro.net.LiveCluster` and drives overlapping compose
sessions through it, reporting compose/sec and p50/p99 session setup
latency per transport.  This is the end-to-end counterpart of
``bench_micro.py``: it times the *wire* path (codec, transport, RPC,
daemon scheduling), not the composition algorithm.

Run directly (CI runs ``--quick`` on both transports)::

    PYTHONPATH=src python benchmarks/bench_live.py --quick
    PYTHONPATH=src python benchmarks/bench_live.py --transport tcp --sessions 16
    BENCH_NOTE="after wire fast path" PYTHONPATH=src \
        python benchmarks/bench_live.py --record

Each run starts with a small *sequential parity phase* — the same
requests composed by the synchronous BCP and over the wire must select
bit-identical service graphs — so a throughput number can never be
bought with a correctness regression.  Exit codes: 0 ok, 1 crash or
leaked state, 2 parity violation.

``--record`` appends an entry to ``benchmarks/BENCH_live.json`` so the
file accumulates a before/after trajectory across commits (tag entries
with ``--note`` or ``BENCH_NOTE``).

The **hot-function phase** (skippable with ``--no-hot``) repeatedly
composes one request shape — the workload the directory tier is built
for — and reports compose/sec, the measured ``dht_route`` charges per
compose and the cache hit rate.  It runs over emulated topology latency
(the modeled overlay link delays, scaled to wall milliseconds) on
*both* transports, since flat localhost wires hide exactly the
remote-lookup cost the tier removes.  Crash gating applies.

The **link-degradation phase** (skippable with ``--no-degrade``)
exercises the topology measurement plane: over the same emulated
topology latency it lets per-link RTT baselines settle, inflates the
wire delay of the first link on the source's static route mid-run, and
then measures how long the source daemon takes to reprice the link and
route around it (``reroute_s``), the converged RTT inflation ratio, and
compose/sec during the degraded window.  Builds without
``ClusterConfig.measurement`` skip the phase.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import datetime
import json
import os
import pathlib
import statistics
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.bcp import BCPConfig, NextHopWeights  # noqa: E402
from repro.net import ClusterConfig, LiveCluster  # noqa: E402

BENCH_LIVE_JSON = pathlib.Path(__file__).parent / "BENCH_live.json"

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ClusterConfig)}


def make_cluster_config(**kwargs) -> ClusterConfig:
    """Build a ClusterConfig, dropping knobs this build does not have."""
    return ClusterConfig(**{k: v for k, v in kwargs.items() if k in _CONFIG_FIELDS})


def quantile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(int(round(q * (len(ordered) - 1))), len(ordered) - 1)
    return ordered[idx]


@dataclasses.dataclass
class BenchParams:
    transport: str
    peers: int = 10
    sessions: int = 16
    requests: int = 64
    parity_requests: int = 4
    seed: int = 11


# hot-function phase geometry (see run_hot_function).  The emulated
# one-way wire delay is the *modeled* overlay latency scaled into wall
# milliseconds.  The topology seed, request endpoints and population
# density are pinned (independently of ``--seed``) to a geometry where
# the hot chain's directory owners are genuinely remote from the
# service path — the configuration the tier exists for; sparser or
# luckier placements self-serve most lookups and show ~1.2-1.4x.
HOT_PEERS = 5
HOT_SEED = 3
HOT_SOURCE = 2
HOT_DEST = 4
HOT_COMPONENTS = (4, 6)
HOT_WARMUP = 2
TOPOLOGY_LATENCY_SCALE = 0.05

# link-degradation phase (see run_degradation): multiply the wire delay
# of one hot link by this factor mid-run and watch the measurement
# plane reprice it.  6x clears the plane's materiality gate (ratio 1.5)
# with a wide margin, so convergence speed — not threshold luck — is
# what the phase measures.
DEGRADE_FACTOR = 6.0
DEGRADE_PROBE_INTERVAL = 0.05
DEGRADE_CONVERGE_TIMEOUT = 10.0


async def run_hot_function(params: BenchParams) -> Dict:
    """Hot-function pass: the same request shape composed repeatedly.

    This is the workload the directory tier targets: every compose
    resolves the same few function keys, so the first compose pays the
    DHT routes and every later one hits peer-local caches.  Reports
    compose/sec and the ``dht_route`` charges actually booked per
    compose.

    Unlike the concurrent load phase, this one emulates the *modeled*
    overlay link delays on the wire (scaled by
    ``TOPOLOGY_LATENCY_SCALE``): localhost transports are effectively
    zero-latency, which hides exactly the cost the directory tier
    removes.  BCP deliberately selects low-delay links for the service
    path, but has no say over where the DHT places directory slices —
    so lookups pay average topology edges while probes travel cheap
    ones.  Sessions run sequentially (one client stream: latency is the
    point, concurrency would mask it) and ``HOT_WARMUP`` composes are
    excluded from the timed window, so the numbers are steady-state.
    """

    def hot_config(**extra) -> ClusterConfig:
        return make_cluster_config(
            n_peers=HOT_PEERS,
            n_functions=6,
            transport=params.transport,
            seed=HOT_SEED,
            components_per_peer=HOT_COMPONENTS,
            bcp_config=BCPConfig(
                budget=32,
                nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
            ),
            capacity_scale=50.0,  # repeats must not exhaust the hot components
            **extra,
        )

    # the wire delays are the scenario's own link delays, so the scenario
    # is built first
    scenario = LiveCluster(hot_config()).scenario
    template = scenario.requests.next_request(source=HOT_SOURCE, dest=HOT_DEST)
    overlay = scenario.overlay

    def wire_delay(src: int, dst: int) -> float:
        if src == dst or not (0 <= src < HOT_PEERS and 0 <= dst < HOT_PEERS):
            return 0.0
        return overlay.latency(src, dst) * TOPOLOGY_LATENCY_SCALE

    cluster = LiveCluster(hot_config(latency=wire_delay), scenario=scenario)
    # same function graph / endpoints every time, distinct request ids
    requests = [
        dataclasses.replace(template, request_id=10_000_000 + i)
        for i in range(HOT_WARMUP + params.requests)
    ]

    latencies: List[float] = []
    outcomes: List[bool] = []
    async with cluster:
        for req in requests[:HOT_WARMUP]:
            await cluster.compose(req, confirm=False, timeout=120)
        snap = cluster.ledger.snapshot()
        t_load = time.perf_counter()
        for req in requests[HOT_WARMUP:]:
            t0 = time.perf_counter()
            result = await cluster.compose(req, confirm=False, timeout=120)
            latencies.append(time.perf_counter() - t0)
            outcomes.append(result.success)
        wall = time.perf_counter() - t_load
        delta = cluster.ledger.delta_since(snap)
        errors = cluster.errors()
        dir_stats = (
            cluster.directory_stats() if hasattr(cluster, "directory_stats") else {}
        )

    n = params.requests
    routes = delta.get("dht_route", (0, 0))[0]
    return {
        "peers": HOT_PEERS,
        "seed": HOT_SEED,
        "requests": n,
        "warmup": HOT_WARMUP,
        "latency_scale": TOPOLOGY_LATENCY_SCALE,
        "wall_s": round(wall, 4),
        "compose_per_sec": round(n / wall, 2) if wall > 0 else 0.0,
        "p50_ms": round(quantile(latencies, 0.50) * 1e3, 2),
        "dht_route_per_compose": round(routes / n, 2) if n else 0.0,
        "compose_failures": sum(1 for ok in outcomes if not ok),
        "cache_hits": dir_stats.get("cache_hits", 0),
        "cache_hit_rate": round(dir_stats.get("hit_rate", 0.0), 3),
        "daemon_errors": errors,
    }


async def run_degradation(params: BenchParams, quick: bool) -> Dict:
    """Link-degradation pass: measure the plane's reroute reaction time.

    Uses the hot-function geometry (pinned seed, emulated topology
    latency) so the degraded link is genuinely on the service path.
    Timeline: warm up until RTT baselines lock, time a healthy compose
    window, inflate the wire delay of the first static-route link by
    ``DEGRADE_FACTOR``, then compose in a tight loop until the source
    daemon's measured view routes around the link (``reroute_s``) and
    time a degraded compose window.  Convergence is driven by both
    active probes (``DEGRADE_PROBE_INTERVAL``) and the passive samples
    the composes themselves piggyback.

    Returns ``{}`` on builds without ``ClusterConfig.measurement``.
    ``rerouted`` is informational — a topology without a cheaper
    alternative path legitimately keeps the link — but crash gating
    (daemon errors, failed composes) applies like every other phase,
    with one carve-out: composes issued inside the convergence window
    may legitimately miss their QoS delay bound while the only known
    route is still priced at the degraded latency, so those failures
    are reported (``converge_failures``) but not gated on.
    """
    if "measurement" not in _CONFIG_FIELDS:
        return {}
    from repro.net import MeasurementConfig

    def deg_config(**extra) -> ClusterConfig:
        return make_cluster_config(
            n_peers=HOT_PEERS,
            n_functions=6,
            transport=params.transport,
            seed=HOT_SEED,
            components_per_peer=HOT_COMPONENTS,
            bcp_config=BCPConfig(
                budget=32,
                nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
            ),
            capacity_scale=50.0,
            measurement=MeasurementConfig(probe_interval=DEGRADE_PROBE_INTERVAL),
            **extra,
        )

    scenario = LiveCluster(deg_config()).scenario
    overlay = scenario.overlay
    template = scenario.requests.next_request(source=HOT_SOURCE, dest=HOT_DEST)

    static_path = overlay.router.path(HOT_SOURCE, HOT_DEST)
    if len(static_path) < 2:
        return {}
    hot_link = tuple(sorted(static_path[:2]))
    neighbour = hot_link[0] if hot_link[1] == HOT_SOURCE else hot_link[1]

    degraded: Dict[tuple, float] = {}

    def wire_delay(src: int, dst: int) -> float:
        if src == dst or not (0 <= src < HOT_PEERS and 0 <= dst < HOT_PEERS):
            return 0.0
        base = overlay.latency(src, dst) * TOPOLOGY_LATENCY_SCALE
        link = (src, dst) if src < dst else (dst, src)
        return base * degraded.get(link, 1.0)

    cluster = LiveCluster(deg_config(latency=wire_delay), scenario=scenario)
    n = 8 if quick else 24
    next_id = 20_000_000

    def fresh_request():
        nonlocal next_id
        next_id += 1
        return dataclasses.replace(template, request_id=next_id)

    def path_links(path) -> set:
        return {tuple(sorted(pair)) for pair in zip(path, path[1:])}

    result: Dict = {
        "peers": HOT_PEERS,
        "seed": HOT_SEED,
        "degraded_link": list(hot_link),
        "degrade_factor": DEGRADE_FACTOR,
        "latency_scale": TOPOLOGY_LATENCY_SCALE,
        "requests_per_phase": n,
    }
    failures = 0
    async with cluster:
        plane = cluster.daemons[HOT_SOURCE].measurement
        view = plane.view
        # settle: composes feed passive samples, the probe loop feeds
        # active ones; baselines lock after the estimator warm-up
        for _ in range(HOT_WARMUP):
            r = await cluster.compose(fresh_request(), confirm=False, timeout=120)
            failures += 0 if r.success else 1
        await asyncio.sleep(DEGRADE_PROBE_INTERVAL * 8)
        est = plane.estimator(neighbour)
        baseline = est.baseline if est is not None and est.baseline else 0.0

        t0 = time.perf_counter()
        for _ in range(n):
            r = await cluster.compose(fresh_request(), confirm=False, timeout=120)
            failures += 0 if r.success else 1
        healthy_wall = time.perf_counter() - t0

        degraded[hot_link] = DEGRADE_FACTOR
        t_deg = time.perf_counter()
        reroute_s = None
        converge_failures = 0
        while time.perf_counter() - t_deg < DEGRADE_CONVERGE_TIMEOUT:
            r = await cluster.compose(fresh_request(), confirm=False, timeout=120)
            converge_failures += 0 if r.success else 1
            if hot_link not in path_links(view.router.path(HOT_SOURCE, HOT_DEST)):
                reroute_s = time.perf_counter() - t_deg
                break
            await asyncio.sleep(DEGRADE_PROBE_INTERVAL)

        t1 = time.perf_counter()
        for _ in range(n):
            r = await cluster.compose(fresh_request(), confirm=False, timeout=120)
            failures += 0 if r.success else 1
        degraded_wall = time.perf_counter() - t1

        est = plane.estimator(neighbour)
        srtt = est.srtt if est is not None and est.srtt else 0.0
        ratio = est.ratio(asyncio.get_running_loop().time()) if est is not None else 0.0
        errors = cluster.errors()

    result.update(
        {
            "baseline_rtt_ms": round(baseline * 1e3, 3),
            "converged_rtt_ms": round(srtt * 1e3, 3),
            "converged_ratio": round(ratio, 3),
            "rerouted": reroute_s is not None,
            "reroute_s": round(reroute_s, 3) if reroute_s is not None else None,
            "healthy_compose_per_sec": (
                round(n / healthy_wall, 2) if healthy_wall > 0 else 0.0
            ),
            "degraded_compose_per_sec": (
                round(n / degraded_wall, 2) if degraded_wall > 0 else 0.0
            ),
            "probes_sent": plane.probes_sent,
            "reprices": plane.reprices,
            "router_rebuilds": view.rebuilds,
            "compose_failures": failures,
            "converge_failures": converge_failures,
            "daemon_errors": errors,
        }
    )
    return result


async def run_transport(params: BenchParams) -> Dict:
    """One transport's full pass: parity phase, then the concurrent load."""
    cfg = make_cluster_config(
        n_peers=params.peers,
        n_functions=6,
        transport=params.transport,
        seed=params.seed,
        # bandwidth=0 keeps next-hop scoring independent of mid-wave pool
        # state, which is what makes the sequential parity phase exact
        # (same reasoning as tests/test_net_parity.py).
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
        capacity_scale=10.0,
    )
    cluster = LiveCluster(cfg)
    requests = cluster.scenario.requests.batch(params.parity_requests + params.requests)
    parity_reqs = requests[: params.parity_requests]
    load_reqs = requests[params.parity_requests :]

    # the sync reference pass runs before the cluster seals shared state
    expected = [
        cluster.scenario.net.bcp.compose(r, confirm=False) for r in parity_reqs
    ]

    parity_failures: List[str] = []
    latencies: List[float] = []
    failures = 0

    async with cluster:
        for sync_r, req in zip(expected, parity_reqs):
            live_r = await cluster.compose(req, confirm=False, timeout=60)
            rid = req.request_id
            if live_r.success != sync_r.success:
                parity_failures.append(f"request {rid}: success diverged")
            elif sync_r.success and live_r.best.signature() != sync_r.best.signature():
                parity_failures.append(f"request {rid}: selected graph diverged")
            elif live_r.probes_sent != sync_r.probes_sent:
                parity_failures.append(f"request {rid}: probe count diverged")

        sem = asyncio.Semaphore(params.sessions)

        async def one(req) -> bool:
            async with sem:
                t0 = time.perf_counter()
                result = await cluster.compose(req, confirm=False, timeout=60)
                latencies.append(time.perf_counter() - t0)
                return result.success

        t_load = time.perf_counter()
        outcomes = await asyncio.gather(*(one(r) for r in load_reqs))
        wall = time.perf_counter() - t_load
        failures = sum(1 for ok in outcomes if not ok)
        errors = cluster.errors()
        leaked = cluster.soft_tokens()
        stats = cluster.rpc_stats()

    return {
        "transport": params.transport,
        "sessions": params.sessions,
        "requests": params.requests,
        "wall_s": round(wall, 4),
        "compose_per_sec": round(len(load_reqs) / wall, 2) if wall > 0 else 0.0,
        "p50_ms": round(quantile(latencies, 0.50) * 1e3, 2),
        "p99_ms": round(quantile(latencies, 0.99) * 1e3, 2),
        "compose_failures": failures,
        "frames_sent": stats["frames_sent"],
        "bytes_sent": stats["bytes_sent"],
        "rpc_retries": stats["retries_performed"],
        "daemon_errors": errors,
        "leaked_soft_tokens": {str(k): len(v) for k, v in leaked.items()},
        "parity_failures": parity_failures,
    }


def record_entry(note: str, quick: bool, results: Dict[str, Dict]) -> None:
    history = []
    if BENCH_LIVE_JSON.exists():
        try:
            history = json.loads(BENCH_LIVE_JSON.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(
        {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "note": note,
            "quick": quick,
            "results": results,
        }
    )
    BENCH_LIVE_JSON.write_text(json.dumps(history, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke-test scale: fewer peers/sessions/requests (what CI runs)",
    )
    parser.add_argument(
        "--transport", choices=("loopback", "tcp", "both"), default="both"
    )
    parser.add_argument("--peers", type=int, default=None)
    parser.add_argument("--sessions", type=int, default=None, help="concurrent sessions")
    parser.add_argument("--requests", type=int, default=None, help="total compositions")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--no-hot", dest="hot", action="store_false", default=True,
        help="skip the hot-function (directory-tier) phase",
    )
    parser.add_argument(
        "--no-degrade", dest="degrade", action="store_false", default=True,
        help="skip the link-degradation (measurement-plane) phase",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="append results to benchmarks/BENCH_live.json",
    )
    parser.add_argument(
        "--note", default=os.environ.get("BENCH_NOTE", ""),
        help="tag for the recorded entry (default: $BENCH_NOTE)",
    )
    args = parser.parse_args(argv)

    peers = args.peers if args.peers is not None else (5 if args.quick else 10)
    sessions = args.sessions if args.sessions is not None else (4 if args.quick else 16)
    requests = args.requests if args.requests is not None else (8 if args.quick else 64)
    parity_n = 2 if args.quick else 4
    transports = ("loopback", "tcp") if args.transport == "both" else (args.transport,)

    results: Dict[str, Dict] = {}
    status = 0
    for transport in transports:
        params = BenchParams(
            transport=transport,
            peers=peers,
            sessions=sessions,
            requests=requests,
            parity_requests=parity_n,
            seed=args.seed,
        )
        print(f"[{transport}] {peers} peers, {sessions} concurrent sessions, "
              f"{requests} requests ...", flush=True)
        res = asyncio.run(run_transport(params))
        results[transport] = res
        print(
            f"[{transport}] {res['compose_per_sec']} compose/sec  "
            f"p50 {res['p50_ms']} ms  p99 {res['p99_ms']} ms  "
            f"({res['frames_sent']} frames, {res['bytes_sent']} bytes)"
        )
        if res["parity_failures"]:
            print(f"[{transport}] PARITY VIOLATION: {res['parity_failures']}",
                  file=sys.stderr)
            status = max(status, 2)
        if res["daemon_errors"] or res["leaked_soft_tokens"] or res["compose_failures"]:
            print(
                f"[{transport}] FAILURE: errors={res['daemon_errors']} "
                f"leaked={res['leaked_soft_tokens']} "
                f"failed_composes={res['compose_failures']}",
                file=sys.stderr,
            )
            status = max(status, 1)

        if args.hot:
            hot = asyncio.run(run_hot_function(params))
            res["hot_function"] = hot
            print(
                f"[{transport}] hot-function: {hot['compose_per_sec']} compose/sec, "
                f"dht_route/compose {hot['dht_route_per_compose']} "
                f"(hit rate {hot['cache_hit_rate']:.1%})"
            )
            if hot["daemon_errors"] or hot["compose_failures"]:
                print(
                    f"[{transport}] hot-function FAILURE: "
                    f"errors={hot['daemon_errors']} "
                    f"failed_composes={hot['compose_failures']}",
                    file=sys.stderr,
                )
                status = max(status, 1)

        if args.degrade:
            deg = asyncio.run(run_degradation(params, args.quick))
            if deg:
                res["degradation"] = deg
                reroute = (
                    f"rerouted in {deg['reroute_s']} s"
                    if deg["rerouted"]
                    else "did not reroute"
                )
                print(
                    f"[{transport}] degradation: link {deg['degraded_link']} "
                    f"x{deg['degrade_factor']:.0f} -> ratio "
                    f"{deg['converged_ratio']}, {reroute}, "
                    f"{deg['degraded_compose_per_sec']} compose/sec degraded "
                    f"(healthy {deg['healthy_compose_per_sec']})"
                )
                if deg["daemon_errors"] or deg["compose_failures"]:
                    print(
                        f"[{transport}] degradation FAILURE: "
                        f"errors={deg['daemon_errors']} "
                        f"failed_composes={deg['compose_failures']}",
                        file=sys.stderr,
                    )
                    status = max(status, 1)

    if args.record and results:
        record_entry(args.note, args.quick, results)
        print(f"recorded entry in {BENCH_LIVE_JSON.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
