"""Command-line interface: ``python -m repro <subcommand> [options]``.

Experiment subcommands regenerate the paper's evaluation in simulated
virtual time::

    python -m repro fig8                 # success ratio vs workload
    python -m repro fig9 --quick         # failure recovery (reduced scale)
    python -m repro fig10 --trace t.jsonl
    python -m repro fig11 --plot         # with a terminal chart
    python -m repro overhead
    python -m repro trust
    python -m repro all --quick

Live subcommands run the same protocol over real asyncio transports
(:mod:`repro.net`)::

    python -m repro compose-live                   # loopback cluster
    python -m repro compose-live --transport tcp --peers 10 --requests 5
    python -m repro compose-live --concurrency 8 --requests 16
    python -m repro serve --peers 5 --duration 30  # keep a cluster up

Every live subcommand runs one whole cluster in one process; open-loop
load on TCP is ``bench/run.py``'s ``live-open-tcp`` workload.

For the live subcommands ``--profile`` prints a
:class:`~repro.perf.PhaseTimer` boot/compose/shutdown breakdown instead
of a cProfile report.

Common options: ``--quick`` shrinks every experiment to smoke-test scale
(seconds); ``--seed`` re-rolls the randomness; ``--plot`` adds Unicode
charts; ``--profile`` (with optional ``--profile-dump PATH``) runs under
cProfile; ``--trace PATH`` writes a structured JSONL event log — the
same :class:`~repro.sim.tracing.EventTrace` format in simulated and
live mode, so the two runtimes produce comparable logs.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import sys
from typing import List, Optional

from .experiments import (
    Fig8Config,
    Fig9Config,
    Fig10Config,
    Fig11Config,
    OverheadConfig,
    TrustConfig,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_overhead,
    run_trust_extension,
)
from .experiments.plotting import ascii_chart
from .perf import profile_call
from .sim.tracing import EventTrace

__all__ = ["main"]

_QUICK = {
    "fig8": Fig8Config(
        n_ip=200, n_peers=40, n_functions=12, workloads=(2, 4, 6),
        duration=10, probing_fractions=(0.2,), max_budget=60,
    ),
    "fig9": Fig9Config(
        n_ip=200, n_peers=40, n_functions=12, duration_minutes=15, target_sessions=10
    ),
    "fig10": Fig10Config(n_peers=40, requests_per_point=15),
    "fig11": Fig11Config(n_peers=40, budgets=(10, 100, 500), requests_per_point=8),
    "overhead": OverheadConfig(n_ip=200, n_peers=40, n_functions=12, duration=8, workload=2),
    "trust": TrustConfig(n_ip=200, n_peers=40, n_functions=8, sessions=120, batch=30),
}

_FULL = {
    "fig8": Fig8Config(),
    "fig9": Fig9Config(),
    "fig10": Fig10Config(),
    "fig11": Fig11Config(),
    "overhead": OverheadConfig(),
    "trust": TrustConfig(),
}

_RUNNERS = {
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "overhead": run_overhead,
    "trust": run_trust_extension,
}

_Y_LABELS = {
    "fig8": "success ratio",
    "fig9": "failures/min",
    "fig10": "ms",
    "fig11": "ms",
    "trust": "clean rate",
}

_EXPERIMENT_HELP = {
    "fig8": "success ratio vs workload (five algorithms)",
    "fig9": "failure recovery with vs without backups",
    "fig10": "session setup time vs function number",
    "fig11": "service delay vs probing budget",
    "overhead": "BCP vs centralized message overhead",
    "trust": "trust-aware composition extension",
    "all": "run every experiment in sequence",
}


def _add_experiment_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quick", action="store_true", help="smoke-test scale")
    sub.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    sub.add_argument("--plot", action="store_true", help="render terminal charts")
    sub.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    sub.add_argument(
        "--profile-dump",
        metavar="PATH",
        default=None,
        help="with --profile: also write raw pstats data to PATH "
        "(one experiment per invocation)",
    )
    sub.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL event log (EventTrace format)",
    )


def _add_cluster_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--peers", type=int, default=5, help="overlay peers to host")
    sub.add_argument("--functions", type=int, default=6, help="service functions")
    sub.add_argument(
        "--transport", choices=("loopback", "tcp"), default="loopback",
        help="loopback queues or real TCP sockets on localhost",
    )
    sub.add_argument(
        "--port-base", type=int, default=None,
        help="tcp: peer p listens on port-base+p (default: OS-assigned)",
    )
    sub.add_argument("--seed", type=int, default=0, help="environment RNG seed")
    sub.add_argument(
        "--measure",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="topology measurement plane: active neighbour probing, "
        "passive RTT sampling, adaptive routing (default); "
        "--no-measure freezes routing on the static topology",
    )
    sub.add_argument(
        "--profile",
        action="store_true",
        help="time the boot/run/shutdown phases and print a breakdown",
    )
    sub.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL event log (EventTrace format)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SpiderNet (HPDC 2004) reproduction — "
        "experiment runner and live peer runtime",
    )
    subs = parser.add_subparsers(dest="experiment", required=True, metavar="subcommand")
    for name in sorted(_RUNNERS) + ["all"]:
        sub = subs.add_parser(name, help=_EXPERIMENT_HELP[name])
        _add_experiment_options(sub)
    serve = subs.add_parser(
        "serve", help="boot a live cluster of peer daemons and keep it running"
    )
    _add_cluster_options(serve)
    serve.add_argument(
        "--duration", type=float, default=None,
        help="stop after this many seconds (default: until interrupted)",
    )
    live = subs.add_parser(
        "compose-live", help="boot a live cluster and compose requests over the wire"
    )
    _add_cluster_options(live)
    live.add_argument("--requests", type=int, default=3, help="compositions to run")
    live.add_argument("--budget", type=int, default=None, help="probing budget override")
    live.add_argument(
        "--concurrency", type=int, default=1,
        help="overlapping compose sessions (1 = sequential, the default)",
    )
    live.add_argument(
        "--kill", type=int, default=None, metavar="PEER",
        help="kill this peer after the first composition (exercises retry)",
    )
    return parser


def _config_for(name: str, quick: bool, seed: Optional[int]):
    cfg = (_QUICK if quick else _FULL)[name]
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _run_one(
    name: str,
    quick: bool,
    seed: Optional[int],
    plot: bool,
    profile: bool = False,
    profile_dump: Optional[str] = None,
    trace: Optional[EventTrace] = None,
) -> None:
    print(f"=== {name} {'(quick)' if quick else ''} ===", flush=True)
    cfg = _config_for(name, quick, seed)
    if profile:
        result, report = profile_call(
            _RUNNERS[name], cfg, verbose=True, trace=trace, dump_path=profile_dump
        )
        print()
        print(report)
    else:
        result = _RUNNERS[name](cfg, verbose=True, trace=trace)
    if hasattr(result, "table"):
        print()
        print(result.table())
    if plot and hasattr(result, "series"):
        print()
        print(ascii_chart(result.series, y_label=_Y_LABELS.get(name, "y")))
    print()


def _build_cluster(args, trace: Optional[EventTrace]):
    from .net import ClusterConfig, LiveCluster, MeasurementConfig

    cfg = ClusterConfig(
        n_peers=args.peers,
        n_functions=args.functions,
        transport=args.transport,
        port_base=args.port_base,
        seed=args.seed,
        measurement=MeasurementConfig(enabled=args.measure),
    )
    return LiveCluster(cfg, trace=trace)


def _print_phase_timer(timer) -> None:
    total = sum(timer.totals.values()) or 1.0
    print("  phases:")
    for name, seconds in timer.totals.items():
        print(f"    {name:<10} {seconds * 1000:8.1f} ms  ({seconds / total:5.1%})")


def _print_directory_stats(cluster) -> None:
    stats = cluster.directory_stats()
    print("  directory:")
    print(
        f"    slice serves {stats['directory_serves']}, "
        f"rows {stats['directory_rows']}"
    )
    print(
        f"    cache hits {stats['cache_hits']} / misses {stats['cache_misses']} "
        f"(hit rate {stats['hit_rate']:.1%})"
    )


def _print_measurement_stats(cluster) -> None:
    stats = cluster.measurement_stats()
    if not stats.get("enabled"):
        return
    print("  measurement:")
    print(
        f"    probes {stats['probes_sent']} sent / "
        f"{stats['probe_failures']} failed / "
        f"{stats['probes_suppressed']} suppressed by traffic "
        f"({stats['measure_frames']} frames, {stats['measure_bytes']} B), "
        f"samples {stats['samples_active']} active + "
        f"{stats['samples_passive']} passive, "
        f"{stats['samples_discarded']} discarded (send waited)"
    )
    down = stats["paths_down"]
    n_down = sum(len(peers) for peers in down.values())
    print(
        f"    paths down {n_down} "
        f"({stats['down_events']} down / {stats['up_events']} up events), "
        f"reprices {stats['reprices']}, "
        f"router rebuilds {stats['router_rebuilds']}, "
        f"private routers {stats['private_routers']}"
    )


async def _serve(args, trace: Optional[EventTrace]) -> int:
    from .perf import PhaseTimer

    timer = PhaseTimer()
    cluster = _build_cluster(args, trace)
    with timer.phase("boot"):
        await cluster.start()
    try:
        addrs = getattr(cluster.transport, "addresses", {})
        print(f"live cluster up: {args.peers} peers over {args.transport}", flush=True)
        for peer, addr in sorted(addrs.items()):
            print(f"  peer {peer}: {addr[0]}:{addr[1]}")
        try:
            with timer.phase("serve"):
                if args.duration is not None:
                    await asyncio.sleep(args.duration)
                else:
                    while True:
                        await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
    finally:
        with timer.phase("shutdown"):
            await cluster.stop()
    print("cluster stopped")
    if args.profile:
        _print_phase_timer(timer)
        _print_directory_stats(cluster)
        _print_measurement_stats(cluster)
    return 0


def _print_compose_result(request, result) -> None:
    status = "ok" if result.success else f"FAILED ({result.failure_reason})"
    print(
        f"  request {request.request_id}: {status} — "
        f"{result.probes_sent} probes, "
        f"{result.candidates_examined} candidates, "
        f"setup {result.setup_time * 1000:.0f} ms (virtual)"
    )


async def _compose_live(args, trace: Optional[EventTrace]) -> int:
    from .perf import PhaseTimer

    timer = PhaseTimer()
    cluster = _build_cluster(args, trace)
    failures = 0
    with timer.phase("boot"):
        await cluster.start()
    try:
        from .net.rpc import RpcError

        requests = cluster.scenario.requests.batch(args.requests)
        if args.concurrency > 1:
            try:
                with timer.phase("compose"):
                    results = await cluster.compose_concurrent(
                        requests,
                        concurrency=args.concurrency,
                        budget=args.budget,
                        timeout=60,
                    )
            except RpcError as exc:
                print(f"  batch FAILED ({exc})")
                failures += 1
                results = []
            for request, result in zip(requests, results):
                _print_compose_result(request, result)
                failures += 0 if result.success else 1
        else:
            for i, request in enumerate(requests):
                try:
                    with timer.phase("compose"):
                        result = await cluster.compose(
                            request, budget=args.budget, timeout=60
                        )
                except RpcError as exc:
                    # e.g. the request's own source or dest peer was killed
                    print(f"  request {request.request_id}: FAILED ({exc})")
                    failures += 1
                    continue
                _print_compose_result(request, result)
                failures += 0 if result.success else 1
                if args.kill is not None and i == 0:
                    if args.kill in (request.source_peer, request.dest_peer):
                        print(f"  not killing endpoint peer {args.kill}")
                    else:
                        cluster.kill_peer(args.kill)
                        print(f"  killed peer {args.kill}")
        stats = cluster.rpc_stats()
        print(
            f"  wire: {stats['frames_sent']} frames / {stats['bytes_sent']} bytes, "
            f"{stats['retries_performed']} RPC retries"
        )
        if cluster.errors():
            print(f"  daemon errors: {cluster.errors()}")
            failures += 1
    finally:
        with timer.phase("shutdown"):
            await cluster.stop()
    if args.profile:
        _print_phase_timer(timer)
        _print_directory_stats(cluster)
        _print_measurement_stats(cluster)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "compose-live" and args.kill is not None:
        if not 0 <= args.kill < args.peers:
            parser.error(f"--kill {args.kill} is not a peer in [0, {args.peers})")
    trace = EventTrace() if getattr(args, "trace", None) else None
    try:
        if args.experiment == "serve":
            return asyncio.run(_serve(args, trace))
        if args.experiment == "compose-live":
            return asyncio.run(_compose_live(args, trace))
        names = sorted(_RUNNERS) if args.experiment == "all" else [args.experiment]
        for name in names:
            _run_one(
                name,
                args.quick,
                args.seed,
                args.plot,
                profile=args.profile,
                profile_dump=args.profile_dump,
                trace=trace,
            )
        return 0
    finally:
        if trace is not None:
            n = trace.to_jsonl(args.trace)
            print(f"wrote {n} trace events to {args.trace}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
