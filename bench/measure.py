"""The two kinds of run and the metrics each reports.

* :func:`untraced` — every end-to-end metric.  Set-up runs several times
  and ``setup_s`` is the median, plus the one-off costs (imports, request
  generation and screening) that cannot be repeated inside one process.
* :func:`traced` — every per-layer metric.  A short untraced window gives
  the reference throughput, then the same workload is set up again with
  :mod:`trace`'s wrappers installed, and last the layer call-timers run on
  the idle system.  No end-to-end number ever comes from a traced window.
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, List

import harness
import layers
from harness import Window, mean, median
from trace import Totals, Tracer
from workloads import Workload

SETUP_REPEATS = 3
SMOKE_SCALE = 0.05  # of pools, warm-ups and node caps, under --smoke
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

Metrics = Dict[str, float]  # units are declared once, in BENCHMARK.json

HANDLER_KINDS = (
    "ComposeBegin", "ProbeTransfer", "FinalProbe", "CreditReturn",
    "ReservationReport", "LookupRequest", "SessionRelease",
)
LAYERS = (
    "codec", "transport", "rpc", "peer", "directory", "measurement", "cluster",
    "bcp", "cost", "discovery", "dht", "routing", "resources", "search",
)


class Outcome:
    def __init__(self, metrics: Metrics, violations: List[str], *windows: Window):
        self.metrics = metrics
        self.violations = violations
        self.attempted = sum(len(w.ops) for w in windows)
        self.failures = [reason for w in windows for reason in w.failures]

    @property
    def failed(self) -> int:
        return len(self.failures)


async def untraced(wl: Workload, seed: int, seconds: float, import_s: float, smoke: bool) -> Outcome:
    scale = SMOKE_SCALE if smoke else 1.0
    t0 = time.perf_counter()
    wl.prepare(seed, scale)
    prepare_s = time.perf_counter() - t0
    setups: List[float] = []
    repeats = 1 if smoke else SETUP_REPEATS
    for k in range(repeats):
        t0 = time.perf_counter()
        await wl.setup()
        setups.append(time.perf_counter() - t0)
        if k < repeats - 1:
            await wl.teardown()
    window = await wl.run(seconds)
    await wl.teardown()
    metrics: Metrics = {
        "setup_s": import_s + prepare_s + median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        **harness.end_to_end(window, wl.limit_ms),
    }
    return Outcome(metrics, wl.violations, window)


# ----------------------------------------------------------------------
async def traced(wl: Workload, seed: int, seconds: float, smoke: bool) -> Outcome:
    scale = SMOKE_SCALE if smoke else 1.0
    share = 0.35  # of --seconds, for each of the two windows
    calib = [harness.calibrate()]
    wl.prepare(seed, scale)
    await wl.setup()
    reference = await wl.run(seconds * share)
    await wl.teardown()
    extra = wl.layer_metrics()
    calib.append(harness.calibrate())

    tracer = Tracer()
    tracer.install()
    try:
        await wl.setup()
        tracer.capture_frames()
        before = tracer.totals.copy()
        window = await wl.run(seconds * share)
        delta = tracer.totals.since(before)
        await wl.teardown()
    finally:
        tracer.remove()
    calib.append(harness.calibrate())

    net, population, requests = wl.world()
    timers: Dict[str, float] = {}
    timers.update(layers.codec_replay(tracer.corpus))
    timers.update(layers.directory_slice(population))
    timers.update(layers.core_layers(net, population, requests))
    if wl.live:
        timers.update(await layers.wire_echo(scale))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT_DIR / f"trace-{wl.name}.jsonl")

    metrics = _per_layer(wl, reference, window, delta, tracer, timers, median(calib))
    metrics.update(extra)
    return Outcome(metrics, wl.violations, reference, window)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(
    wl: Workload,
    reference: Window,
    window: Window,
    delta: Totals,
    tracer: Tracer,
    timers: Dict[str, float],
    calib_ms: float,
) -> Metrics:
    live = wl.live
    n = len(window.ops)
    calls, busy, running, wall = delta.calls, delta.busy, delta.running, delta.wall
    cpu = window.marks[-1].cpu - window.marks[0].cpu
    layer_busy = delta.layer_busy()
    dc = window.counter_delta

    def call_us(name: str, table=wall) -> float:
        return _ratio(table.get(name, 0.0), calls.get(name, 0)) * 1e6

    m: Metrics = {}

    def put(name: str, value: float) -> None:
        m[name] = float(value)

    # codec
    put("codec.encode_us", call_us("codec.encode"))
    put("codec.decode_us", call_us("codec.decode"))
    put("codec.encodes_per_compose", _ratio(calls.get("codec.encode", 0), n))
    put("codec.decodes_per_compose", _ratio(calls.get("codec.decode", 0), n))
    put("codec.bytes_per_frame", _ratio(dc("bytes"), dc("frames")))
    put("codec.errors", tracer.codec_errors)
    put("codec.replay_encode_us", timers["codec.replay_encode_us"])
    put("codec.replay_decode_us", timers["codec.replay_decode_us"])

    # transport
    put("transport.send_us", call_us("transport.send", busy))
    put("transport.frames_per_compose", _ratio(dc("frames"), n))
    put("transport.bytes_per_compose", _ratio(dc("bytes"), n))
    put("transport.frames_dropped", dc("frames_dropped"))
    put("transport.echo_rtt_us.loopback", timers.get("transport.echo_rtt_us.loopback", 0.0))
    put("transport.echo_rtt_us.tcp", timers.get("transport.echo_rtt_us.tcp", 0.0))

    # rpc
    put("rpc.calls_per_compose", _ratio(dc("rpc_calls"), n))
    put("rpc.retries_per_compose", _ratio(dc("rpc_retries"), n))
    put("rpc.failures", dc("rpc_failures"))
    waited = wall.get("rpc.call", 0.0) - running.get("rpc.call", 0.0)
    put("rpc.call_wait_ms", _ratio(waited, calls.get("rpc.call", 0)) * 1e3)
    put("rpc.self_us", call_us("rpc.call", busy))
    put("rpc.echo_call_us", timers.get("rpc.echo_call_us", 0.0))

    # peer
    for kind in HANDLER_KINDS:
        span = f"peer.handle.{kind}"
        put(f"peer.handle_us.{kind}", call_us(span))
        put(f"peer.handles_per_compose.{kind}", _ratio(calls.get(span, 0), n))
    ops = window.ops
    put("peer.probes_per_compose", mean([op.probes for op in ops]) if live else 0.0)
    put("peer.candidates_per_compose", mean([op.candidates for op in ops]) if live else 0.0)

    # directory
    lookups = dc("dir_hits") + dc("dir_misses")
    put("directory.lookups_per_compose", _ratio(lookups, n))
    put("directory.cache_hit_ratio", _ratio(dc("dir_hits"), lookups))
    put("directory.dht_routes_per_compose", _ratio(dc("dht_routes"), n) if live else 0.0)
    put("directory.invalidations", calls.get("peer.handle.ReplicaInvalidate", 0))
    put("directory.register_ms", call_us("directory.register") / 1e3)
    put("directory.slice_lookup_us", timers["directory.slice_lookup_us"])
    put("directory.slice_store_us", timers["directory.slice_store_us"])

    # measurement
    put("measurement.probes_per_s", _ratio(dc("measure_probes"), window.elapsed))
    put("measurement.reprices", dc("measure_reprices"))
    put("measurement.router_rebuilds", dc("measure_rebuilds"))
    put("measurement.paths_down", window.marks[-1].counters.get("measure_paths_down", 0))
    probe_frames = 2 * calls.get("peer.handle.PathProbe", 0)
    put("measurement.frame_share", _ratio(probe_frames, dc("frames")))

    # cluster
    put("cluster.boot_s", wl.stats.get("boot_s", 0.0))
    put("cluster.stop_s", wl.stats.get("stop_s", 0.0))
    put("cluster.leaked_soft_tokens", wl.stats.get("leaked_soft_tokens", 0))
    put("cluster.daemon_errors", wl.stats.get("daemon_errors", 0))

    # bcp: the engine's own wall_* phase keys, read from the untraced window
    phases = [op.phases for op in reference.ops]
    for key in ("probe", "selection", "setup"):
        put(f"bcp.{key}_ms", mean([p.get(f"wall_{key}", 0.0) for p in phases]) * 1e3)
    put("bcp.compose_ms", sum(m[f"bcp.{k}_ms"] for k in ("probe", "selection", "setup")))
    put("bcp.probes_per_compose", 0.0 if live else mean([op.probes for op in ops]))
    put("bcp.candidates_per_compose", 0.0 if live else mean([op.candidates for op in ops]))
    put("bcp.msgs_per_compose", _ratio(dc("msgs"), n))
    put("cost.psi_us", timers["cost.psi_us"])

    # discovery / dht / routing / resources
    put("discovery.lookup_us", timers["discovery.lookup_us"])
    put("discovery.lookups_per_compose", _ratio(calls.get("discovery.lookup", 0), n))
    put("dht.route_us", timers["dht.route_us"])
    put("dht.hops_mean", timers["dht.hops_mean"])
    put("dht.routes_per_compose", _ratio(calls.get("dht.route", 0), n))
    put("routing.path_us", timers["routing.path_us"])
    put("routing.delay_us", timers["routing.delay_us"])
    put("resources.soft_alloc_us", timers["resources.soft_alloc_us"])
    put("resources.release_us", timers["resources.release_us"])
    put("resources.leaked_tokens", wl.stats.get("leaked_tokens", 0))

    # search: filled by the large-graph workload, zero elsewhere
    for name in (
        "expansions_per_s", "us_per_expansion", "pruned_ratio", "complete_graphs",
        "stitch_expansions", "beam_partials", "wall_s.backtrack", "wall_s.decompose",
        "psi.backtrack", "psi.decompose",
    ):
        put(f"search.{name}", 0.0)

    # load generator, workload, machine (untraced window)
    latencies = sorted((op.end - op.due) * 1e3 for op in reference.ops)
    put("load.latency_p50_ms", harness.quantile(latencies, 0.5))
    percentile, value = harness.tail(latencies)
    put("load.latency_tail_ms", value)
    put("load.tail_percentile", percentile)
    put("load.gen_late_p99_ms", harness.quantile(sorted(reference.late), 0.99) * 1e3)
    put("load.backlog_end", reference.backlog_end)
    put("load.offered_per_s", _ratio(len(reference.late), reference.elapsed))
    put("load.segment_spread", harness.segment_spread(reference))
    put("load.failed_ratio", _ratio(len(reference.failures), len(reference.ops)))
    put("workload.build_s", wl.stats.get("build_s", 0.0))
    put("workload.request_gen_us", wl.stats.get("request_gen_us", 0.0))
    put("machine.calib_ms", calib_ms)

    # the trace itself
    rate = harness.end_to_end(window, wl.limit_ms)["compose_per_s"]
    rate_ref = harness.end_to_end(reference, wl.limit_ms)["compose_per_s"]
    put("trace.spans", sum(calls.values()))
    put("trace.overhead_ratio", _ratio(rate, rate_ref))
    put("trace.unattributed_share", 1.0 - _ratio(sum(busy.values()), cpu))
    for layer in ("codec", "transport", "peer"):
        put(f"{layer}.self_share", _ratio(layer_busy.get(layer, 0.0), cpu))
    for layer in LAYERS:
        put(f"self_ms_per_compose.{layer}", _ratio(layer_busy.get(layer, 0.0), n) * 1e3)
    return m
