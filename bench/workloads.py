"""The seven workloads.

Every workload pins its *system* — topology, population, capacities —
and its *pool* of requests with constants; ``--seed`` draws the order the
pool is sent in.  Two seeds ask for the same work in another order, so
run-to-run spread measures the machine and the code, not the luck of a
draw (see ``POOL_SEED``).  Requests are screened with the synchronous
engine on the idle system before the clock starts, so an operation that
fails inside a window is a fault of the run, never an infeasible input.

Life cycle, driven by ``run.py``: ``prepare(seed)`` once, then
``setup()`` / ``run(seconds)`` / ``teardown()``, possibly several times.
Request ids are rewritten from a per-workload base so no two workloads
(and no two set-ups) share an id.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.core.qos import QoSVector
from repro.core.strategies import create_strategy
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.workload.generator import RequestConfig
from repro.workload.largegraph import LargeGraphConfig, largegraph_world
from repro.workload.scenarios import simulation_testbed

import harness
from harness import Window

_perf = time.perf_counter

# bandwidth=0 keeps next-hop scoring independent of mid-wave pool state,
# which is what makes the sequential parity phase exact (as in
# tests/test_net_parity.py and benchmarks/bench_live.py)
LIVE_BCP = BCPConfig(
    budget=32, nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4)
)
# LiveCluster has no public session teardown, so live composes never
# confirm; the scale keeps repeated soft reservations far from any limit
CAPACITY_SCALE = 50.0
COMPOSE_TIMEOUT = 10.0
# Which requests a pool holds decides how much work a pass is: pools of
# 128 requests drawn from ten seeds differed by 8 % in mean psi and more
# in latency, several times what the machine adds.  So the pool is pinned
# like the system, and --seed draws what may vary without changing the
# work: the order the pool is sent in (closed loops) or the arrival the
# window starts with (open loop).
POOL_SEED = 2004


class Workload:
    """What ``run.py`` drives; see the module docstring for the life cycle."""

    name: str
    why: str
    limit_ms: float  # latency limit of slo_goodput_per_s
    id_base: int
    live = False  # composes cross repro.net

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.notes: List[str] = []  # worth telling, not a violation
        self.stats: Dict[str, float] = {}
        self._ids = itertools.count()

    def fresh(self, request):
        """``request`` under an id nothing else in this process uses."""
        return dataclasses.replace(request, request_id=self.id_base + next(self._ids))

    def cycle(self, pool: List[Any]) -> Iterator[Tuple[int, Any]]:
        """``(slot, request)`` over and over, in pool order."""
        for slot, request in itertools.cycle(enumerate(pool)):
            yield slot, self.fresh(request)

    def prepare(self, seed: int, scale: float) -> None:
        raise NotImplementedError

    async def setup(self) -> None:
        raise NotImplementedError

    async def run(self, seconds: float) -> Window:
        raise NotImplementedError

    async def teardown(self) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        raise NotImplementedError

    def world(self):
        """``(net, population, sample requests)`` of the system last set up,
        idle — the layer call-timers take their inputs from it."""
        raise NotImplementedError

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics only this workload can compute, from its last window."""
        return {}


def _draw(generator, n: int) -> List[Any]:
    """The pinned pool: ``n`` requests, chain lengths in equal shares (the
    number of functions drives a compose's cost more than anything else
    the generator draws)."""
    generator.rng = np.random.default_rng(POOL_SEED)
    lo, hi = generator.config.function_count
    return [generator.next_request(n_functions=lo + i % (hi - lo + 1)) for i in range(n)]


def _shuffled(pool: List[Any], rng) -> List[Any]:
    return [pool[int(i)] for i in rng.permutation(len(pool))]


def _screen(net, drawn: List[Any], violations: List[str], what: str) -> List[Any]:
    """Requests the synchronous engine composes on the idle system."""
    pool = [r for r in drawn if net.bcp.compose(r, confirm=False).success]
    if not pool:
        violations.append(f"{what}: no generated request is feasible")
    return pool


def _check_pools(pools, stats: Dict[str, float], violations: List[str]) -> None:
    """After a workload no pool may hold a token or break its invariants."""
    held = 0
    for pool in pools:
        held += len(pool.active_tokens())
        try:
            pool.check_invariants()
        except AssertionError as exc:
            violations.append(f"pool invariant broken: {exc}")
    stats["leaked_tokens"] = held
    if held:
        violations.append(f"{held} resource tokens still held after the workload")


# ----------------------------------------------------------------------
# live workloads
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LiveSpec:
    name: str
    why: str
    id_base: int
    peers: int
    functions: int
    transport: str
    scenario_seed: int
    measurement: bool
    sessions: int = 1  # closed loop: concurrent callers
    rate: float = 0.0  # > 0: open loop at this many requests per second
    # requests in one pass, sized so a window holds eight or more passes
    pool: int = 128
    # consecutive completions timed together: one for a sequential caller,
    # several per session for concurrent ones, whose completions bunch
    chunk: int = 1
    parity: int = 0
    warmup: int = 20
    limit_ms: float = 250.0
    components_per_peer: Tuple[int, int] = (1, 3)
    # hot geometry: one pinned request shape between pinned endpoints,
    # wire delay = modelled overlay latency x latency_scale
    hot_endpoints: Optional[Tuple[int, int]] = None
    latency_scale: float = 0.0
    rewrite_every: int = 0
    # False: the generator's default streams and delay bounds.  True: the
    # QUIET_PLANE request shape, for workloads with the measurement plane on
    quiet_plane: bool = False


class LiveWorkload(Workload):
    live = True

    def __init__(self, spec: LiveSpec) -> None:
        super().__init__()
        self.spec = spec
        self.name, self.why = spec.name, spec.why
        self.limit_ms, self.id_base = spec.limit_ms, spec.id_base
        self.cluster: Optional[LiveCluster] = None
        self._pool: List[Any] = []
        self._parity: List[Any] = []
        self._gaps: List[float] = []  # open loop: from each arrival of a pass to the next
        self._requests: Iterator[Any] = iter(())
        self._rng = np.random.default_rng(0)
        self._scale = 1.0
        self._composes = 0
        self._rewrites = 0
        # position in scenario.population of the component hot-rewrite
        # re-publishes (component ids differ between builds, order does not)
        self._rewrite_index = 0

    # -- system ---------------------------------------------------------
    def _config(self, **extra) -> ClusterConfig:
        s = self.spec
        return ClusterConfig(
            n_peers=s.peers,
            n_functions=s.functions,
            transport=s.transport,
            seed=s.scenario_seed,
            components_per_peer=s.components_per_peer,
            request_config=QUIET_PLANE if s.quiet_plane else None,
            bcp_config=LIVE_BCP,
            capacity_scale=CAPACITY_SCALE,
            measurement=None if s.measurement else MeasurementConfig(enabled=False),
            **extra,
        )

    def _build(self) -> LiveCluster:
        s = self.spec
        cluster = LiveCluster(self._config())
        if not s.latency_scale:
            return cluster
        overlay, n, scale = cluster.scenario.overlay, s.peers, s.latency_scale

        def wire_delay(src: int, dst: int) -> float:
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                return 0.0
            return overlay.latency(src, dst) * scale

        return LiveCluster(self._config(latency=wire_delay), scenario=cluster.scenario)

    # -- inputs ---------------------------------------------------------
    def prepare(self, seed: int, scale: float) -> None:
        """Draw and screen the request pool; ``seed`` orders it.

        The scenario built here is thrown away: requests name functions
        and peers, never component ids, so they carry over to every
        rebuild of the same pinned scenario."""
        s = self.spec
        self._scale = scale
        self._rng = np.random.default_rng(seed)
        scenario = self._build().scenario
        n = max(8, int(s.pool * scale))
        if s.hot_endpoints is None:
            # parity is a gate on fixed inputs: the scenario's own pinned
            # stream, as bench_live.py and tests/test_net_parity.py use it
            self._parity = scenario.requests.batch(s.parity)
            t0 = _perf()
            drawn = _draw(scenario.requests, n)
        else:
            # the shape comes from the scenario's own pinned stream (the
            # bench_live.py hot geometry); requests differ in bandwidth,
            # the one field that varies between users of a chain
            source, dest = s.hot_endpoints
            template = scenario.requests.next_request(source=source, dest=dest)
            self._parity = [template] * s.parity
            lo, hi = scenario.requests.config.bandwidth_range
            t0 = _perf()
            drawn = [
                dataclasses.replace(template, bandwidth=float(b))
                for b in np.random.default_rng(POOL_SEED).uniform(lo, hi, size=n)
            ]
            on_chain = [
                i for i, spec in enumerate(scenario.population)
                if spec.function in template.function_graph.functions
            ]
            self._rewrite_index = on_chain[int(self._rng.integers(len(on_chain)))]
        self.stats["request_gen_us"] = (_perf() - t0) * 1e6 / n
        pool = _screen(scenario.net, drawn, self.violations, s.name)
        if s.rate:
            # which requests arrive close together decides how much queueing
            # a pass holds, so the arrival times are pinned with the pool
            # and the seed draws the arrival the window starts with
            gaps = harness.poisson_gaps(np.random.default_rng(POOL_SEED), s.rate, len(pool))
            first = int(self._rng.integers(len(pool)))
            self._pool, self._gaps = pool[first:] + pool[:first], gaps[first:] + gaps[:first]
        else:
            self._pool = _shuffled(pool, self._rng)

    # -- life cycle -----------------------------------------------------
    async def issue(self, request):
        s = self.spec
        if s.rewrite_every and self._composes % s.rewrite_every == 0:
            # the hosting daemon re-publishes one hot-chain component with
            # alternating qp: a version bump, an invalidation fan-out and
            # a cache refill on the next lookup
            self._rewrites += 1
            spec = self.cluster.scenario.population[self._rewrite_index]
            if self._rewrites % 2:
                values = dict(spec.qp.values)
                values["delay"] *= 1.05
                spec = dataclasses.replace(spec, qp=QoSVector(values))
            await self.cluster.daemons[spec.peer].register_components(
                [spec], now=float(self._rewrites)
            )
        self._composes += 1
        return await self.cluster.compose(request, confirm=False, timeout=COMPOSE_TIMEOUT)

    async def setup(self) -> None:
        s = self.spec
        t0 = _perf()
        cluster = self._build()
        self.stats["build_s"] = _perf() - t0
        self._requests = self.cycle(self._pool)
        parity = [self.fresh(request) for request in self._parity]
        # the sync reference runs before the cluster seals shared state
        expected = [cluster.scenario.net.bcp.compose(r, confirm=False) for r in parity]
        t0 = _perf()
        await cluster.start()
        self.stats["boot_s"] = _perf() - t0
        self.cluster = cluster
        self._composes = self._rewrites = 0
        diverged = []
        for sync_r, request in zip(expected, parity):
            live_r = await cluster.compose(request, confirm=False, timeout=COMPOSE_TIMEOUT)
            rid = request.request_id
            if live_r.success != sync_r.success:
                diverged.append(f"parity: request {rid} success diverged")
            elif sync_r.success and live_r.best.signature() != sync_r.best.signature():
                diverged.append(f"parity: request {rid} selected graph diverged")
            elif live_r.probes_sent != sync_r.probes_sent:
                diverged.append(f"parity: request {rid} probe count diverged")
        repriced = cluster.measurement_stats()["reprices"]
        if diverged and repriced:
            # live == sync is only promised while every daemon's measured
            # view still delegates to the static overlay; once a stall has
            # pushed an RTT past the plane's materiality gate the live
            # cluster routes on what it measured, and may select otherwise
            self.notes.append(
                f"parity not judged: the measurement plane re-priced {repriced} links "
                f"during the parity phase ({diverged[0]})"
            )
        else:
            self.violations.extend(diverged)
        for _ in range(max(1, int(s.warmup * self._scale))):
            _, request = next(self._requests)
            await cluster.compose(request, confirm=False, timeout=COMPOSE_TIMEOUT)

    async def run(self, seconds: float) -> Window:
        s = self.spec
        window = Window(self.counters, pool=len(self._pool), chunk=s.chunk)
        self._requests = self.cycle(self._pool)  # every window starts a pass
        harness.quiesce()
        if s.rate:
            gaps = itertools.islice(itertools.cycle(self._gaps), int(s.rate * seconds) - 1)
            offsets = list(itertools.accumulate(gaps, initial=0.0))
            await harness.open_loop(self.issue, self._requests, offsets, seconds, window)
        else:
            await harness.closed_loop(self.issue, self._requests, s.sessions, seconds, window)
        self.violations.extend(window.violations)
        return window

    async def teardown(self) -> None:
        cluster = self.cluster
        errors = cluster.errors()
        soft = cluster.soft_tokens()
        self.stats["daemon_errors"] = len(errors)
        self.stats["leaked_soft_tokens"] = sum(len(t) for t in soft.values())
        if errors:
            self.violations.append(f"daemon errors: {errors[:3]}")
        if soft:
            self.violations.append(f"leaked soft tokens for requests {sorted(soft)[:5]}")
        _check_pools(
            [daemon.bcp.pool for _, daemon in sorted(cluster.daemons.items())],
            self.stats, self.violations,
        )
        t0 = _perf()
        await cluster.stop()
        self.stats["stop_s"] = _perf() - t0

    def counters(self) -> Dict[str, float]:
        cluster = self.cluster
        rpc = cluster.rpc_stats()
        directory = cluster.directory_stats()
        measure = cluster.measurement_stats()
        ledger = cluster.ledger
        return {
            "frames": rpc["frames_sent"],
            "bytes": rpc["bytes_sent"],
            "frames_dropped": rpc["frames_dropped"],
            "rpc_calls": rpc["calls_sent"],
            "rpc_retries": rpc["retries_performed"],
            "rpc_failures": len(cluster.rpc_failures()),
            "dir_hits": directory["cache_hits"],
            "dir_misses": directory["cache_misses"],
            "dht_routes": ledger.count.get("dht_route", 0),
            "msgs": ledger.total_count(),
            "measure_probes": measure["probes_sent"],
            "measure_reprices": measure["reprices"],
            "measure_rebuilds": measure["router_rebuilds"],
            "measure_paths_down": sum(len(v) for v in measure["paths_down"].values()),
        }

    def world(self):
        scenario = self.cluster.scenario
        return scenario.net, scenario.population, self._pool[:32]


# ----------------------------------------------------------------------
# sync-sim: the algorithm alone, no repro.net code on the path
# ----------------------------------------------------------------------
class SyncSim(Workload):
    name = "sync-sim"
    why = (
        "SpiderNet.compose on a 200-peer simulated overlay: BCP, discovery, DHT, routing, "
        "resources and selection with no wire code, so any net/* change must leave it flat"
    )
    limit_ms = 50.0
    id_base = 60_000_000
    POOL = 256
    WARMUP = 250  # route and link caches fill fastest over the first few hundred composes
    SCENARIO_SEED = 5

    def __init__(self) -> None:
        super().__init__()
        self.scenario = None
        self._pool: List[Any] = []
        self._requests: Iterator[Any] = iter(())
        self._scale = 1.0

    def _build(self):
        return simulation_testbed(
            n_ip=1000, n_peers=200, n_functions=50,
            bcp_config=BCPConfig(budget=32),
            capacity_scale=CAPACITY_SCALE, seed=self.SCENARIO_SEED,
        )

    def prepare(self, seed: int, scale: float) -> None:
        self._scale = scale
        scenario = self._build()
        n = max(8, int(self.POOL * scale))
        t0 = _perf()
        drawn = _draw(scenario.requests, n)
        self.stats["request_gen_us"] = (_perf() - t0) * 1e6 / n
        self._pool = _shuffled(
            _screen(scenario.net, drawn, self.violations, self.name), np.random.default_rng(seed)
        )

    def issue(self, request):
        return self.scenario.net.compose(request, confirm=False)

    async def setup(self) -> None:
        t0 = _perf()
        self.scenario = self._build()
        self.stats["build_s"] = _perf() - t0
        self._requests = self.cycle(self._pool)
        for _ in range(max(1, int(self.WARMUP * self._scale))):
            self.issue(next(self._requests)[1])

    async def run(self, seconds: float) -> Window:
        window = Window(self.counters, pool=len(self._pool))
        self._requests = self.cycle(self._pool)
        harness.quiesce()
        harness.sync_loop(self.issue, self._requests, seconds, window)
        self.violations.extend(window.violations)
        return window

    async def teardown(self) -> None:
        _check_pools([self.scenario.net.pool], self.stats, self.violations)

    def counters(self) -> Dict[str, float]:
        ledger = self.scenario.net.ledger
        return {"msgs": ledger.total_count(), "dht_routes": ledger.count.get("dht_route", 0)}

    def world(self):
        return self.scenario.net, self.scenario.population, self._pool[:32]


# ----------------------------------------------------------------------
# large-graph: core/strategies/search.py does all the work
# ----------------------------------------------------------------------
class LargeGraph(Workload):
    name = "large-graph"
    why = (
        "backtrack and decompose on three 20-50 function DAGs under fixed node caps: "
        "wall time is cost per expansion and psi is quality per unit of search work"
    )
    limit_ms = 5000.0
    id_base = 70_000_000
    WORLD_SEED = 2  # the BENCH_compose_scale geometry
    WORLDS = (("layered", 20), ("layered", 50), ("random", 30))
    # node caps sized so one pass over the six cells takes ~3 s here; a
    # capped search does the same work on every run, so psi and the ops_*
    # counters repeat exactly
    STRATEGIES = (
        ("backtrack", {"node_limit": 15_000}),
        ("decompose", {"stitch_node_limit": 8_000, "fallback_node_limit": 8_000}),
    )

    def __init__(self) -> None:
        super().__init__()
        self.worlds: List[Any] = []
        self._order: List[int] = []
        self._scale = 1.0
        self.ops_by_strategy: Dict[str, List[Tuple[float, Any]]] = {}

    def prepare(self, seed: int, scale: float) -> None:
        # the worlds and their requests are pinned; the seed orders the
        # cells, the only input that can vary while counts repeat exactly
        n = len(self.WORLDS) * len(self.STRATEGIES)
        self._order = [int(i) for i in np.random.default_rng(seed).permutation(n)]
        self._scale = scale
        self.stats["request_gen_us"] = 0.0

    def _cell(self, index: int, cap_scale: float):
        world = self.worlds[index // len(self.STRATEGIES)]
        name, caps = self.STRATEGIES[index % len(self.STRATEGIES)]
        options = {key: max(500, int(cap * cap_scale)) for key, cap in caps.items()}
        world.net.composer = create_strategy(name, world.net.strategy_context(), **options)
        request = self.fresh(world.request)
        start = _perf()
        result = world.net.compose(request, confirm=False)
        end = _perf()
        world.net.composer = None
        return name, request, result, start, end

    async def setup(self) -> None:
        t0 = _perf()
        self.worlds = [
            largegraph_world(
                LargeGraphConfig(
                    kind=kind, n_functions=size, candidate_density=4, seed=self.WORLD_SEED
                )
            )
            for kind, size in self.WORLDS
        ]
        self.stats["build_s"] = _perf() - t0
        # warm-up: every cell once under a tenth of its cap (imports, route caches)
        for index in self._order:
            self._cell(index, 0.1 * self._scale)

    async def run(self, seconds: float) -> Window:
        """Whole passes over the six cells until ``seconds`` have passed, so
        every window holds the same mix."""
        window = Window(self.counters, pool=len(self._order))
        self.ops_by_strategy = {name: [] for name, _ in self.STRATEGIES}
        harness.quiesce()
        window.mark()
        deadline = window.marks[0].t + seconds
        while True:
            for index in self._order:
                name, request, result, start, end = self._cell(index, self._scale)
                window.add(index, start, end, request, result)
                self.ops_by_strategy[name].append((end - start, result))
            if end >= deadline:
                break
        window.mark()
        self.violations.extend(window.violations)
        return window

    async def teardown(self) -> None:
        _check_pools([w.net.pool for w in self.worlds], self.stats, self.violations)

    def counters(self) -> Dict[str, float]:
        return {"msgs": sum(w.net.ledger.total_count() for w in self.worlds)}

    def layer_metrics(self) -> Dict[str, float]:
        runs = self.ops_by_strategy
        everything = [run for strategy in runs.values() for run in strategy]
        passes = max(1, len(everything) // (len(self.WORLDS) * len(self.STRATEGIES)))

        def ops(name: str) -> float:
            return sum(result.phases.get(f"ops_{name}", 0.0) for _, result in everything)

        wall = sum(seconds for seconds, _ in everything)
        out = {
            "search.expansions_per_s": ops("expansions") / wall if wall else 0.0,
            "search.us_per_expansion": wall * 1e6 / ops("expansions") if ops("expansions") else 0.0,
            "search.pruned_ratio": ops("pruned_bound") / ops("expansions") if ops("expansions") else 0.0,
            "search.complete_graphs": ops("complete_graphs") / passes,
            "search.stitch_expansions": ops("stitch_expansions") / passes,
            "search.beam_partials": ops("beam_partials") / passes,
        }
        for name, strategy in runs.items():
            out[f"search.wall_s.{name}"] = harness.mean([seconds for seconds, _ in strategy])
            out[f"search.psi.{name}"] = harness.mean(
                [result.best_cost for _, result in strategy if result.success]
            )
        return out

    def world(self):
        first = self.worlds[0]
        return first.net, first.population, []


# ----------------------------------------------------------------------
# With the measurement plane on, two things a run cannot control make a
# compose the synchronous engine accepts end in "no qualified service
# graph" about once in a thousand (see README, observations):
# * capacity_scale multiplies peer capacities, not link capacities.  With
#   overlapping sessions and the generator's default 0.2-1.0 Mbps streams,
#   every candidate's psi is inf because the available bandwidth of a link
#   next to the source reads 0 once soft reservations are subtracted;
# * scheduler jitter on a millisecond RTT baseline passes the plane's
#   materiality gate, a link is re-priced several-fold, and the delay
#   bound the idle overlay met is missed.
# The plane stays on and keeps probing and re-pricing.  Streams a tenth as
# wide and delay bounds three times looser (the PlanetLab testbed's
# setting for measuring delay rather than rejection) keep every operation
# of the measurement-on workloads succeeding.  The draws behind a request
# are the same, so the pinned hot chain keeps its shape.
QUIET_PLANE = RequestConfig(qos_tightness=3.0, bandwidth_range=(0.02, 0.1))

_HOT = dict(
    peers=5, functions=6, transport="tcp", scenario_seed=3, measurement=True,
    sessions=1, pool=8, parity=2, warmup=2,
    components_per_peer=(4, 6), hot_endpoints=(2, 4), latency_scale=0.05,
    quiet_plane=True,
)

WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "live-closed-loopback": lambda: LiveWorkload(LiveSpec(
        name="live-closed-loopback",
        why=(
            "10 peers on LoopbackTransport, 8 closed-loop sessions, measurement off: "
            "CPU-bound wire path (codec, rpc, peer) with no sockets; control for transport changes"
        ),
        id_base=10_000_000, peers=10, functions=6, transport="loopback", scenario_seed=11,
        measurement=False, sessions=8, pool=128, chunk=8, parity=4, warmup=40,
    )),
    "live-closed-tcp-48": lambda: LiveWorkload(LiveSpec(
        name="live-closed-tcp-48",
        why=(
            "48 peers on TcpTransport, 4 closed-loop sessions, all defaults: per-compose fan-out "
            "4.5x the 10-peer case, sockets and coalescing on the path, probes competing"
        ),
        id_base=20_000_000, peers=48, functions=8, transport="tcp", scenario_seed=11,
        measurement=True, sessions=4, pool=24, chunk=8, warmup=20, limit_ms=1000.0,
        quiet_plane=True,
    )),
    "live-open-tcp": lambda: LiveWorkload(LiveSpec(
        name="live-open-tcp",
        why=(
            "16 peers on TcpTransport, open loop at 15 req/s on a Poisson schedule "
            "(~25% of capacity): arrivals ignore the system's state, latency is timed from the due time"
        ),
        id_base=30_000_000, peers=16, functions=8, transport="tcp", scenario_seed=11,
        measurement=True, rate=15.0, pool=18, chunk=3, warmup=20, quiet_plane=True,
    )),
    "live-hot-latency": lambda: LiveWorkload(LiveSpec(
        name="live-hot-latency",
        why=(
            "one request shape, 5 TCP peers, emulated overlay wire delay, sequential: "
            "round-trip-bound, so a saved RPC moves it and a faster codec must not"
        ),
        id_base=40_000_000, **_HOT,
    )),
    "live-hot-rewrite": lambda: LiveWorkload(LiveSpec(
        name="live-hot-rewrite",
        why=(
            "live-hot-latency plus a re-registration of one hot-chain component before "
            "every 8th compose: directory writes beside reads, invalidation and refill"
        ),
        id_base=50_000_000, rewrite_every=8, **_HOT,
    )),
    "sync-sim": SyncSim,
    "large-graph": LargeGraph,
}
