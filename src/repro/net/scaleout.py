"""Multi-process scale-out harness: cluster launcher + open-loop load.

A single :class:`~repro.net.cluster.LiveCluster` hosts every overlay
peer in one event loop — fine for protocol tests, useless for asking
"what happens at 96 peers and 200 requests/second?", where one Python
process serializes all the work.  This module shards one cluster across
N worker *processes*:

* Every worker builds the **identical** scenario from the shared seed
  (peer ids, components, capacities and the DHT ring are all derived
  deterministically), then hosts only the peers of its shard
  (``peer % procs == shard``) over a :class:`TcpTransport` with a fixed
  ``port_base``, so peer ``p``'s address is computable as
  ``(host, port_base + p)`` by everyone without a discovery step.
* Boot is two-phase (:meth:`LiveCluster.start_transport` then
  :meth:`LiveCluster.activate`): all shards come up listening before any
  shard starts its DHT-routed boot registration, which may land on any
  process.
* Load is **open-loop**: :class:`LoadDriver` fires Poisson arrivals
  (:class:`~repro.workload.arrivals.PoissonArrivals`) on its running
  loop and never awaits a composition before launching the next — offered
  load is what the experiment says it is, regardless of how slowly the
  cluster answers.  That is the load shape that makes congestion
  collapse observable, and the one the admission guard
  (:mod:`repro.net.admission`) exists to survive.

The controller talks to workers over a line-oriented JSON protocol on
stdin/stdout (commands down, events up), so the whole harness needs
nothing but subprocess pipes:

.. code-block:: text

    controller -> worker:  {"cmd": "activate"} | {"cmd": "load", ...}
                           {"cmd": "kill", "peer": 7} | {"cmd": "revive", "peer": 7}
                           {"cmd": "stop"}
    worker -> controller:  {"event": "listening", ...} -> "ready" ->
                           "load_done" (with per-request records) -> "stopped"

``python -m repro cluster`` is the CLI face of
:class:`ScaleoutController`; ``python -m repro cluster-worker`` is the
entry point the controller spawns.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..workload.arrivals import PoissonArrivals
from ..workload.generator import RequestGenerator
from .admission import AdmissionConfig
from .cluster import ClusterConfig, LiveCluster
from .measurement import MeasurementConfig
from .rpc import RpcError

__all__ = [
    "LoadDriver",
    "RequestRecord",
    "ScaleoutConfig",
    "ScaleoutController",
    "quantile",
    "run_scaleout",
    "run_worker",
    "summarize_records",
]

# request-id namespace width per shard: workers stamp their own ids so
# two processes can never open the same session id at one destination
RID_SPAN = 10_000_000


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleoutConfig:
    """One scale-out run: environment, sharding, load, and churn."""

    n_peers: int = 16
    n_functions: int = 8
    procs: int = 2
    port_base: int = 27000  # below the ephemeral range (32768+)
    seed: int = 0
    capacity_scale: float = 4.0
    # open-loop load (cluster-wide arrivals/s, split evenly over shards)
    rate: float = 20.0
    duration: float = 5.0
    budget: Optional[int] = None
    confirm: bool = True
    request_timeout: float = 10.0
    # destination fallback window; short, so an overloaded run's lost
    # credit resolves in bounded time instead of the tier-1 default 10 s
    collect_wall_timeout: float = 3.0
    measure: bool = True
    admission: Optional[AdmissionConfig] = None
    # scripted churn, offsets in seconds from the start of the load
    # phase: kill_peer dies at kill_after, revives at revive_after
    kill_peer: Optional[int] = None
    kill_after: float = 1.0
    revive_after: Optional[float] = None

    def __post_init__(self) -> None:
        if self.procs < 1:
            raise ValueError("procs must be >= 1")
        if self.n_peers < 2 * self.procs:
            raise ValueError(
                f"{self.n_peers} peers over {self.procs} procs leaves a shard "
                "without both a source and a destination"
            )
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
        if self.kill_peer is not None and not 0 <= self.kill_peer < self.n_peers:
            raise ValueError(
                f"kill_peer {self.kill_peer} is not a peer in [0, {self.n_peers})"
            )

    def hosted_by(self, shard: int) -> Tuple[int, ...]:
        """The peers worker ``shard`` hosts (round-robin assignment)."""
        return tuple(p for p in range(self.n_peers) if p % self.procs == shard)

    def cluster_config(self, shard: Optional[int] = None) -> ClusterConfig:
        """The per-process :class:`ClusterConfig` for one shard (or a
        single-process cluster hosting everything, when ``shard`` is
        None — used by tests and the smoke path)."""
        multi = shard is not None and self.procs > 1
        return ClusterConfig(
            n_peers=self.n_peers,
            n_functions=self.n_functions,
            transport="tcp" if multi else "loopback",
            port_base=self.port_base if multi else None,
            seed=self.seed,
            capacity_scale=self.capacity_scale,
            collect_wall_timeout=self.collect_wall_timeout,
            measurement=MeasurementConfig(enabled=self.measure),
            admission=self.admission,
            hosted=self.hosted_by(shard) if multi else None,
        )

    # -- JSON round trip (the config crosses the process boundary) -----
    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        if self.admission is not None:
            out["admission"] = dataclasses.asdict(self.admission)
        return out

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "ScaleoutConfig":
        doc = dict(doc)
        adm = doc.get("admission")
        if adm is not None:
            doc["admission"] = AdmissionConfig(**adm)
        return cls(**doc)


# ----------------------------------------------------------------------
# open-loop load driver
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    """One offered request's fate, in wall-clock seconds."""

    t: float  # launch offset from the start of the load phase
    latency: float  # seconds until the outcome was known
    outcome: str  # "ok" | "busy" | "failed" | "error"
    reason: str = ""
    source: int = -1
    dest: int = -1


class LoadDriver:
    """Drive one cluster shard with Poisson arrivals, open loop.

    The arrival callback launches each composition as a free-running
    task and returns immediately — completion latency never throttles
    the arrival stream.  Sources are drawn uniformly from ``sources``
    (this process's hosted peers in a sharded run); destinations may be
    anywhere in the overlay.  ``rid_base`` namespaces request ids so
    concurrent shards cannot collide at a shared destination.
    """

    def __init__(
        self,
        cluster: LiveCluster,
        rate: float,
        duration: float,
        *,
        sources: Optional[Sequence[int]] = None,
        generator: Optional[RequestGenerator] = None,
        budget: Optional[int] = None,
        confirm: bool = True,
        timeout: float = 10.0,
        rid_base: int = 0,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.rate = rate
        self.duration = duration
        self.sources = sorted(sources if sources is not None else cluster.daemons)
        if not self.sources:
            raise ValueError("no source peers to drive load from")
        self.generator = generator or cluster.scenario.requests
        self.budget = budget
        self.confirm = confirm
        self.timeout = timeout
        self.rid_base = rid_base
        self.seed = seed
        self.records: List[RequestRecord] = []
        self.offered = 0
        self._seq = 0
        self._tasks: Set[asyncio.Task] = set()
        self._t0 = 0.0
        self._closing = False

    async def run(self) -> List[RequestRecord]:
        loop = asyncio.get_running_loop()
        import numpy as np

        arrivals = PoissonArrivals(
            loop, self.rate, self._launch, rng=np.random.default_rng(self.seed)
        )
        self._src_rng = np.random.default_rng(self.seed ^ 0x5CA1E)
        self._t0 = loop.time()
        arrivals.start()
        await asyncio.sleep(self.duration)
        arrivals.stop()
        self._closing = True
        # stragglers get one request-timeout to resolve, then the run is
        # over: anything still pending is cancelled and recorded as such
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=self.timeout + 1.0)
        leftovers = [t for t in self._tasks if not t.done()]
        for task in leftovers:
            task.cancel()
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)
        return self.records

    # -- internals ------------------------------------------------------
    def _launch(self) -> None:
        if self._closing:
            return
        src = self.sources[int(self._src_rng.integers(0, len(self.sources)))]
        request = self.generator.next_request(source=src)
        if self.rid_base:
            request = dataclasses.replace(
                request, request_id=self.rid_base + self._seq
            )
        self._seq += 1
        self.offered += 1
        task = asyncio.ensure_future(self._one(request))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _one(self, request) -> None:
        loop = asyncio.get_running_loop()
        t_launch = loop.time() - self._t0
        t0 = loop.time()
        outcome, reason = "ok", ""
        try:
            result = await self.cluster.compose(
                request,
                budget=self.budget,
                confirm=self.confirm,
                timeout=self.timeout,
            )
        except asyncio.CancelledError:
            outcome, reason = "error", "cancelled at shutdown"
        except asyncio.TimeoutError:
            outcome, reason = "error", f"no result within {self.timeout}s"
        except RpcError as exc:
            outcome, reason = "error", f"{type(exc).__name__}: {exc}"
        else:
            if not result.success:
                why = result.failure_reason or "failed"
                outcome = "busy" if why.startswith("busy") else "failed"
                reason = why
        self.records.append(
            RequestRecord(
                t=round(t_launch, 6),
                latency=round(loop.time() - t0, 6),
                outcome=outcome,
                reason=reason,
                source=request.source_peer,
                dest=request.dest_peer,
            )
        )


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation quantile; 0.0 for empty input."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def _latency_block(latencies: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies) if latencies else 0.0,
        "p50": quantile(latencies, 0.50),
        "p95": quantile(latencies, 0.95),
        "p99": quantile(latencies, 0.99),
    }


def summarize_records(
    records: Sequence[RequestRecord], duration: float
) -> Dict[str, object]:
    """Cluster-wide load summary: goodput, shed/failure rates, tails."""
    by: Dict[str, List[float]] = {"ok": [], "busy": [], "failed": [], "error": []}
    for rec in records:
        by.setdefault(rec.outcome, []).append(rec.latency)
    total = len(records)
    ok, busy = len(by["ok"]), len(by["busy"])
    bad = len(by["failed"]) + len(by["error"])
    return {
        "offered": total,
        "offered_rate": total / duration if duration else 0.0,
        "ok": ok,
        "busy": busy,
        "failed": len(by["failed"]),
        "error": len(by["error"]),
        "goodput": ok / duration if duration else 0.0,
        "shed_rate": busy / total if total else 0.0,
        "failure_rate": bad / total if total else 0.0,
        "latency_ok": _latency_block(by["ok"]),
        "latency_busy": _latency_block(by["busy"]),
        "latency_all": _latency_block([r.latency for r in records]),
    }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _emit(doc: Dict[str, object]) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sys.stdout.flush()


async def _stdin_lines():
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            return
        line = line.strip()
        if line:
            yield line


async def run_worker(config: ScaleoutConfig, shard: int) -> int:
    """One shard's process body: obey stdin commands, report on stdout."""
    hosted = config.hosted_by(shard)
    cluster = LiveCluster(config.cluster_config(shard))
    await cluster.start_transport()
    _emit({"event": "listening", "shard": shard, "peers": list(hosted)})
    load_task: Optional[asyncio.Task] = None

    # each shard draws its own request stream: same environment, but
    # independent randomness, so shards don't replay identical graphs
    base = cluster.scenario.requests
    import numpy as np

    generator = RequestGenerator(
        base.overlay,
        base.functions,
        base.config,
        rng=np.random.default_rng(config.seed * 7919 + shard + 1),
        alive=base.alive,
        endpoint_pool=base.endpoint_pool,
    )

    async def _load() -> None:
        driver = LoadDriver(
            cluster,
            rate=config.rate / config.procs,
            duration=config.duration,
            sources=hosted,
            generator=generator,
            budget=config.budget,
            confirm=config.confirm,
            timeout=config.request_timeout,
            rid_base=RID_SPAN * (shard + 1),
            seed=config.seed * 104729 + shard,
        )
        records = await driver.run()
        _emit(
            {
                "event": "load_done",
                "shard": shard,
                "offered": driver.offered,
                "records": [dataclasses.asdict(r) for r in records],
            }
        )

    failures = 0
    try:
        async for line in _stdin_lines():
            try:
                cmd = json.loads(line)
            except json.JSONDecodeError:
                continue
            name = cmd.get("cmd")
            if name == "activate":
                await cluster.activate()
                _emit({"event": "ready", "shard": shard})
            elif name == "load":
                load_task = asyncio.ensure_future(_load())
            elif name == "kill":
                cluster.kill_peer(int(cmd["peer"]))
                _emit({"event": "killed", "shard": shard, "peer": cmd["peer"]})
            elif name == "revive":
                await cluster.revive_peer(int(cmd["peer"]))
                _emit({"event": "revived", "shard": shard, "peer": cmd["peer"]})
            elif name == "stop":
                break
            else:
                _emit({"event": "error", "shard": shard, "error": f"unknown cmd {name!r}"})
    finally:
        if load_task is not None and not load_task.done():
            load_task.cancel()
            await asyncio.gather(load_task, return_exceptions=True)
        await cluster.stop()
        errors = cluster.errors()
        failures = len(errors)
        _emit(
            {
                "event": "stopped",
                "shard": shard,
                "errors": errors,
                "admission": cluster.admission_stats(),
                "rpc": cluster.rpc_stats(),
            }
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# controller side
# ----------------------------------------------------------------------
class _Worker:
    """Controller-side handle on one spawned shard process."""

    def __init__(self, shard: int, proc: asyncio.subprocess.Process) -> None:
        self.shard = shard
        self.proc = proc
        self.events: List[Dict[str, object]] = []
        self._stderr_tail: List[bytes] = []
        self._stderr_task = asyncio.ensure_future(self._drain_stderr())

    async def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        while True:
            line = await self.proc.stderr.readline()
            if not line:
                return
            self._stderr_tail.append(line)
            del self._stderr_tail[:-40]  # keep the last lines for diagnosis

    def stderr_text(self) -> str:
        return b"".join(self._stderr_tail).decode("utf-8", "replace")

    def send(self, cmd: Dict[str, object]) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(cmd).encode("utf-8") + b"\n")

    async def expect(self, event: str, timeout: float) -> Dict[str, object]:
        """Read events until ``event`` arrives (other events are kept)."""
        assert self.proc.stdout is not None

        async def _next() -> Dict[str, object]:
            while True:
                line = await self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"worker {self.shard} exited while waiting for "
                        f"{event!r}; stderr tail:\n{self.stderr_text()}"
                    )
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue  # stray non-protocol output
                if isinstance(doc, dict) and "event" in doc:
                    self.events.append(doc)
                    if doc["event"] == event:
                        return doc

        return await asyncio.wait_for(_next(), timeout)


class ScaleoutController:
    """Spawn, synchronize, load, churn, and reap a sharded cluster."""

    def __init__(self, config: ScaleoutConfig) -> None:
        self.config = config
        self.workers: List[_Worker] = []

    async def run(self) -> Dict[str, object]:
        cfg = self.config
        cfg_json = json.dumps(cfg.to_dict())
        try:
            for shard in range(cfg.procs):
                proc = await asyncio.create_subprocess_exec(
                    sys.executable,
                    "-m",
                    "repro",
                    "cluster-worker",
                    cfg_json,
                    "--shard",
                    str(shard),
                    stdin=asyncio.subprocess.PIPE,
                    stdout=asyncio.subprocess.PIPE,
                    stderr=asyncio.subprocess.PIPE,
                )
                self.workers.append(_Worker(shard, proc))
            return await self._drive()
        finally:
            await self._reap()

    async def _drive(self) -> Dict[str, object]:
        cfg = self.config
        boot_timeout = 30.0 + cfg.n_peers * 0.5
        # phase 1: every listener up before anyone registers over the DHT
        await asyncio.gather(
            *(w.expect("listening", boot_timeout) for w in self.workers)
        )
        for w in self.workers:
            w.send({"cmd": "activate"})
        await asyncio.gather(*(w.expect("ready", boot_timeout) for w in self.workers))
        # load phase, with optional scripted churn against one peer
        for w in self.workers:
            w.send({"cmd": "load"})
        churn = None
        if cfg.kill_peer is not None:
            churn = asyncio.ensure_future(self._churn())
        load_timeout = cfg.duration + cfg.request_timeout + boot_timeout
        dones = await asyncio.gather(
            *(w.expect("load_done", load_timeout) for w in self.workers)
        )
        if churn is not None:
            await churn
        for w in self.workers:
            w.send({"cmd": "stop"})
        stops = await asyncio.gather(
            *(w.expect("stopped", boot_timeout) for w in self.workers)
        )
        return self._merge(dones, stops)

    async def _churn(self) -> None:
        cfg = self.config
        owner = self.workers[cfg.kill_peer % cfg.procs]
        await asyncio.sleep(cfg.kill_after)
        owner.send({"cmd": "kill", "peer": cfg.kill_peer})
        if cfg.revive_after is not None:
            await asyncio.sleep(max(0.0, cfg.revive_after - cfg.kill_after))
            owner.send({"cmd": "revive", "peer": cfg.kill_peer})

    def _merge(self, dones, stops) -> Dict[str, object]:
        cfg = self.config
        records = [
            RequestRecord(**rec) for done in dones for rec in done["records"]
        ]
        admission = {
            key: sum(int(s["admission"].get(key, 0)) for s in stops)
            for key in (
                "sessions_admitted",
                "sessions_rejected",
                "probes_shed",
                "budget_degrades",
            )
        }
        admission["enabled"] = any(s["admission"].get("enabled") for s in stops)
        errors = [e for s in stops for e in s["errors"]]
        return {
            "config": cfg.to_dict(),
            "procs": cfg.procs,
            "peers": cfg.n_peers,
            "summary": summarize_records(records, cfg.duration),
            "admission": admission,
            "errors": errors,
            "records": [dataclasses.asdict(r) for r in records],
        }

    async def _reap(self) -> None:
        for w in self.workers:
            if w.proc.returncode is None and w.proc.stdin is not None:
                try:
                    w.send({"cmd": "stop"})
                    w.proc.stdin.close()
                except (BrokenPipeError, ConnectionResetError, RuntimeError):
                    pass
        for w in self.workers:
            try:
                await asyncio.wait_for(w.proc.wait(), timeout=15.0)
            except asyncio.TimeoutError:
                w.proc.kill()
                await w.proc.wait()
            w._stderr_task.cancel()
            await asyncio.gather(w._stderr_task, return_exceptions=True)


async def run_scaleout(config: ScaleoutConfig) -> Dict[str, object]:
    """Run one full scale-out experiment and return the merged report."""
    return await ScaleoutController(config).run()
