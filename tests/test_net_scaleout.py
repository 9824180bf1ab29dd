"""Scale-out harness and overload survival: admission, shedding,
lifecycle ordering, kill-under-load, and the multi-process launcher."""

import asyncio
import dataclasses
import os

import pytest

from repro.net import (
    AdmissionConfig,
    ClusterConfig,
    LiveCluster,
    LoadDriver,
    LoadGuard,
    MeasurementConfig,
    ScaleoutConfig,
    ScaleoutController,
    summarize_records,
)
from repro.net import codec
from repro.net.rpc import RetryPolicy
from repro.net.scaleout import RequestRecord, quantile


def _small_config(**overrides):
    base = dict(n_peers=6, n_functions=5, seed=2, capacity_scale=4.0)
    base.update(overrides)
    return ClusterConfig(**base)


# a port window that differs per test process, so parallel CI shards
# don't collide on fixed listeners
def _port_base() -> int:
    return 20000 + (os.getpid() * 7) % 7000


# ----------------------------------------------------------------------
# Busy frame + guard units
# ----------------------------------------------------------------------
# the id predates wire version 3; test ids are compared across commits, so it stays
@pytest.mark.parametrize("version", [codec.WIRE_VERSION], ids=["2"])
def test_busy_frame_round_trips_both_codecs(version):
    busy = codec.Busy(request_id=41, reason="sessions", inflight=9)
    env = {"kind": "res", "id": 5, "src": 2, "body": {"busy": busy}}
    out = codec.decode_frame(codec.encode_frame(env, version=version))
    assert out["body"]["busy"] == busy


def test_admission_config_validation():
    with pytest.raises(ValueError):
        AdmissionConfig(max_sessions=0)
    with pytest.raises(ValueError):
        AdmissionConfig(probe_soft_limit=10, max_probe_tasks=5)


def test_load_guard_session_admission():
    guard = LoadGuard(AdmissionConfig(max_sessions=2))
    assert guard.try_open_session(1)
    assert guard.try_open_session(2)
    assert guard.try_open_session(1)  # re-admitting an open rid is free
    assert not guard.try_open_session(3)  # at capacity
    guard.close_session(1)
    assert guard.try_open_session(3)  # slot freed
    stats = guard.stats()
    assert stats["sessions_admitted"] == 3
    assert stats["sessions_rejected"] == 1
    assert stats["sessions_peak"] == 2


def test_load_guard_probe_watermarks():
    guard = LoadGuard(AdmissionConfig(probe_soft_limit=2, max_probe_tasks=3))
    assert not guard.degraded()
    guard.begin_probe()
    guard.begin_probe()
    assert guard.degraded() and not guard.probe_overloaded()
    guard.begin_probe()
    assert guard.probe_overloaded()
    guard.end_probe()
    assert not guard.probe_overloaded() and guard.degraded()
    assert guard.stats()["probes_peak"] == 3


def test_quantile_and_summary():
    assert quantile([], 0.5) == 0.0
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    records = [
        RequestRecord(t=0.0, latency=0.1, outcome="ok"),
        RequestRecord(t=0.1, latency=0.2, outcome="ok"),
        RequestRecord(t=0.2, latency=0.01, outcome="busy"),
        RequestRecord(t=0.3, latency=5.0, outcome="failed"),
    ]
    s = summarize_records(records, duration=2.0)
    assert s["offered"] == 4 and s["ok"] == 2 and s["busy"] == 1
    assert s["goodput"] == pytest.approx(1.0)
    assert s["shed_rate"] == pytest.approx(0.25)
    assert s["latency_busy"]["p99"] == pytest.approx(0.01)


def test_scaleout_config_round_trip_and_sharding():
    cfg = ScaleoutConfig(
        n_peers=12,
        procs=3,
        admission=AdmissionConfig(max_sessions=4),
        kill_peer=5,
    )
    clone = ScaleoutConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    shards = [cfg.hosted_by(s) for s in range(3)]
    assert sorted(p for shard in shards for p in shard) == list(range(12))
    assert all(shards[s] for s in range(3))
    ccfg = cfg.cluster_config(shard=1)
    assert ccfg.hosted == cfg.hosted_by(1)
    assert ccfg.transport == "tcp" and ccfg.port_base == cfg.port_base
    with pytest.raises(ValueError):
        ScaleoutConfig(n_peers=3, procs=2)  # a shard without two endpoints
    with pytest.raises(ValueError):
        ScaleoutConfig(n_peers=12, procs=3, kill_peer=12)  # no such peer


def test_hosted_shard_requires_tcp_and_port_base():
    with pytest.raises(ValueError):
        LiveCluster(_small_config(hosted=(0, 1, 2)))  # loopback shard
    with pytest.raises(ValueError):
        LiveCluster(
            _small_config(transport="tcp", hosted=(0, 1, 2))  # no port_base
        )
    with pytest.raises(ValueError):
        LiveCluster(_small_config(hosted=(0, 99)))  # unknown peer


def test_shards_report_the_probe_count_of_one_cluster():
    """A wave that crosses shards counts its probes like one that does
    not: the count rides the credit to the destination, and no shard
    keeps a per-request tally of what its own daemons sent."""
    base = _port_base()

    def shard(hosted, scenario=None, offset=0):
        config = _small_config(
            n_peers=8, transport="tcp", port_base=base + offset, hosted=hosted,
            measurement=MeasurementConfig(enabled=False),
        )
        return LiveCluster(config, scenario=scenario)

    def keyed_by_request(cluster, rids):
        """Every dict on the cluster or a daemon still keyed by a request."""
        owners = {"cluster": cluster, **cluster.daemons}
        return {
            (owner, name)
            for owner, obj in owners.items()
            for name, value in vars(obj).items()
            if isinstance(value, dict) and rids & set(value)
        }

    async def compose_all(requests, *shards):
        by_source = {peer: s for s in shards for peer in s.daemons}
        return [
            (await by_source[r.source_peer].compose(r, confirm=False, timeout=30)).probes_sent
            for r in requests
        ]

    async def scenario():
        whole = shard(None)
        # ids no peer id can be mistaken for
        requests = [
            dataclasses.replace(r, request_id=r.request_id + 10_000_000)
            for r in whole.scenario.requests.batch(6)
        ]
        rids = {r.request_id for r in requests}
        async with whole:
            one = await compose_all(requests, whole)
        # both shards over one scenario: component and request ids are
        # process-global, so two builds in one process would not agree
        even = shard((0, 2, 4, 6), whole.scenario, offset=100)
        odd = shard((1, 3, 5, 7), whole.scenario, offset=100)
        await even.start_transport()
        await odd.start_transport()
        await asyncio.gather(even.activate(), odd.activate())
        try:
            two = await compose_all(requests, even, odd)
            left_behind = keyed_by_request(even, rids) | keyed_by_request(odd, rids)
        finally:
            await odd.stop()  # the guards seal one scenario: last sealed, first unsealed
            await even.stop()
        return one, two, left_behind, whole.errors() + even.errors() + odd.errors()

    one, two, left_behind, errors = asyncio.run(scenario())
    assert errors == []
    assert sum(one) > 0 and two == one
    assert left_behind == set()


# ----------------------------------------------------------------------
# admission end-to-end
# ----------------------------------------------------------------------
def test_admission_rejects_fast_and_leaks_nothing():
    """With one collection window per destination, a concurrent burst
    must shed some sessions in one round trip — and a shed session holds
    zero soft or firm state anywhere."""

    async def scenario():
        cluster = LiveCluster(
            _small_config(
                admission=AdmissionConfig(max_sessions=1),
            )
        )
        async with cluster:
            gen = cluster.scenario.requests
            # many concurrent sessions against ONE destination peer
            others = [p for p in sorted(cluster.daemons) if p != 3]
            requests = [
                gen.next_request(source=others[i % len(others)], dest=3)
                for i in range(12)
            ]
            t0 = asyncio.get_running_loop().time()
            results = await cluster.compose_concurrent(
                requests, concurrency=12, confirm=True, timeout=30
            )
            elapsed = asyncio.get_running_loop().time() - t0
            stats = cluster.admission_stats()
            soft = cluster.soft_tokens()
            errors = cluster.errors()
        return results, stats, soft, errors, elapsed

    results, stats, soft, errors, elapsed = asyncio.run(scenario())
    assert errors == []
    busy = [r for r in results if (r.failure_reason or "").startswith("busy")]
    assert stats["sessions_rejected"] > 0
    assert len(busy) == stats["sessions_rejected"]
    # rejection is immediate (one control round trip), not a timeout
    assert elapsed < 20
    for r in busy:
        assert not r.success
        assert r.probes_sent == 0  # no probe wave ever launched
        assert r.session_tokens == []  # and no firm token leaked
    assert soft == {}  # no dangling reservations from shed sessions
    assert any(r.success for r in results)  # the admitted ones still run


def test_admission_unhit_limits_preserve_parity():
    """A guard whose limits are never reached must not change results."""
    from repro.net import MeasurementConfig

    shared = {}

    def one_pass(admission):
        async def scenario():
            cluster = LiveCluster(
                _small_config(
                    admission=admission,
                    # measured RTT jitter feeds selection; freeze it so the
                    # two passes see identical costs (parity-test idiom)
                    measurement=MeasurementConfig(enabled=False),
                ),
                scenario=shared.get("scenario"),
            )
            if "scenario" not in shared:
                shared["scenario"] = cluster.scenario
                shared["requests"] = cluster.scenario.requests.batch(4)
            async with cluster:
                results = [
                    await cluster.compose(r, confirm=False, timeout=60)
                    for r in shared["requests"]
                ]
            assert cluster.errors() == []
            return [r.best.signature() if r.success else None for r in results]

        return asyncio.run(scenario())

    generous = AdmissionConfig(max_sessions=64, probe_soft_limit=512, max_probe_tasks=1024)
    on = one_pass(generous)
    off = one_pass(None)
    assert any(s is not None for s in on), "fixture must compose something"
    assert on == off


def test_probe_shedding_under_tiny_limits():
    """Absurdly low probe watermarks force the shed path: credit comes
    back with reason "shed", windows still close, nothing leaks."""

    async def scenario():
        cluster = LiveCluster(
            _small_config(
                collect_wall_timeout=5.0,
                admission=AdmissionConfig(
                    max_sessions=64,
                    probe_soft_limit=1,
                    max_probe_tasks=1,
                ),
            )
        )
        async with cluster:
            requests = cluster.scenario.requests.batch(6)
            results = await cluster.compose_concurrent(
                requests, concurrency=6, confirm=False, timeout=30
            )
            stats = cluster.admission_stats()
            soft = cluster.soft_tokens()
            errors = cluster.errors()
        return results, stats, soft, errors

    results, stats, soft, errors = asyncio.run(scenario())
    assert errors == []
    assert len(results) == 6  # every session resolved, none hung
    assert stats["probes_shed"] > 0 or stats["budget_degrades"] > 0
    assert soft == {}


# ----------------------------------------------------------------------
# lifecycle: stop mid-burst, kill under load
# ----------------------------------------------------------------------
def test_stop_mid_burst_is_clean():
    """Satellite (a): stopping the cluster with compositions in flight
    resolves every caller with a structured result, leaves no stray
    tasks, and records no daemon errors."""

    async def scenario():
        # emulated loopback latency keeps the burst genuinely in flight
        # at the 50 ms mark (zero-latency queues can finish it first)
        cluster = LiveCluster(_small_config(seed=5, latency=0.02))
        await cluster.start()
        requests = cluster.scenario.requests.batch(8)
        burst = [
            asyncio.ensure_future(cluster.compose(r, confirm=True, timeout=30))
            for r in requests
        ]
        await asyncio.sleep(0.05)  # mid-flight: probe waves are live
        await cluster.stop()
        results = await asyncio.gather(*burst)
        await cluster.stop()  # idempotent: second stop is a no-op
        # no daemon-owned or compose task may survive the teardown
        stray = [
            t
            for t in asyncio.all_tasks()
            if t is not asyncio.current_task() and not t.done()
        ]
        return cluster, results, stray

    cluster, results, stray = asyncio.run(scenario())
    assert cluster.errors() == []
    assert stray == []
    assert len(results) == 8
    for r in results:
        # every caller got a real CompositionResult: either the session
        # finished before the teardown or it was aborted with a reason
        if not r.success:
            assert r.failure_reason
    aborted = [
        r
        for r in results
        if (r.failure_reason or "")
        in ("cluster stopping", "cluster stopped", "peer killed")
    ]
    assert aborted, "a 50 ms-old burst cannot have fully completed"


def test_kill_mid_soak_bounded_tail():
    """Satellite (c): killing a peer under sustained load fails the
    affected sessions fast — structured RpcFailures with zero burned
    attempts — instead of stacking retry timeouts on every hop."""

    async def scenario():
        fast = RetryPolicy(timeout=0.3, retries=2, backoff=0.02)
        cluster = LiveCluster(
            _small_config(
                n_peers=8,
                seed=7,
                collect_wall_timeout=2.0,
                retry=fast,
            )
        )
        async with cluster:
            driver = LoadDriver(
                cluster, rate=30.0, duration=2.0, confirm=False, timeout=8.0, seed=3
            )
            soak = asyncio.ensure_future(driver.run())
            await asyncio.sleep(0.6)
            victim = 5
            cluster.kill_peer(victim)
            records = await soak
            failures = cluster.rpc_failures()
            errors = cluster.errors()
        return records, failures, errors, victim

    records, failures, errors, victim = asyncio.run(scenario())
    assert errors == []
    assert len(records) > 10
    summary = summarize_records(records, duration=2.0)
    assert summary["ok"] > 0  # the cluster kept composing around the corpse
    # every record resolved before the request timeout: no unbounded tail
    # (counted, not timed: on a loaded machine latency can graze the bound)
    assert [r for r in records if r.reason.startswith("no result within")] == []
    # and the kill actually bit: calls already in flight may burn the
    # attempt they had on the wire, but nothing exhausts the full retry
    # budget, and calls issued after the kill fail fast with 0 attempts
    at_victim = [f for f in failures if f.peer == victim]
    assert at_victim
    assert any(f.attempts == 0 for f in at_victim)
    assert all(f.attempts < 3 for f in at_victim)  # retries=2 -> 3 = exhausted


# ----------------------------------------------------------------------
# multi-process launcher
# ----------------------------------------------------------------------
def test_two_process_scaleout_smoke():
    """The full harness: 2 worker processes, TCP sharding, open-loop
    load with admission on — converges, composes, sheds, shuts down.
    The burst is above what one collection window per destination
    admits, so the guard must engage, and a shed must cost one control
    round trip, not a timed-out session."""

    async def scenario():
        cfg = ScaleoutConfig(
            n_peers=8,
            n_functions=6,
            procs=2,
            port_base=_port_base(),
            seed=2,
            capacity_scale=4.0,
            rate=64.0,
            duration=2.0,
            confirm=False,
            request_timeout=8.0,
            collect_wall_timeout=2.0,
            admission=AdmissionConfig(max_sessions=1),
        )
        return await ScaleoutController(cfg).run()

    report = asyncio.run(scenario())
    assert report["errors"] == []
    s = report["summary"]
    assert s["offered"] > 5
    assert s["ok"] > 0, f"no composition succeeded: {s}"
    assert s["busy"] > 0, f"a burst above the admission limit shed nothing: {s}"
    assert s["latency_busy"]["p99"] <= 1.0, f"shedding is not fast rejection: {s}"
    # cross-shard request ids never collide: sources live in both shards
    sources = {r["source"] for r in report["records"]}
    assert any(p % 2 == 0 for p in sources) and any(p % 2 == 1 for p in sources)
