"""The topology measurement plane: estimators, the daemon's re-routed
overlay, and the live loop from degradation to rerouting and from death
to recovery.

Unit layers first (:class:`LinkEstimator` EWMA/baseline/decay math, the
plane's shared-router-until-material contract and every read following
the installed router), then the integrated behaviours the plane exists for:

* every RPC round-trip is measured for free, with no probe sent;
* active probes are real frames charged to the ``net_measure`` ledger
  category;
* settled estimates over an *unchanged* topology never perturb
  selections (the parity guarantee, asserted against the sync engine);
* degrading a link's wire latency mid-run converges the RTT estimate
  and routes subsequent traffic around the link;
* the dead-path lifecycle: killing a peer marks its paths down and
  drops it from candidate selection, reviving it brings both back via
  a recovery probe;
* exhausted RPC retries leave structured, inspectable records without
  polluting the crash-bug channel (``LiveCluster.errors()``).
"""

import asyncio
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bcp import BCP, BCPConfig, NextHopWeights
from repro.core.probe import Probe
from repro.discovery.metadata import ServiceMetadata
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, measurement
from repro.sim import vtime
from repro.net.measurement import LinkEstimator, MeasurementPlane
from repro.net.rpc import RetryPolicy
from repro.sim.tracing import EventTrace
from repro.topology.overlay import Overlay
from repro.topology.routing import OverlayRouter

from worlds import fuzz_settings, grid_graph


# ----------------------------------------------------------------------
# LinkEstimator
# ----------------------------------------------------------------------


def test_estimator_seeds_and_locks_baseline():
    est = LinkEstimator()
    est.add_sample(0.010, now=0.0)
    assert est.srtt == pytest.approx(0.010)
    assert est.rttvar == pytest.approx(0.005)
    assert est.baseline is None  # not warm yet
    est.add_sample(0.010, now=0.1)
    assert est.baseline is None
    est.add_sample(0.010, now=0.2)
    assert est.baseline == pytest.approx(0.010)
    # steady input: ratio pins at 1.0, estimate == srtt
    assert est.ratio(now=0.3) == pytest.approx(1.0)
    assert est.estimate(now=0.3) == pytest.approx(0.010)


def test_estimator_ewma_tracks_inflation():
    est = LinkEstimator()
    for i in range(3):
        est.add_sample(0.010, now=i * 0.1)
    srtt = est.srtt
    est.add_sample(0.060, now=0.4)
    # one RFC 6298 step: srtt += alpha * (rtt - srtt), alpha = 1/8
    assert est.srtt == pytest.approx(srtt + 0.125 * (0.060 - srtt))
    for i in range(60):
        est.add_sample(0.060, now=0.5 + i * 0.1)
    assert est.srtt == pytest.approx(0.060, rel=0.05)
    assert est.ratio(now=7.0) == pytest.approx(6.0, rel=0.1)
    assert est.baseline == pytest.approx(0.010)  # baseline never re-locks


def test_estimator_staleness_decays_toward_baseline():
    stale, half = measurement.STALE_AFTER, measurement.DECAY_HALFLIFE
    est = LinkEstimator()
    for i in range(3):
        est.add_sample(0.010, now=float(i))
    for i in range(40):
        est.add_sample(0.050, now=3.0 + i * 0.1)
    last = est.last_at
    srtt = est.srtt
    # fresh: no decay
    assert est.estimate(last + stale) == pytest.approx(srtt)
    # one half-life past staleness: deviation from baseline halves
    mid = est.estimate(last + stale + half)
    assert mid == pytest.approx(0.010 + (srtt - 0.010) * 0.5)
    # far future: estimate is back at baseline, ratio back at ~1
    far = est.estimate(last + stale + 20 * half)
    assert far == pytest.approx(0.010, rel=0.01)
    assert est.ratio(last + stale + 20 * half) == pytest.approx(1.0, rel=0.01)


def test_estimator_ignores_negative_samples():
    est = LinkEstimator()
    est.add_sample(-1.0, now=0.0)
    assert est.srtt is None
    assert est.samples == 0


# ----------------------------------------------------------------------
# the daemon's overlay: the shared router until a delta, then its own
# ----------------------------------------------------------------------


def _overlay(n_peers=6, seed=7):
    return LiveCluster(
        ClusterConfig(n_peers=n_peers, seed=seed)
    ).scenario.overlay


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _NoCalls:
    """Endpoint stand-in: these tests never send a frame."""


def _plane(base, peer=0, clock=None):
    """A plane over its own copy of ``base``, as a measuring daemon has."""
    view = copy.copy(base)
    return MeasurementPlane(peer, _NoCalls(), view, clock=clock or _Clock()), view


def test_view_delegates_verbatim_when_clean():
    base = _overlay()
    plane, view = _plane(base)
    # the *same* router object — memoized paths are shared, selections
    # cannot diverge even in principle
    assert view.router is base.router
    assert view.latency(0, 3) == base.latency(0, 3)
    assert view.path_loss_add(0, 3) == base.path_loss_add(0, 3)
    assert view.n_peers == base.n_peers
    assert plane.router_rebuilds == 0 and not plane.private


def test_view_scales_link_and_preserves_link_order():
    base = _overlay()
    plane, view = _plane(base)
    q = plane.neighbours[0]
    link = tuple(sorted((plane.peer_id, q)))
    declared = base.router.link_delay(*link)
    plane.set_link_scales({q: 4.0})
    assert view.router is not base.router and plane.private
    assert plane.router_rebuilds == 1
    assert view.router.link_delay(*link) == pytest.approx(declared * 4.0)
    # same graph object, same canonical link order: pool capacity/usage
    # arrays indexed by link_order stay valid
    assert view.router.graph is base.router.graph
    assert view.router.link_order == base.router.link_order
    # the shared overlay never sees a daemon's delta
    assert base.router.link_delay(*link) == declared
    # clearing the only delta returns to the shared router, building none
    plane.set_link_scales({q: None})
    assert view.router is base.router and not plane.private
    assert plane.router_rebuilds == 1


def test_view_down_peer_prices_links_unreachable():
    base = _overlay()
    plane, view = _plane(base)
    victim = 3
    plane.mark_path_down(victim)
    assert not view.router.reachable(0, victim)
    assert view.latency(0, victim) == float("inf")
    assert view.path_loss_add(0, victim) == float("inf")
    # other pairs still route (mesh topologies keep alternatives)
    others = [p for p in base.peers() if p != victim]
    assert view.router.reachable(others[0], others[-1])
    plane.mark_path_up(victim)
    assert view.router is base.router
    assert view.latency(0, victim) == base.latency(0, victim)


# ----------------------------------------------------------------------
# live cluster integration
# ----------------------------------------------------------------------


def _live_config(**overrides):
    base = dict(
        n_peers=6,
        n_functions=6,
        transport="loopback",
        seed=11,
        bcp_config=BCPConfig(
            budget=32,
            nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
        ),
        capacity_scale=10.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


# a probe that gives up sooner than the plane's 250 ms, for the
# dead-path cases
FAST_PROBE = RetryPolicy(timeout=0.1, retries=0, backoff=0.01)


async def _poll(predicate, timeout=15.0, tick=0.02):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(tick)
    return predicate()


def test_passive_only_mode_measures_rpc_roundtrips(monkeypatch):
    # no probe cycle comes due while the test runs: every sample is a
    # compose's own RPC round trip
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 60.0)

    async def scenario():
        cluster = LiveCluster(_live_config())
        async with cluster:
            for r in cluster.scenario.requests.batch(2):
                await cluster.compose(r, confirm=False, timeout=60)
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return stats, errors

    stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["enabled"]
    assert stats["probes_sent"] == 0
    assert stats["samples_active"] == 0
    assert stats["samples_passive"] > 0


def test_active_probes_are_charged_to_net_measure(monkeypatch):
    monkeypatch.setattr(measurement, "PROBE_BUDGET", 4)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.02)

    async def scenario():
        cluster = LiveCluster(_live_config())
        async with cluster:
            snap = cluster.ledger.snapshot()
            await asyncio.sleep(0.3)
            delta = cluster.ledger.delta_since(snap)
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return delta, stats, errors

    delta, stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["probes_sent"] > 0
    assert stats["samples_active"] > 0
    probe_count = delta.get("net_measure", (0, 0))[0]
    assert probe_count > 0
    # probing is idle-cluster traffic: no protocol category gets charged
    assert delta.get("bcp_probe", (0, 0))[0] == 0


def test_settled_estimates_keep_selection_parity(monkeypatch):
    """The acceptance gate: measurement on, estimates settled, topology
    unchanged -> selections bit-identical to the synchronous engine."""
    # MIN_DELTA is raised from its 2 ms default: on a loaded test runner,
    # event-loop scheduling alone can spike a loopback RTT by
    # milliseconds — a *material* change by real-deployment standards,
    # but noise here.  The parity claim under test is "no material delta
    # -> bit-identical", so the test pins the materiality floor above
    # runner noise to keep the unchanged-topology precondition true.
    monkeypatch.setattr(measurement, "MIN_DELTA", 0.05)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.02)

    async def scenario():
        cluster = LiveCluster(_live_config())
        requests = cluster.scenario.requests.batch(3)
        expected = [
            cluster.scenario.net.bcp.compose(r, confirm=False) for r in requests
        ]
        async with cluster:
            # let every plane lock baselines (warmup=3 samples per link)
            await asyncio.sleep(0.4)
            live = []
            for r in requests:
                live.append(await cluster.compose(r, confirm=False, timeout=60))
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return expected, live, stats, errors

    expected, live, stats, errors = asyncio.run(scenario())
    assert errors == []
    assert stats["samples_active"] > 0, "estimates must actually have settled"
    # sub-MIN_DELTA jitter: no link ever repriced, no private router
    # ever built — the precondition for the bit-identical claim below
    assert stats["reprices"] == 0
    assert stats["router_rebuilds"] == 0
    assert any(e.success for e in expected), "fixture must compose something"
    for sync_r, live_r in zip(expected, live):
        assert live_r.success == sync_r.success
        if sync_r.success:
            assert live_r.best.signature() == sync_r.best.signature()
        assert live_r.probes_sent == sync_r.probes_sent


def test_degraded_link_converges_and_reroutes(monkeypatch):
    """Inflate one link's emulated wire latency mid-run: the source's
    estimator must converge on the inflation and its measured view must
    route subsequent traffic around the link.  On virtual time a sample is
    the emulated delay and nothing else, so the baseline cannot lock on
    boot-burst scheduling noise."""

    scale = 0.1  # modeled delay -> wall seconds (2x bench's emulation,
    # so the absolute RTT delta comfortably clears MIN_DELTA)
    factor = 6.0
    degraded = {}
    holder = {}

    def wire_delay(src, dst):
        overlay = holder.get("overlay")
        if overlay is None or src == dst:
            return 0.0
        base = overlay.latency(src, dst) * scale
        link = (src, dst) if src < dst else (dst, src)
        return base * degraded.get(link, 1.0)

    # full fanout: the first hop toward dest must be in the source's
    # probe set whatever the declared-delay order is
    monkeypatch.setattr(measurement, "PROBE_FANOUT", 8)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.05)

    async def scenario():
        cluster = LiveCluster(_live_config(latency=wire_delay))
        overlay = holder["overlay"] = cluster.scenario.overlay
        gen = cluster.scenario.requests
        source, dest = 2, 4
        static_path = overlay.router.path(source, dest)
        hot_link = tuple(sorted(static_path[:2]))
        neighbour = hot_link[0] if hot_link[1] == source else hot_link[1]

        async with cluster:
            plane = cluster.daemons[source].measurement
            view = plane.overlay
            loop = asyncio.get_running_loop()
            # settle the baseline on healthy wires
            assert await _poll(
                lambda: (plane.estimator(neighbour) or LinkEstimator()).baseline
                is not None
            ), "baseline must lock on healthy wires"
            r = await cluster.compose(gen.next_request(source=source, dest=dest), timeout=60)
            assert r.success

            degraded[hot_link] = factor

            def rerouted():
                path = view.router.path(source, dest)
                links = {tuple(sorted(p)) for p in zip(path, path[1:])}
                return hot_link not in links

            assert await _poll(rerouted), "measured view must route around the link"
            # rerouting fires the moment the materiality gate (1.5x) is
            # crossed; the EWMA keeps converging toward the true 6x as
            # probes continue on the degraded link.  The ratio is read
            # on the plane's own clock (the loop's), so staleness decay
            # reads the true sample age.
            assert await _poll(
                lambda: plane.estimator(neighbour).ratio(loop.time()) > 3.0
            ), "estimate must keep converging toward the real inflation"
            ratio = plane.estimator(neighbour).ratio(loop.time())
            # two attempts: a compose overlapping one more reprice can
            # legitimately miss its QoS bound mid-repricing
            after = [
                await cluster.compose(gen.next_request(source=source, dest=dest), timeout=60)
                for _ in range(2)
            ]
            reprices, rebuilds = plane.reprices, plane.router_rebuilds
            errors = cluster.errors()
        return ratio, after, reprices, rebuilds, errors

    ratio, after, reprices, rebuilds, errors = vtime.run(scenario())
    assert errors == []
    # converged well past the materiality gate, toward the real 6x
    assert ratio > 3.0
    assert reprices >= 1
    assert rebuilds >= 1
    assert any(r.success for r in after), "composes must keep succeeding on the detour"


def test_dead_path_lifecycle_kill_then_revive(monkeypatch):
    """Satellite: kill a peer mid-run -> neighbours mark the path down
    and routing avoids it; revive the peer -> a recovery probe marks the
    path back up and routes return."""
    monkeypatch.setattr(measurement, "PROBE_RETRY", FAST_PROBE)
    monkeypatch.setattr(measurement, "DOWN_AFTER", 2)
    # full fanout so every daemon adjacent to the victim actively
    # probes it (3-nearest might exclude it)
    monkeypatch.setattr(measurement, "PROBE_FANOUT", 8)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.05)

    async def scenario():
        fast = RetryPolicy(timeout=0.15, retries=1, backoff=0.02)
        cluster = LiveCluster(_live_config(retry=fast))
        victim = 0
        async with cluster:
            gen = cluster.scenario.requests
            baseline = await cluster.compose(
                gen.next_request(source=1, dest=2), timeout=60
            )

            watchers = [
                d
                for p, d in cluster.daemons.items()
                if p != victim and victim in d.measurement.neighbours
            ]
            assert watchers, "victim must be in someone's probe fanout"

            cluster.kill_peer(victim)
            assert await _poll(
                lambda: any(d.measurement.is_down(victim) for d in watchers)
            ), "consecutive probe failures must mark the path down"
            downed = next(d for d in watchers if d.measurement.is_down(victim))
            # routing avoids the corpse: dropped from candidate liveness
            # and priced unreachable on the router the daemon's engine reads
            assert not downed.bcp.alive(victim)
            assert victim in downed.measurement.down_paths
            assert not downed.bcp.overlay.router.reachable(downed.peer_id, victim)
            during = [
                await cluster.compose(gen.next_request(source=3, dest=4), timeout=60)
                for _ in range(2)
            ]

            await cluster.revive_peer(victim)
            assert await _poll(
                lambda: not any(d.measurement.is_down(victim) for d in watchers)
            ), "a recovery probe must mark the path back up"
            assert victim not in downed.measurement.down_paths
            assert downed.bcp.alive(victim)
            assert downed.bcp.overlay.router.reachable(downed.peer_id, victim)
            after = await cluster.compose(
                gen.next_request(source=1, dest=2), timeout=60
            )
            stats = cluster.measurement_stats()
            errors = cluster.errors()
        return baseline, during, after, stats, errors

    baseline, during, after, stats, errors = vtime.run(scenario())
    assert errors == []
    assert baseline.success
    assert any(
        r.success for r in during
    ), "cluster must keep composing around the corpse"
    assert after.success, "routes must return after recovery"
    assert stats["down_events"] >= 1
    assert stats["up_events"] >= 1


def test_a_traced_path_down_carries_the_virtual_time_of_its_decision(monkeypatch):
    monkeypatch.setattr(measurement, "PROBE_RETRY", FAST_PROBE)
    monkeypatch.setattr(measurement, "DOWN_AFTER", 2)
    monkeypatch.setattr(measurement, "PROBE_FANOUT", 8)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.05)

    async def scenario():
        trace = EventTrace()
        cluster = LiveCluster(_live_config(), trace=trace)
        async with cluster:
            await asyncio.sleep(0.1)
            killed_at = asyncio.get_running_loop().time()
            cluster.kill_peer(0)
            assert await _poll(lambda: trace.select(category="path_down"))
        return trace, killed_at

    trace, killed_at = vtime.run(scenario())
    downs = trace.select(category="path_down")
    assert downs and all(e.fields["target"] == 0 for e in downs)
    # two failed probes, each with its own timeout, after the kill
    assert all(e.time > killed_at > 0.0 for e in downs)


def test_rpc_exhaustion_leaves_structured_records(monkeypatch):
    """Satellite: retry exhaustion against a dead peer is recorded with
    peer id, method and attempt count — inspectable via
    ``rpc_failures()`` / ``errors(include_rpc=True)`` while the plain
    ``errors()`` crash-bug channel stays clean."""
    monkeypatch.setattr(measurement, "PROBE_RETRY", FAST_PROBE)
    monkeypatch.setattr(measurement, "PROBE_FANOUT", 8)
    monkeypatch.setattr(measurement, "PROBE_INTERVAL", 0.05)

    async def scenario():
        fast = RetryPolicy(timeout=0.15, retries=1, backoff=0.02)
        cluster = LiveCluster(_live_config(retry=fast))
        async with cluster:
            gen = cluster.scenario.requests
            cluster.kill_peer(0)
            assert await _poll(lambda: cluster.rpc_failures())
            for _ in range(2):
                await cluster.compose(gen.next_request(source=3, dest=4), timeout=60)
            failures = cluster.rpc_failures()
            clean = cluster.errors()
            verbose = cluster.errors(include_rpc=True)
        return failures, clean, verbose

    failures, clean, verbose = vtime.run(scenario())
    assert clean == []  # crash-bug channel unaffected
    assert failures
    for f in failures:
        assert f.peer == 0
        assert f.method
        # probes never retry (1 attempt); control RPCs use retries=1
        # (2 attempts); once the path is marked down, later calls fail
        # fast without sending at all (0 attempts)
        assert f.attempts in (0, 1, 2)
        assert f.error
    assert any("rpc_exhausted" in line and "peer=0" in line for line in verbose)


def test_measurement_disabled_reproduces_pre_plane_behaviour():
    async def scenario():
        cluster = LiveCluster(
            _live_config(measurement=MeasurementConfig(enabled=False))
        )
        async with cluster:
            for r in cluster.scenario.requests.batch(2):
                await cluster.compose(r, confirm=False, timeout=60)
            snap = cluster.ledger.snapshot()
            await asyncio.sleep(0.2)
            delta = cluster.ledger.delta_since(snap)
            stats = cluster.measurement_stats()
            planes = [d.measurement for d in cluster.daemons.values()]
            errors = cluster.errors()
        return delta, stats, planes, errors

    delta, stats, planes, errors = asyncio.run(scenario())
    assert errors == []
    assert not stats["enabled"]
    assert stats["probes_sent"] == 0
    assert stats["samples_passive"] == 0
    assert all(p is None for p in planes)
    assert delta.get("net_measure", (0, 0))[0] == 0


# ----------------------------------------------------------------------
# the decision rule on seeded sample schedules: no cluster, fake clock
# ----------------------------------------------------------------------
#
# The plane decides once per probe interval, at the end of its probe
# cycle.  Feeding ``record_rtt`` against a fake clock and calling
# ``_reprice`` at the end of each interval, as ``_probe_loop`` does,
# drives the whole rule through the plane's own intake without a probe.


INTERVAL = measurement.PROBE_INTERVAL


def _fed_plane(peer=None, n_peers=6):
    """A plane over its own copy of the overlay, fed by hand.  ``peer``
    defaults to the best-connected one."""
    base = _overlay(n_peers=n_peers)
    if peer is None:
        peer = max(base.peers(), key=base.graph.degree)
    clock = _Clock()
    plane, view = _plane(base, peer, clock)
    return plane, view, base, clock


def _declared_rtt(base, a, b):
    """A wall-clock RTT for the link, in the range of a real WAN hop."""
    return 0.004 + 0.010 * float(base.graph.edges[a, b]["delay"])


class _Jitter:
    """Heavy-tailed multiplicative jitter around a constant mean: mostly
    a tight log-normal, now and then a burst of 2-5 samples at 2-4x —
    shorter than the dozen-odd consistent samples the rule needs to
    believe a step (test (b) bounds that from the other side)."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.burst = 0
        self.factor = 1.0

    def __call__(self) -> float:
        rng = self.rng
        if self.burst == 0 and rng.random() < 0.04:
            self.burst = int(rng.integers(2, 6))
            self.factor = float(rng.uniform(2.0, 4.0))
        if self.burst:
            self.burst -= 1
            return self.factor * float(rng.lognormal(0.0, 0.1))
        return float(rng.lognormal(0.0, 0.2))


def _run_schedule(plane, clock, rtt_of, intervals, per_interval=4, watch=None):
    """Feed every adjacent link ``per_interval`` samples per interval for
    ``intervals`` intervals, each ending in the plane's decision;
    ``rtt_of(peer, t)`` is the schedule.  Returns the watched link's raw
    ratio at the end of each interval."""
    peers = sorted(plane._adjacent)
    step = INTERVAL / per_interval
    ratios = []
    for _ in range(intervals):
        for _ in range(per_interval):
            clock.now += step
            for q in peers:
                plane.record_rtt(q, rtt_of(q, clock.now), "ProbeTransfer")
        plane._reprice(clock.now)
        if watch is not None:
            ratios.append(plane.estimator(watch).ratio(clock.now))
    return ratios


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_schedule_jitter_on_every_neighbour_never_reprices(seed):
    """(a) The estimates cross the materiality ratio again and again —
    the ungated rule re-priced at each crossing — but never clear of
    their own noise: no scale, no private router, parity kept."""
    plane, view, base, clock = _fed_plane()
    me = plane.peer_id
    jitter = {q: _Jitter(100 * seed + q) for q in plane._adjacent}
    crossings = 0

    def rtt_of(q, t):
        nonlocal crossings
        est = plane.estimator(q)
        if est is not None and est.ratio(t) >= measurement.MATERIAL_RATIO:
            crossings += 1
        return _declared_rtt(base, me, q) * jitter[q]()

    _run_schedule(plane, clock, rtt_of, intervals=240)
    assert crossings > 20, "the schedule must actually cross the ratio gate"
    assert plane.reprices == 0
    assert plane.router_rebuilds == 0
    assert view.router is base.router


def _reroutable_link(base):
    """A link ``(me, q)`` whose x6 inflation moves the route me -> q."""
    for me in base.peers():
        for q in base.graph.neighbors(me):
            link = tuple(sorted((me, q)))
            slow = 6.0 * float(base.graph.edges[link]["delay"])
            if OverlayRouter(base.graph, delay_overrides={link: slow}).path(me, q) != [me, q]:
                return me, q
    raise AssertionError("fixture overlay has no detour")


@pytest.mark.parametrize(
    "per_interval, within", [(4, 7), (1, 24)], ids=["traffic", "probe-rate"]
)
def test_schedule_step_amid_jitter_installs_within_bound(per_interval, within):
    """(b) A x6 step on one link, the same jitter on all of them: the
    scale is installed within 7 intervals of the step when traffic
    samples the link four times an interval, within 24 when one probe an
    interval is all it gets (the rule wants some 16 consistent samples,
    whatever the size of the step) — and the route leaves the link."""
    base = _overlay()
    me, hot = _reroutable_link(base)
    plane, view, base, clock = _fed_plane(peer=me)
    jitter = {q: _Jitter(7 + q) for q in plane._adjacent}
    step_at = [float("inf")]

    def rtt_of(q, t):
        # the wire got slower; the queueing noise on top of it did not grow
        slower = 5.0 if q == hot and t > step_at[0] else 0.0
        return _declared_rtt(base, me, q) * (slower + jitter[q]())

    _run_schedule(plane, clock, rtt_of, intervals=40, per_interval=per_interval)
    assert plane.reprices == 0 and view.router.path(me, hot) == [me, hot]
    step_at[0] = clock.now
    took = 0
    while not plane._scales and took < 2 * within:
        _run_schedule(plane, clock, rtt_of, intervals=1, per_interval=per_interval)
        took += 1
    assert took <= within, f"installed after {took} intervals"
    assert set(plane._scales) == {hot}
    assert plane._scales[hot] >= measurement.MATERIAL_RATIO
    assert view.router.path(me, hot) != [me, hot]


def test_schedule_ratio_hovering_at_the_gate_installs_once():
    """(c) A ratio swinging 1.35-1.75 around the 1.5 gate: one install,
    then held — the parent cleared at every downward crossing and
    re-installed at every upward one."""
    plane, view, base, clock = _fed_plane()
    me = plane.peer_id
    hot = min(plane._adjacent)
    period = 40 * INTERVAL

    def rtt_of(q, t):
        swing = 1.55 + 0.2 * np.sin(2 * np.pi * t / period) if q == hot else 1.0
        return swing * _declared_rtt(base, me, q)

    _run_schedule(plane, clock, lambda q, t: _declared_rtt(base, me, q), intervals=4)
    ratios = _run_schedule(plane, clock, rtt_of, intervals=200, watch=hot)
    gate = measurement.MATERIAL_RATIO
    crossings = sum((a < gate) != (b < gate) for a, b in zip(ratios, ratios[1:]))
    assert crossings >= 8, "the schedule must cross the gate both ways"
    assert plane.reprices == 1
    assert plane.router_rebuilds == 1
    assert set(plane._scales) == {hot}


def test_schedule_five_links_in_one_interval_are_one_rebuild():
    """(d) Coalescing: five links inflate inside one interval; the plane
    decides once, and one router is built."""
    plane, view, base, clock = _fed_plane(n_peers=10)
    me = plane.peer_id
    adjacent = sorted(plane._adjacent)
    assert len(adjacent) >= 7
    hot = set(adjacent[:5])
    inflated = [False]

    def rtt_of(q, t):
        factor = 4.0 if inflated[0] and q in hot else 1.0
        return factor * _declared_rtt(base, me, q)

    _run_schedule(plane, clock, rtt_of, intervals=4)
    assert plane.reprices == 0
    inflated[0] = True
    # 32 samples per link between two decisions: every estimator
    # converges and settles within the one interval
    _run_schedule(plane, clock, rtt_of, intervals=2, per_interval=32)
    assert plane.reprices == 5
    assert plane.router_rebuilds == 1
    assert set(plane._scales) == hot
    assert view.router is not base.router


def _cold(graph, me, scales, down):
    """The reference: the router the constructor builds cold from the
    deltas a sequence of mutations should have left."""
    overrides = {
        tuple(sorted((me, q))): float(graph.edges[me, q]["delay"]) * k
        for q, k in scales.items()
    }
    for u, v in graph.edges:
        if u in down or v in down:
            overrides[tuple(sorted((u, v)))] = float("inf")
    return OverlayRouter(graph, delay_overrides=overrides), overrides


def test_view_mutation_equals_fresh_router():
    """(e) Whatever sequence of mutations led to it, the daemon's router
    is the router the constructor builds from the same overrides, over the
    same graph and link order; each mutation builds exactly one router,
    and a reset goes back to the shared one."""
    base = _overlay(n_peers=12)
    graph = base.graph
    me = max(base.peers(), key=graph.degree)
    plane, view = _plane(base, me)
    q = sorted(plane._adjacent)
    down_peer = max((p for p in base.peers() if p != me), key=graph.degree)
    steps = [
        (lambda: plane.set_link_scales({q[0]: 6.0, q[1]: 2.5, q[2]: 1.6}),
         {q[0]: 6.0, q[1]: 2.5, q[2]: 1.6}, set()),
        (lambda: plane.set_link_scales({q[0]: None, q[3]: 4.0}),
         {q[1]: 2.5, q[2]: 1.6, q[3]: 4.0}, set()),
        (lambda: plane.mark_path_down(down_peer), {q[1]: 2.5, q[2]: 1.6, q[3]: 4.0}, {down_peer}),
        (lambda: plane.mark_path_up(down_peer), {q[1]: 2.5, q[2]: 1.6, q[3]: 4.0}, set()),
        (lambda: plane.rebind(plane.endpoint), {}, set()),
    ]
    for step, scales, down in steps:
        rebuilds = plane.router_rebuilds
        step()
        fresh, overrides = _cold(graph, me, scales, down)
        new = view.router
        np.testing.assert_array_equal(new._dist, fresh._dist)
        assert new.graph is graph and new.link_order == base.router.link_order
        if not overrides:
            assert new is base.router and plane.router_rebuilds == rebuilds
            continue
        assert plane.router_rebuilds == rebuilds + 1
        for a in base.peers():
            for b in base.peers():
                if fresh.reachable(a, b):
                    assert new.path(a, b) == fresh.path(a, b)
                    assert new.links(a, b) == fresh.links(a, b)
                    assert new.link_index_list(a, b) == fresh.link_index_list(a, b)
    assert plane.router_rebuilds == 4


def _grid_engine():
    """The unit-delay grid (:func:`worlds.grid_graph`) wired the way a
    measuring daemon is: a BCP over its own copy of the overlay, and a
    plane on the centre peer."""
    g = grid_graph()
    view = Overlay(graph=g, router=OverlayRouter(g))
    plane = MeasurementPlane(4, _NoCalls(), view, clock=_Clock())
    return BCP(view, None, None), plane


def _daemon_engine():
    """A measuring daemon of an unstarted loopback cluster, as booted (its
    plane on a hand clock: no loop runs)."""
    cluster = LiveCluster(ClusterConfig(n_peers=8, seed=7))
    graph = cluster.scenario.overlay.graph
    daemon = cluster.daemons[max(graph.nodes, key=graph.degree)]
    daemon.measurement._clock = _Clock()
    return daemon.bcp, daemon.measurement


_ENGINES = {}

_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("scale"), st.integers(0, 6), st.sampled_from([None, 0.5, 2.0, 3.0, 6.0])),
        st.tuples(st.just("down"), st.integers(0, 11)),
        st.tuples(st.just("up"), st.integers(0, 11)),
        st.tuples(st.just("reset")),
    ),
    max_size=6,
)


@fuzz_settings(40)
@given(world=st.sampled_from(["daemon", "grid"]), mutations=_MUTATIONS)
def test_every_engine_read_after_plane_mutations_equals_a_cold_router(world, mutations):
    """Every read follows the installed router.  After any sequence of
    plane mutations, every read through the daemon's engine — BCP's link
    QoS, the overlay's path loss, the router's links, link indices and
    delay rows — equals the same read from a router built cold from the
    deltas, ties included, though BCP's link-QoS memo was warm before
    each mutation."""
    if world not in _ENGINES:
        _ENGINES[world] = _grid_engine() if world == "grid" else _daemon_engine()
    bcp, plane = _ENGINES[world]
    view, me = bcp.overlay, plane.peer_id
    graph, peers = view.graph, sorted(view.graph.nodes)
    neighbours = sorted(plane._adjacent)
    plane.rebind(plane.endpoint)
    scales, down = {}, set()

    def check():
        cold, overrides = _cold(graph, me, scales, down)
        router = view.router
        assert plane.private == bool(overrides)
        for a in peers:
            assert router.delays_to(a, peers) == cold.delays_to(a, peers)
            for b in peers:
                if a == b:
                    loss = 0.0
                elif cold.reachable(a, b):
                    loss = sum(float(graph.edges[link]["loss_add"]) for link in cold.links(a, b))
                else:
                    loss = float("inf")
                assert bcp._link_qos(a, b).values == {"delay": cold.delay(a, b), "loss": loss}
                assert view.path_loss_add(a, b) == loss
                if cold.reachable(a, b):
                    assert router.links(a, b) == cold.links(a, b)
                    assert router.link_index_list(a, b) == cold.link_index_list(a, b)
                else:
                    assert not router.reachable(a, b)

    check()
    for kind, *args in mutations:
        if kind == "scale":
            q, k = neighbours[args[0] % len(neighbours)], args[1]
            plane.set_link_scales({q: k})
            if k is None:
                scales.pop(q, None)
            else:
                scales[q] = k
        elif kind == "down":
            plane.mark_path_down(peers[args[0] % len(peers)])
            down.add(peers[args[0] % len(peers)])
        elif kind == "up":
            plane.mark_path_up(peers[args[0] % len(peers)])
            down.discard(peers[args[0] % len(peers)])
        else:
            plane.rebind(plane.endpoint)
            scales.clear()
            down.clear()
        check()


def test_scores_read_the_delays_of_the_router_a_reprice_installs():
    """BCP ranks duplicates on one delay row per ranking peer, which the
    router keeps: after a delta swaps the daemon's router the ranking reads
    the new router's delays, and after a reset the shared router's again
    (a row kept across the swap would rank on delays the daemon no longer
    has)."""
    cluster = LiveCluster(ClusterConfig(n_peers=8, seed=7))
    shared = cluster.scenario.net.bcp
    base = cluster.scenario.overlay
    probe = Probe.initial(cluster.scenario.requests.next_request(), 8)
    here = probe.current_peer
    plane, view = _plane(base, here)
    delay_only = NextHopWeights(delay=1.0, bandwidth=0.0, failure=0.0)
    config = dataclasses.replace(shared.config, nexthop_weights=delay_only)
    bcp = BCP(view, shared.pool.clone_empty(overlay=view), shared.registry, config=config)
    comps = [ServiceMetadata.from_spec(spec) for spec in cluster.scenario.population]

    def scores_from_latency():
        delays = [view.latency(here, c.peer) for c in comps]
        top = max(max(delays), 1e-9)
        return [1.0 * d / top for d in delays]

    before = bcp._score_components(probe, comps)
    assert before == scores_from_latency()
    plane.set_link_scales({n: 5.0 for n in base.graph.neighbors(here)})
    after = bcp._score_components(probe, comps)
    assert after == scores_from_latency() != before
    plane.rebind(plane.endpoint)
    assert bcp._score_components(probe, comps) == scores_from_latency() == before


def test_probes_go_only_where_traffic_has_not_measured(monkeypatch):
    """(f) Per cycle: a neighbour with passive traffic inside the last
    interval is skipped, an idle one is probed every interval (its own
    acks never suppress it), a failing or down one always; probing of the
    busy neighbour resumes one interval after its traffic stops."""
    monkeypatch.setattr(measurement, "PROBE_FANOUT", 4)
    monkeypatch.setattr(measurement, "DOWN_AFTER", 2)
    base = _overlay(n_peers=10)
    me = max(base.peers(), key=base.graph.degree)
    clock = _Clock()
    interval = measurement.PROBE_INTERVAL
    plane, _ = _plane(base, me, clock)
    busy, idle, dead, flaky = plane.neighbours
    rtt = 0.01
    probed = []
    for cycle in range(1, 13):
        clock.now = cycle * interval
        targets = plane._targets()
        probed.append(targets)
        for q in targets:  # the cycle's probes are answered — except by the dead
            if q == dead:
                plane.record_failure(q, "PathProbe")
            else:
                plane.record_rtt(q, rtt, "PathProbe")
        clock.now += interval / 2
        if cycle <= 8:
            plane.record_rtt(busy, rtt, "ProbeTransfer")
        if cycle == 5:  # fresh sample, then a failed exchange: not healthy
            plane.record_rtt(flaky, rtt, "ProbeTransfer")
            plane.record_failure(flaky, "ProbeTransfer")
    assert all(idle in targets for targets in probed)
    assert all(dead in targets for targets in probed)
    assert plane.is_down(dead) and all(t[0] == dead for t in probed[2:])
    assert flaky in probed[5], "a failing path is probed however fresh its last sample"
    # busy: probed in the first cycle (nothing measured yet), suppressed
    # while traffic flows (last sample half an interval old), probed again
    # from the cycle a whole interval after the last sample (cycle 8.5)
    assert [busy in targets for targets in probed] == [True] + [False] * 8 + [True] * 3
    assert plane.probes_suppressed == 8
