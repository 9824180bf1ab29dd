"""Unit tests for the optimal/random/static/centralized comparison schemes."""

import numpy as np
import pytest

from repro.core.baselines import (
    CentralizedComposer,
    OptimalComposer,
    RandomComposer,
    StaticComposer,
    enumerate_candidates,
    optimal_probe_count,
)
from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.core.resources import ResourceVector
from repro.core.strategies import StrategyContext

from worlds import MicroWorld


def context(world, **kwargs):
    """The world's overlay, pool and registry, with a fresh ledger."""
    return StrategyContext(
        overlay=world.overlay, pool=world.pool, registry=world.registry, **kwargs
    )


def populated_world(**kwargs):
    world = MicroWorld(**kwargs)
    for fn, peers in (("fa", (2, 3)), ("fb", (4, 5, 6))):
        for p in peers:
            world.place(fn, peer=p)
    return world


class TestEnumeration:
    def test_all_combinations(self):
        world = populated_world()
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        duplicates = {
            "fa": world.registry.duplicates("fa"),
            "fb": world.registry.duplicates("fb"),
        }
        cands = enumerate_candidates(req, duplicates, world.overlay)
        assert len(cands) == 2 * 3

    def test_limit_respected(self):
        world = populated_world()
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb")}
        assert len(enumerate_candidates(req, duplicates, world.overlay, limit=3)) == 3

    def test_dead_peers_excluded(self):
        world = populated_world()
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb")}
        cands = enumerate_candidates(
            req, duplicates, world.overlay, alive=lambda p: p != 2
        )
        assert len(cands) == 1 * 3

    def test_commutation_patterns_enumerated(self):
        world = MicroWorld()
        for fn, p in (("fa", 2), ("fb", 3), ("fc", 4)):
            world.place(fn, peer=p)
        fg = FunctionGraph.linear(["fa", "fb", "fc"], [("fb", "fc")])
        req = world.request(fg, source=0, dest=7)
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb", "fc")}
        cands = enumerate_candidates(req, duplicates, world.overlay)
        assert len(cands) == 2  # same assignment under both orders

    def test_probe_count_is_product(self):
        world = populated_world()
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb")}
        assert optimal_probe_count(req, duplicates) == 6

    def test_probe_count_sums_patterns(self):
        world = MicroWorld()
        for fn, p in (("fa", 2), ("fb", 3), ("fc", 4)):
            world.place(fn, peer=p)
        fg = FunctionGraph.linear(["fa", "fb", "fc"], [("fb", "fc")])
        req = world.request(fg, source=0, dest=7)
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb", "fc")}
        assert optimal_probe_count(req, duplicates) == 2  # 1 per pattern


class TestOptimalComposer:
    def test_finds_global_best_delay(self):
        world = populated_world()
        composer = OptimalComposer(context(world, config=BCPConfig(objective="delay")))
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        result = composer.compose(req, confirm=False)
        assert result.success
        duplicates = {fn: world.registry.duplicates(fn) for fn in ("fa", "fb")}
        cands = enumerate_candidates(req, duplicates, world.overlay)
        best_delay = min(c.qos.get("delay") for c in cands)
        assert result.best_qos.get("delay") == pytest.approx(best_delay)

    def test_confirm_holds_resources(self):
        world = populated_world()
        composer = OptimalComposer(context(world))
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        result = composer.compose(req, confirm=True)
        assert result.success and result.session_tokens
        peer = result.best.component("fa").peer
        assert world.pool.available(peer).get("cpu") < 100.0
        world.pool.release(result.session_tokens[0])

    def test_probes_charged_to_ledger(self):
        world = populated_world()
        ctx = context(world)
        composer = OptimalComposer(ctx)
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        composer.compose(req, confirm=False)
        assert ctx.ledger.count["flood_probe"] == 6


class TestRandomComposer:
    def test_ignores_qos_may_fail(self):
        world = populated_world()
        composer = RandomComposer(context(world), rng=np.random.default_rng(0))
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=7, delay_bound=1e-6
        )
        result = composer.compose(req, confirm=False)
        assert not result.success
        assert result.best is not None  # it DID pick a graph, just a bad one
        assert result.failure_reason == "QoS requirement violated"

    def test_succeeds_with_loose_bounds(self):
        world = populated_world()
        composer = RandomComposer(context(world), rng=np.random.default_rng(0))
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        assert composer.compose(req, confirm=False).success

    def test_missing_function_fails(self):
        world = populated_world()
        composer = RandomComposer(context(world), rng=np.random.default_rng(0))
        req = world.request(FunctionGraph.linear(["fa", "nope"]), source=0, dest=7)
        result = composer.compose(req)
        assert not result.success

    def test_choice_varies_over_draws(self):
        world = populated_world()
        composer = RandomComposer(context(world), rng=np.random.default_rng(0))
        req_fn = lambda: world.request(FunctionGraph.linear(["fb"]), source=0, dest=7)
        picks = {
            composer.compose(req_fn(), confirm=False).best.component("fb").component_id
            for _ in range(20)
        }
        assert len(picks) > 1


class TestStaticComposer:
    def test_always_lowest_component_id(self):
        world = populated_world()
        composer = StaticComposer(context(world), rng=np.random.default_rng(0))
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        result = composer.compose(req, confirm=False)
        assert result.success
        expected_fa = min(m.component_id for m in world.registry.duplicates("fa"))
        assert result.best.component("fa").component_id == expected_fa

    def test_fails_when_static_choice_down(self):
        world = populated_world()
        composer = StaticComposer(
            context(world, alive=lambda p: p != 2), rng=np.random.default_rng(0)
        )
        statics = world.registry.duplicates("fa")
        static_peer = min(statics, key=lambda m: m.component_id).peer
        assert static_peer == 2
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        result = composer.compose(req)
        assert not result.success
        assert "down" in result.failure_reason


class TestCentralizedComposer:
    def test_composes_on_cached_view(self):
        world = populated_world()
        composer = CentralizedComposer(context(world))
        composer.refresh()
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        assert composer.compose(req, confirm=False).success

    def test_global_view_refresh_cost_quadratic(self):
        world = populated_world()
        ctx = context(world)
        composer = CentralizedComposer(ctx)
        composer.refresh()
        n = world.overlay.n_peers
        assert ctx.ledger.count["state_update"] == n * (n - 1)

    def test_stale_view_misjudges_load(self):
        """Between refreshes the cached cost ignores new allocations."""
        world = populated_world()
        composer = CentralizedComposer(context(world))
        composer.refresh()
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=7)
        first = composer.compose(req, confirm=False)
        # load the winning peer heavily *after* the refresh
        winner = first.best.component("fa").peer
        world.pool.soft_allocate_peer("hog", winner, ResourceVector({"cpu": 95.0}))
        again = composer.compose(
            world.request(FunctionGraph.linear(["fa"]), source=0, dest=7), confirm=False
        )
        # stale view still ranks the loaded peer as before
        assert again.best.component("fa").peer == winner
        composer.refresh()
        fresh = composer.compose(
            world.request(FunctionGraph.linear(["fa"]), source=0, dest=7), confirm=False
        )
        assert fresh.best.component("fa").peer != winner

    def test_auto_refresh_on_first_compose(self):
        world = populated_world()
        composer = CentralizedComposer(context(world))
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=7)
        assert composer.compose(req, confirm=False).success
        assert composer.refreshes == 1
