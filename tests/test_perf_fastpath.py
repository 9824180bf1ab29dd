"""Equivalence and cache-semantics tests for the composition fast path.

The fast path (route/link caching, wave-scoped discovery memoization)
is only admissible if it is *behaviour-preserving*: every test here pins
an optimized code path against its reference implementation, culminating
in a seeded 200-request A/B run with every cache disabled.
"""

import math

import pytest

from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.discovery.registry import ServiceRegistry
from repro.perf import PhaseTimer
from repro.workload.generator import RequestConfig
from repro.workload.scenarios import simulation_testbed

from worlds import MicroWorld, micro_overlay


def unmemoized(monkeypatch):
    """From here on every discovery lookup of a compose routes the DHT:
    the reference for the wave-scoped memo."""
    monkeypatch.setattr(ServiceRegistry, "wave_cache", lambda self: None)


def structural_signature(graph):
    """``ServiceGraph.signature()`` with component ids replaced by the
    hosting peers.  Component ids come from a process-global counter, so
    two independently built worlds assign different ids to the same
    placement — this key is comparable across worlds."""
    return (
        graph.pattern.edges,
        frozenset((fn, m.peer) for fn, m in graph.assignment.items()),
    )


# ----------------------------------------------------------------------
# route / link caching
# ----------------------------------------------------------------------
class TestRouterCaching:
    def all_pairs(self, router):
        peers = list(router.peers)
        return [(a, b) for a in peers for b in peers if a != b]

    def test_cached_paths_match_uncached(self):
        cached = micro_overlay(n_peers=6).router
        fresh = micro_overlay(n_peers=6).router
        fresh.set_path_cache(False)
        for a, b in self.all_pairs(cached):
            assert cached.path(a, b) == fresh.path(a, b)
            assert cached.links(a, b) == fresh.links(a, b)
            assert cached.link_index_list(a, b) == fresh.link_index_list(a, b)

    def test_repeat_lookup_returns_same_answer(self):
        router = micro_overlay(n_peers=5).router
        first = router.path(0, 4)
        assert router.path(0, 4) == first
        assert router.link_index_list(0, 4) == router.link_index_list(0, 4)

    def test_link_index_list_names_path_links(self):
        router = micro_overlay(n_peers=6).router
        order = list(router.link_order)
        for a, b in self.all_pairs(router):
            named = [order[i] for i in router.link_index_list(a, b)]
            want = [tuple(sorted(l)) for l in router.links(a, b)]
            assert [tuple(sorted(l)) for l in named] == want

    def test_clear_cache_empties_all_route_caches(self):
        router = micro_overlay(n_peers=5).router
        router.path(0, 4)
        router.link_index_list(0, 4)
        router.clear_cache()
        assert not router._path_cache
        assert not router._links_cache
        assert not router._link_idx_list_cache
        # still answers correctly after invalidation
        assert router.path(0, 4)[0] == 0 and router.path(0, 4)[-1] == 4


# ----------------------------------------------------------------------
# link bandwidth store vs a test-side bottleneck
# ----------------------------------------------------------------------
def bottleneck(world, claims, a, b):
    """The oracle: the least of each path link's bandwidth minus the
    claims ``[(src, dst, bandwidth), ...]`` routed over it."""
    if a == b:
        return math.inf
    router, graph = world.overlay.router, world.overlay.graph
    left = {l: graph.edges[l]["bandwidth"] for l in router.links(a, b)}
    for src, dst, bw in claims:
        for l in router.links(src, dst):
            if l in left:
                left[l] -= bw
    return max(min(left.values()), 0.0)


class TestPoolVectorizedEquivalence:
    def all_paths_match(self, world, claims):
        for a in range(6):
            for b in range(6):
                assert world.pool.path_available_bandwidth(a, b) == bottleneck(
                    world, claims, a, b
                )

    def test_single_path_bandwidth_matches(self):
        world = MicroWorld(n_peers=6)
        claims = [(0, 5, 3.0), (2, 4, 1.5), (0, 5, 2.5)]
        for n, (src, dst, bw) in enumerate(claims):
            assert world.pool.soft_allocate_path(f"t{n}", src, dst, bw)
        self.all_paths_match(world, claims)

    def test_allocation_and_free_keep_mirrors_in_sync(self):
        world = MicroWorld(n_peers=6)
        pool = world.pool
        assert pool.soft_allocate_path("a", 0, 3, 4.0)
        assert pool.soft_allocate_path("b", 0, 3, 4.0)
        # third claim exceeds the 10.0 link capacity
        assert not pool.soft_allocate_path("c", 0, 3, 4.0)
        self.all_paths_match(world, [(0, 3, 4.0), (0, 3, 4.0)])
        pool.cancel("a")
        assert pool.soft_allocate_path("c", 0, 3, 4.0)
        self.all_paths_match(world, [(0, 3, 4.0), (0, 3, 4.0)])
        pool.confirm("b")
        pool.release("b")
        pool.cancel("c")
        self.all_paths_match(world, [])


# ----------------------------------------------------------------------
# wave-scoped discovery memoization
# ----------------------------------------------------------------------
class TestWaveLookupCache:
    def populated_world(self):
        w = MicroWorld(n_peers=6)
        w.place("fa", 2)
        w.place("fa", 4)
        w.place("fb", 3)
        return w

    def test_repeat_lookup_hits_and_matches(self):
        w = self.populated_world()
        wave = w.registry.wave_cache()
        first = wave.lookup("fa", origin_peer=0)
        again = wave.lookup("fa", origin_peer=0)
        assert (wave.misses, wave.hits) == (1, 1)
        assert again is first
        assert sorted(c.peer for c in first.components) == [2, 4]
        # different origin or function is a distinct key
        wave.lookup("fa", origin_peer=1)
        wave.lookup("fb", origin_peer=0)
        assert wave.misses == 3

    def test_hits_replay_ledger_charges(self):
        w = self.populated_world()
        ledger = w.dht.ledger
        wave = w.registry.wave_cache()
        base = ledger.snapshot()
        wave.lookup("fa", origin_peer=0)
        one = ledger.delta_since(base)
        wave.lookup("fa", origin_peer=0)
        wave.lookup("fa", origin_peer=0)
        three = ledger.delta_since(base)
        assert one  # a DHT lookup charges something
        assert three == {k: (3 * c, 3 * b) for k, (c, b) in one.items()}

    def test_memoized_compose_keeps_message_accounting(self, monkeypatch):
        """Wave memoization must not change probe/ledger accounting."""

        def run():
            w = MicroWorld(n_peers=8, config=BCPConfig(budget=8))
            for p in (2, 3, 5):
                w.place("fa", p)
                w.place("fb", p)
            result = w.bcp.compose(w.request(FunctionGraph.linear(["fa", "fb"])))
            return result, w.dht.ledger

        on, ledger_on = run()
        unmemoized(monkeypatch)
        off, ledger_off = run()
        assert on.success and off.success
        assert structural_signature(on.best) == structural_signature(off.best)
        assert on.best_cost == off.best_cost
        assert on.probes_sent == off.probes_sent
        assert dict(ledger_on.count) == dict(ledger_off.count)
        assert dict(ledger_on.bytes) == dict(ledger_off.bytes)


# ----------------------------------------------------------------------
# perf harness
# ----------------------------------------------------------------------
class TestPhaseTimer:
    def test_accumulates_with_injected_clock(self):
        ticks = iter([0.0, 1.0, 10.0, 12.5, 20.0, 20.25])
        timer = PhaseTimer(clock=lambda: next(ticks))
        with timer.phase("probe"):
            pass
        with timer.phase("probe"):
            pass
        with timer.phase("selection"):
            pass
        assert timer.totals == {"probe": 3.5, "selection": 0.25}
        assert timer.as_dict(prefix="wall_") == {
            "wall_probe": 3.5,
            "wall_selection": 0.25,
        }
        timer.reset()
        assert timer.totals == {}

    def test_records_even_when_body_raises(self):
        ticks = iter([0.0, 2.0])
        timer = PhaseTimer(clock=lambda: next(ticks))
        with pytest.raises(RuntimeError):
            with timer.phase("probe"):
                raise RuntimeError("boom")
        assert timer.totals == {"probe": 2.0}

    def test_compose_reports_wall_phases(self):
        w = MicroWorld(n_peers=6)
        w.place("fa", 2)
        w.place("fb", 3)
        result = w.bcp.compose(w.request(FunctionGraph.linear(["fa", "fb"])))
        assert result.success
        for key in ("wall_probe", "wall_selection", "wall_setup"):
            assert key in result.phases
            assert result.phases[key] >= 0.0


# ----------------------------------------------------------------------
# end-to-end A/B: fast path on vs everything off
# ----------------------------------------------------------------------
class TestFastPathEquivalence:
    N_REQUESTS = 200

    @staticmethod
    def reset_global_ids(monkeypatch):
        """Restart the process-global id counters.

        Reservation tokens embed request and component ids; replaying
        the scenario with identical ids makes the two runs bit-identical
        (token-set iteration order and all).  ``monkeypatch`` restores
        the original — never-advanced — counters afterwards, so ids stay
        unique for the rest of the test session."""
        import itertools

        from repro.core import probe as probe_mod
        from repro.core import request as request_mod
        from repro.services import component as component_mod

        monkeypatch.setattr(component_mod, "_component_ids", itertools.count(1))
        monkeypatch.setattr(request_mod, "_request_ids", itertools.count(1))
        monkeypatch.setattr(probe_mod, "_probe_ids", itertools.count(1))

    def run_batch(self, fast: bool, monkeypatch):
        if not fast:
            unmemoized(monkeypatch)
        scenario = simulation_testbed(
            n_ip=300,
            n_peers=60,
            n_functions=15,
            request_config=RequestConfig(function_count=(3, 3)),
            bcp_config=BCPConfig(budget=32),
            seed=0,
        )
        if not fast:
            scenario.overlay.router.set_path_cache(False)
        outcomes = [
            self.outcome(scenario.net.compose(r, budget=32))
            for r in scenario.requests.batch(self.N_REQUESTS)
        ]
        return outcomes, dict(scenario.net.ledger.count), dict(scenario.net.ledger.bytes)

    def outcome(self, result):
        return (
            result.success,
            structural_signature(result.best) if result.best else None,
            result.best_cost,
            result.probes_sent,
            result.candidates_examined,
            len(result.qualified),
            result.failure_reason,
        )

    def test_seeded_batch_is_bit_identical(self, monkeypatch):
        self.reset_global_ids(monkeypatch)
        fast_out, fast_count, fast_bytes = self.run_batch(True, monkeypatch)
        self.reset_global_ids(monkeypatch)
        slow_out, slow_count, slow_bytes = self.run_batch(False, monkeypatch)
        assert sum(1 for o in fast_out if o[0]) > self.N_REQUESTS // 2
        for i, (f, s) in enumerate(zip(fast_out, slow_out)):
            assert f == s, f"request {i} diverged"
        assert fast_count == slow_count
        assert fast_bytes == slow_bytes
