"""Equivalence tests for the composition fast path.

The fast path (route reads off the router's rows, the pool's link lists,
wave-scoped discovery memoization) is only admissible if it is
*behaviour-preserving*: every test here pins an optimized code path
against a reference derivation, culminating in a seeded 200-request A/B
run with the discovery memo disabled.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.core.resources import ResourcePool, ResourceVector
from repro.discovery.registry import ServiceRegistry
from repro.perf import PhaseTimer
from repro.topology.overlay import Overlay
from repro.topology.routing import NoPathError, OverlayRouter
from repro.workload.generator import RequestConfig
from repro.workload.scenarios import simulation_testbed

from worlds import MicroWorld, fuzz_settings, grid_graph, micro_overlay


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
# route reads against a derivation from path() and the edge attributes
# ----------------------------------------------------------------------
# micro meshes (delay unit·|a − b|: a direct link ties a chain of shorter
# ones) and the unit-delay grid, re-priced on some links from a set of
# weights that tie whole paths exactly, ``inf`` pricing a link out
_WORLDS = st.one_of(
    st.tuples(st.just("micro"), st.integers(2, 7), st.sampled_from([0.010, 0.25, 1.0])),
    st.tuples(st.just("grid")),
)
_WEIGHTS = st.sampled_from([0.5, 1.0, 2.0, 3.0, math.inf])


def _overlay(world, overrides_of):
    graph = micro_overlay(world[1], world[2]).graph if world[0] == "micro" else grid_graph()
    links = sorted(tuple(sorted(e)) for e in graph.edges)
    overrides = {links[i % len(links)]: w for i, w in overrides_of}
    return Overlay(graph=graph, router=OverlayRouter(graph, delay_overrides=overrides))


class TestRouteReadsAgainstPath:
    @fuzz_settings(100)
    @given(world=_WORLDS, overrides=st.lists(st.tuples(st.integers(0, 99), _WEIGHTS), max_size=5))
    def test_links_indices_and_loss_are_the_path_s(self, world, overrides):
        overlay = _overlay(world, overrides)
        router, graph = overlay.router, overlay.graph
        order = router.link_order
        for a in router.peers:
            for b in router.peers:
                if not router.reachable(a, b):
                    with pytest.raises(NoPathError):
                        router.link_index_list(a, b)
                    assert router.path_loss_add(a, b) == math.inf
                    continue
                path = router.path(a, b)
                assert path[0] == a and path[-1] == b
                links = [tuple(sorted(hop)) for hop in zip(path, path[1:])]
                assert router.links(a, b) == links
                assert router.link_index_list(a, b) == [order.index(l) for l in links]
                assert router.path_loss_add(a, b) == sum(
                    float(graph.edges[l]["loss_add"]) for l in links
                )
                # the path is the one the distance row was summed along
                assert router.delay(a, b) == sum(router.link_delay(*l) for l in links)

    @fuzz_settings(60)
    @given(
        world=_WORLDS,
        overrides=st.lists(st.tuples(st.integers(0, 99), _WEIGHTS), max_size=5),
        steps=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from([1.5, 2.5, 4.0])),
            max_size=12,
        ),
    )
    def test_headroom_equals_the_bottleneck_under_random_claims(self, world, overrides, steps):
        overlay = _overlay(world, overrides)
        pool = ResourcePool(overlay, {p: ResourceVector({"cpu": 1.0}) for p in overlay.peers()})
        peers = overlay.peers()
        claims = {}

        def check():
            for a in peers:
                dsts = [b for b in peers if overlay.router.reachable(a, b)]
                want = [bottleneck(overlay, claims.values(), a, b) for b in dsts]
                assert pool.paths_available_bandwidth(a, dsts) == want
                assert [pool.path_available_bandwidth(a, b) for b in dsts] == want

        check()
        for n, (i, j, bw) in enumerate(steps):
            a, b = peers[i % len(peers)], peers[j % len(peers)]
            if n % 3 == 2 and claims:  # every third step frees the oldest claim
                token = next(iter(claims))
                pool.cancel(token)
                del claims[token]
            elif overlay.router.reachable(a, b) and pool.soft_allocate_path(n, a, b, bw):
                claims[n] = (a, b, bw)
            check()


# ----------------------------------------------------------------------
# link bandwidth store vs a test-side bottleneck
# ----------------------------------------------------------------------
def bottleneck(overlay, claims, a, b):
    """The oracle: the least of each path link's bandwidth minus the
    claims ``[(src, dst, bandwidth), ...]`` routed over it."""
    if a == b:
        return math.inf

    def links(src, dst):
        path = overlay.router.path(src, dst)
        return [tuple(sorted(hop)) for hop in zip(path, path[1:])]

    left = {l: overlay.graph.edges[l]["bandwidth"] for l in links(a, b)}
    for src, dst, bw in claims:
        for l in links(src, dst):
            if l in left:
                left[l] -= bw
    return max(min(left.values()), 0.0)


class TestPoolVectorizedEquivalence:
    def all_paths_match(self, world, claims):
        for a in range(6):
            for b in range(6):
                assert world.pool.path_available_bandwidth(a, b) == bottleneck(
                    world.overlay, claims, a, b
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
