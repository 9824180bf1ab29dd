"""The composition strategy registry and its algorithms.

Three pillars: (1) the registry resolves every advertised name and the
docs never drift from it; (2) the BCP adapter is *bit-identical* to the
direct BCP path on a seeded 200-request replay — strategies are a
dispatch layer, not a behaviour change; (3) the new anytime composers
(``backtrack``, ``decompose``) return valid, QoS-qualified graphs on
large DAGs and match the exact optimum where the optimum is computable.
"""

import itertools
import math
import re
import pathlib

import pytest

from repro.core.baselines import OptimalComposer, SearchSpaceExceeded
from repro.core.bcp import BCPConfig
from repro.core.cost import psi_cost
from repro.core.function_graph import FunctionGraph
from repro.core.service_graph import ServiceGraph
from repro.core.strategies import (
    UnknownStrategyError,
    create_strategy,
    get_strategy,
    strategy_names,
)
from repro.workload.generator import RequestConfig
from repro.workload.largegraph import LargeGraphConfig, largegraph_world
from repro.workload.scenarios import simulation_testbed

from worlds import MicroWorld, micro_context

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

EXPECTED_NAMES = {
    "backtrack",
    "bcp",
    "centralized",
    "decompose",
    "optimal",
    "random",
    "static",
}


def structural_signature(graph):
    return (
        graph.pattern.edges,
        frozenset((fn, m.peer) for fn, m in graph.assignment.items()),
    )


def populated_micro_world():
    """3 functions × 2–3 candidates each — exhaustively checkable."""
    world = MicroWorld(n_peers=8)
    world.place("fa", 2, delay=0.004, cpu=12.0)
    world.place("fa", 3, delay=0.008, cpu=6.0)
    world.place("fb", 4, delay=0.006, cpu=10.0)
    world.place("fb", 5, delay=0.003, cpu=14.0)
    world.place("fb", 6, delay=0.010, cpu=4.0)
    world.place("fc", 1, delay=0.005, cpu=8.0)
    world.place("fc", 6, delay=0.002, cpu=16.0)
    return world


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_advertised_names_resolve(self):
        assert EXPECTED_NAMES <= set(strategy_names())
        for name in strategy_names():
            cls = get_strategy(name)
            assert cls.name == name

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(UnknownStrategyError, match="backtrack"):
            get_strategy("definitely-not-a-strategy")

    def test_only_bcp_runs_without_global_view(self):
        local = [n for n in strategy_names() if not get_strategy(n).requires_global_view]
        assert local == ["bcp"]

    def test_docs_listed_strategies_resolve(self):
        """Every `name` in the ARCHITECTURE strategy table must exist —
        the same drift gate CI applies to the docs."""
        text = (DOCS / "ARCHITECTURE.md").read_text()
        rows = re.findall(r"^\|\s*`([a-z]+)`\s*\|", text, flags=re.MULTILINE)
        assert set(rows) >= EXPECTED_NAMES
        for name in rows:
            get_strategy(name)  # raises on drift

    def test_spidernet_use_composer_roundtrip(self):
        world = largegraph_world(LargeGraphConfig(n_functions=5, seed=0), n_peers=10, n_ip=60)
        strategy = world.net.use_composer("backtrack")
        assert world.net.composer is strategy
        assert world.net.use_composer(None) is None
        assert world.net.composer is None


# ----------------------------------------------------------------------
# BCP adapter: bit-identical to the direct path
# ----------------------------------------------------------------------
class TestBCPAdapterEquivalence:
    N_REQUESTS = 200

    @staticmethod
    def reset_global_ids(monkeypatch):
        from repro.core import probe as probe_mod
        from repro.core import request as request_mod
        from repro.services import component as component_mod

        monkeypatch.setattr(component_mod, "_component_ids", itertools.count(1))
        monkeypatch.setattr(request_mod, "_request_ids", itertools.count(1))
        monkeypatch.setattr(probe_mod, "_probe_ids", itertools.count(1))

    def run_batch(self, via_registry: bool):
        scenario = simulation_testbed(
            n_ip=300,
            n_peers=60,
            n_functions=15,
            request_config=RequestConfig(function_count=(3, 3)),
            bcp_config=BCPConfig(budget=32),
            seed=0,
        )
        if via_registry:
            scenario.net.use_composer("bcp")
        outcomes = [
            self.outcome(scenario.net.compose(r, budget=32))
            for r in scenario.requests.batch(self.N_REQUESTS)
        ]
        return outcomes, dict(scenario.net.ledger.count)

    def outcome(self, result):
        # everything observable except phases (the adapter adds ops_*)
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
        direct_out, direct_count = self.run_batch(False)
        self.reset_global_ids(monkeypatch)
        registry_out, registry_count = self.run_batch(True)
        assert sum(1 for o in direct_out if o[0]) > self.N_REQUESTS // 2
        for i, (d, r) in enumerate(zip(direct_out, registry_out)):
            assert d == r, f"request {i} diverged through the registry"
        assert direct_count == registry_count

    def test_adapter_adds_profiling_keys(self):
        world = populated_micro_world()
        ctx = micro_context(world)
        strategy = create_strategy("bcp", ctx)
        request = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        result = strategy.compose(request, budget=16)
        assert result.success
        assert "ops_probes_sent" in result.phases


# ----------------------------------------------------------------------
# exactness: backtrack / decompose vs the enumerated optimum
# ----------------------------------------------------------------------
class TestExactness:
    def brute_force_cost(self, world, request):
        duplicates = {
            fn: world.registry.duplicates(fn)
            for fn in request.function_graph.functions
        }
        best = math.inf
        fns = list(request.function_graph.functions)
        for combo in itertools.product(*(duplicates[f] for f in fns)):
            graph = ServiceGraph(
                pattern=request.function_graph,
                assignment=dict(zip(fns, combo)),
                source_peer=request.source_peer,
                dest_peer=request.dest_peer,
                base_bandwidth=request.bandwidth,
            )
            if not request.qos.satisfied_by(graph.end_to_end_qos(world.overlay)):
                continue
            best = min(best, psi_cost(graph, world.pool))
        return best

    def test_backtrack_matches_brute_force(self):
        world = populated_micro_world()
        request = world.request(FunctionGraph.linear(["fa", "fb", "fc"]), source=0, dest=7)
        expected = self.brute_force_cost(world, request)
        strategy = create_strategy("backtrack", micro_context(world))
        result = strategy.compose(request)
        assert result.success
        assert result.best_cost == pytest.approx(expected)

    def test_backtrack_matches_optimal_composer(self):
        world = populated_micro_world()
        request = world.request(FunctionGraph.linear(["fa", "fb", "fc"]), source=0, dest=7)
        optimal = OptimalComposer(world.overlay, world.pool, world.registry)
        # confirm=False: admission would allocate the winner's resources
        # and skew the second composer's ψλ evaluation
        opt = optimal.compose(request, confirm=False)
        bt = create_strategy("backtrack", micro_context(world)).compose(
            request, confirm=False
        )
        assert opt.success and bt.success
        assert bt.best_cost == pytest.approx(opt.best_cost)

    def test_decompose_exact_when_one_partition_covers_all(self):
        world = populated_micro_world()
        request = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=7)
        expected = self.brute_force_cost(world, request)
        strategy = create_strategy(
            "decompose", micro_context(world),
            partition_size=8, per_partition_k=32, beam_width=32,
        )
        result = strategy.compose(request)
        assert result.success
        assert result.best_cost == pytest.approx(expected)

    def test_decompose_fallback_does_not_prepare_candidates_again(self):
        world = populated_micro_world()
        world.place("fa", 2, delay=0.009, cpu=20.0)  # dominated by the fa already on peer 2
        request = world.request(FunctionGraph.linear(["fa", "fb", "fc"]), source=0, dest=7)
        bt = create_strategy("backtrack", micro_context(world)).compose(
            request, confirm=False
        )
        # three one-function segments and a stitch budget that dies on
        # the second: nothing qualified, so the exact fallback runs
        dc = create_strategy(
            "decompose", micro_context(world), partition_size=1, stitch_node_limit=1
        ).compose(request, confirm=False)
        assert dc.phases["ops_fallback_search"] == 1
        assert bt.phases["ops_pruned_dominated"] == 1
        assert dc.phases["ops_pruned_dominated"] == 1
        assert dc.best_cost == bt.best_cost


# ----------------------------------------------------------------------
# OptimalComposer: pruning keeps exactness, the guard keeps it honest
# ----------------------------------------------------------------------
class TestOptimalComposer:
    def test_search_space_guard_raises_clearly(self):
        world = populated_micro_world()
        request = world.request(FunctionGraph.linear(["fa", "fb", "fc"]), source=0, dest=7)
        optimal = OptimalComposer(
            world.overlay, world.pool, world.registry, max_search_space=2
        )
        with pytest.raises(SearchSpaceExceeded, match="backtrack"):
            optimal.compose(request)

    def test_guard_triggers_on_generated_large_graphs(self):
        world = largegraph_world(
            LargeGraphConfig(n_functions=20, candidate_density=3, seed=0),
            n_peers=20, n_ip=100,
        )
        strategy = create_strategy("optimal", world.net.strategy_context())
        with pytest.raises(SearchSpaceExceeded):
            strategy.compose(world.request)

    def test_pruned_search_still_finds_the_optimum(self):
        world = populated_micro_world()
        request = world.request(FunctionGraph.linear(["fa", "fb", "fc"]), source=0, dest=7)
        optimal = OptimalComposer(world.overlay, world.pool, world.registry)
        result = optimal.compose(request, confirm=False)
        assert result.success
        expected = TestExactness().brute_force_cost(world, request)
        assert result.best_cost == pytest.approx(expected)
        # pruning counters prove the exhaustive walk was actually cut
        assert result.phases.get("ops_pruned_bound", 0) > 0


# ----------------------------------------------------------------------
# large generated DAGs: every strategy behaves, anytime ones deliver
# ----------------------------------------------------------------------
class TestLargeGraphValidity:
    @pytest.fixture(scope="class")
    def world(self):
        return largegraph_world(
            LargeGraphConfig(
                kind="layered", n_functions=24, candidate_density=3, seed=4
            ),
            n_peers=24,
            n_ip=120,
        )

    def assert_valid(self, result, request):
        if not result.success:
            return
        graph = result.best
        assert graph is not None
        assert set(graph.assignment) == set(request.function_graph.functions)
        for fn, meta in graph.assignment.items():
            assert meta.function == fn
        assert request.qos.satisfied_by(result.best_qos)

    @pytest.mark.parametrize("name", ["backtrack", "decompose"])
    def test_anytime_strategies_compose_large_dags(self, world, name):
        options = {"node_limit": 60_000} if name == "backtrack" else {}
        strategy = create_strategy(name, world.net.strategy_context(), **options)
        result = strategy.compose(world.request, confirm=False)
        assert result.success, result.failure_reason
        self.assert_valid(result, world.request)

    @pytest.mark.parametrize("name", ["bcp", "random", "static"])
    def test_remaining_strategies_return_wellformed_results(self, world, name):
        strategy = create_strategy(name, world.net.strategy_context())
        result = strategy.compose(world.request, confirm=False)
        # success is not required at this depth — validity of whatever
        # comes back is
        self.assert_valid(result, world.request)

    def test_centralized_guard_declines_large_dags(self, world):
        """Centralized enumerates the full candidate product (3^24 here) —
        the size guard must refuse instead of melting the machine."""
        strategy = create_strategy("centralized", world.net.strategy_context())
        with pytest.raises(SearchSpaceExceeded, match="backtrack"):
            strategy.compose(world.request, confirm=False)


# ----------------------------------------------------------------------
# experiment harness integration
# ----------------------------------------------------------------------
class TestExperimentIntegration:
    def test_fig8_runs_baselines_through_registry(self):
        from repro.experiments.fig8_success_ratio import Fig8Config, run_fig8

        cfg = Fig8Config(
            n_ip=80, n_peers=16, n_functions=6, workloads=(2,),
            duration=4, probing_fractions=(0.2,), seed=1,
        )
        result = run_fig8(cfg)
        labels = {s.label for s in result.series}
        assert {"probing-0.2", "optimal", "random", "static"} <= labels
        for s in result.series:
            assert len(s.as_rows()) == 1
