"""Behavioural tests for the bounded composition probing protocol.

Uses the hand-built :class:`tests.worlds.MicroWorld` (full-mesh line
metric) so expected winners and QoS values can be computed by hand.
"""

import math

import pytest

from repro.core.baselines import OptimalComposer
from repro.core.bcp import BCP, BCPConfig, derive_next_functions
from repro.core.function_graph import FunctionGraph
from repro.core.quota import ReplicationProportionalQuota, UniformQuota

from worlds import MicroWorld, micro_context


def linear_ab():
    return FunctionGraph.linear(["fa", "fb"])


class TestDeriveNextFunctions:
    def test_initial_hop_sources(self):
        fg = FunctionGraph.linear(["a", "b"])
        cands = derive_next_functions(fg, None, frozenset())
        assert [(c[0], c[3]) for c in cands] == [("a", True)]

    def test_dependency_successors(self):
        fg = FunctionGraph.from_edges(
            "abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        )
        cands = derive_next_functions(fg, "a", frozenset())
        assert sorted(c[0] for c in cands) == ["b", "c"]
        assert all(c[3] for c in cands)

    def test_commutation_alternative_added(self):
        fg = FunctionGraph.linear(["a", "b", "c"], [("b", "c")])
        cands = derive_next_functions(fg, "a", frozenset())
        names = [c[0] for c in cands]
        assert names == ["b", "c"]
        alt = cands[1]
        assert not alt[3]  # not a dependency
        assert ("c", "b") in alt[1].edges  # pattern swapped
        assert frozenset({"b", "c"}) in alt[2]

    def test_commutation_disabled(self):
        fg = FunctionGraph.linear(["a", "b", "c"], [("b", "c")])
        cands = derive_next_functions(fg, "a", frozenset(), explore_commutations=False)
        assert [c[0] for c in cands] == ["b"]

    def test_applied_pair_not_reapplied(self):
        fg = FunctionGraph.linear(["a", "b", "c"], [("b", "c")])
        pair = frozenset({"b", "c"})
        swapped = fg.swap("b", "c")
        cands = derive_next_functions(swapped, "a", frozenset({pair}))
        assert [c[0] for c in cands] == ["c"]

    def test_sink_has_no_next(self):
        fg = FunctionGraph.linear(["a", "b"])
        assert derive_next_functions(fg, "b", frozenset()) == []


class TestLinearComposition:
    def test_selects_lowest_delay_component(self):
        world = MicroWorld(config=BCPConfig(budget=32, objective="delay"))
        fast = world.place("fa", peer=2, delay=0.001)
        slow = world.place("fa", peer=3, delay=0.300)
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=1)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fa").component_id == fast.component_id

    def test_end_to_end_qos_hand_computed(self):
        world = MicroWorld(config=BCPConfig(budget=8))
        world.place("fa", peer=4, delay=0.020)
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=1)
        result = world.bcp.compose(req, confirm=False)
        # 0 -> 4 (0.04) + service 0.02 + 4 -> 1 (0.03)
        assert result.best_qos.get("delay") == pytest.approx(0.04 + 0.02 + 0.03)

    def test_two_function_chain(self):
        world = MicroWorld(config=BCPConfig(budget=32))
        world.place("fa", peer=2)
        world.place("fa", peer=5)
        world.place("fb", peer=3)
        world.place("fb", peer=6)
        req = world.request(linear_ab(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert set(result.best.assignment) == {"fa", "fb"}
        # four combinations explored with enough budget
        assert result.candidates_examined == 4

    def test_failure_when_function_missing(self):
        world = MicroWorld()
        world.place("fa", peer=2)
        req = world.request(linear_ab())
        result = world.bcp.compose(req)
        assert not result.success
        assert result.failure_reason is not None

    def test_invalid_budget_rejected(self):
        world = MicroWorld()
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        with pytest.raises(ValueError):
            world.bcp.compose(req, budget=0)


class TestBudget:
    def setup_world(self, budget):
        world = MicroWorld(
            config=BCPConfig(
                budget=budget,
                quota_policy=ReplicationProportionalQuota(fraction=1.0, cap=10**6),
            )
        )
        for fn in ("fa", "fb"):
            for peer in (2, 3, 4, 5):
                world.place(fn, peer=peer)
        return world

    def test_candidates_bounded_by_budget(self):
        for budget in (1, 2, 4, 8):
            world = self.setup_world(budget)
            req = world.request(linear_ab(), source=0, dest=7)
            result = world.bcp.compose(req, confirm=False)
            assert result.candidates_examined <= budget

    def test_budget_one_single_path(self):
        world = self.setup_world(1)
        req = world.request(linear_ab(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.candidates_examined == 1

    def test_large_budget_explores_everything(self):
        world = self.setup_world(64)
        req = world.request(linear_ab(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.candidates_examined == 16  # 4 x 4

    def test_more_budget_never_worse(self):
        delays = []
        for budget in (1, 4, 16, 64):
            world = self.setup_world(budget)
            world.bcp.config = BCPConfig(
                budget=budget,
                quota_policy=ReplicationProportionalQuota(fraction=1.0, cap=10**6),
                objective="delay",
            )
            req = world.request(linear_ab(), source=0, dest=7)
            result = world.bcp.compose(req, confirm=False)
            delays.append(result.best_qos.get("delay"))
        assert delays == sorted(delays, reverse=True) or len(set(delays)) < len(delays)


class TestQoSPruning:
    def test_unreachable_bound_fails(self):
        world = MicroWorld()
        world.place("fa", peer=7, delay=0.5)
        req = world.request(
            FunctionGraph.linear(["fa"]), source=0, dest=1, delay_bound=0.010
        )
        result = world.bcp.compose(req)
        assert not result.success
        assert "no probe" in result.failure_reason

    def test_pruning_drops_bad_paths_keeps_good(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        world.place("fa", peer=2, delay=0.001)  # near: qualifies
        world.place("fa", peer=7, delay=0.400)  # far + slow: pruned
        req = world.request(
            FunctionGraph.linear(["fa"]), source=0, dest=1, delay_bound=0.100
        )
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fa").peer == 2
        assert len(result.qualified) == 1


class TestResourceChecks:
    def test_oversized_component_not_admitted(self):
        world = MicroWorld(cpu=50.0)
        world.place("fa", peer=2, cpu=60.0)  # cannot fit anywhere
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req)
        assert not result.success

    def test_feasible_alternative_wins(self):
        world = MicroWorld(cpu=50.0)
        world.place("fa", peer=2, cpu=60.0)
        ok = world.place("fa", peer=5, cpu=10.0)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fa").component_id == ok.component_id

    def test_bandwidth_infeasible_stream_fails(self):
        world = MicroWorld()  # links carry 10 Mbps
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]), bandwidth=50.0)
        result = world.bcp.compose(req)
        assert not result.success

    def test_confirm_holds_resources(self):
        world = MicroWorld()
        spec = world.place("fa", peer=2, cpu=30.0)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=True)
        assert result.success
        assert world.pool.available(2).get("cpu") == pytest.approx(70.0)
        assert result.session_tokens
        for token in result.session_tokens:
            world.pool.release(token)
        assert world.pool.available(2).get("cpu") == pytest.approx(100.0)

    def test_no_confirm_releases_everything(self):
        world = MicroWorld()
        world.place("fa", peer=2, cpu=30.0)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert world.pool.available(2).get("cpu") == pytest.approx(100.0)
        assert world.pool.active_tokens() == []

    def test_failed_compose_leaves_no_tokens(self):
        world = MicroWorld()
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa", "missing"]))
        result = world.bcp.compose(req)
        assert not result.success
        assert world.pool.active_tokens() == []

    def test_losing_candidates_released(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        world.place("fa", peer=2, cpu=20.0)
        world.place("fa", peer=3, cpu=20.0)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=True)
        assert result.success
        winner_peer = result.best.component("fa").peer
        loser_peer = 3 if winner_peer == 2 else 2
        assert world.pool.available(loser_peer).get("cpu") == pytest.approx(100.0)
        assert world.pool.available(winner_peer).get("cpu") == pytest.approx(80.0)


class TestLiveness:
    def test_dead_peer_components_skipped(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        dead = world.place("fa", peer=2, delay=0.0001)
        alive = world.place("fa", peer=5, delay=0.1)
        world.kill(2)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fa").component_id == alive.component_id


class TestQualityCompatibility:
    def test_incompatible_formats_filtered(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        world.place("fa", peer=2, output_formats=("yuv",))
        bad = world.place("fb", peer=3, input_formats=("h264",))
        good = world.place("fb", peer=4, input_formats=("yuv",))
        req = world.request(linear_ab(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fb").component_id == good.component_id

    def test_all_incompatible_fails(self):
        world = MicroWorld()
        world.place("fa", peer=2, output_formats=("yuv",))
        world.place("fb", peer=3, input_formats=("h264",))
        req = world.request(linear_ab())
        assert not world.bcp.compose(req).success


class TestDagComposition:
    def diamond(self):
        return FunctionGraph.from_edges(
            ["fa", "fb", "fc", "fd"],
            [("fa", "fb"), ("fa", "fc"), ("fb", "fd"), ("fc", "fd")],
        )

    def test_diamond_composes_complete_graph(self):
        world = MicroWorld(config=BCPConfig(budget=32))
        for fn, peers in (("fa", (2,)), ("fb", (3, 4)), ("fc", (5,)), ("fd", (6,))):
            for p in peers:
                world.place(fn, peer=p)
        req = world.request(self.diamond(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert set(result.best.assignment) == {"fa", "fb", "fc", "fd"}

    def test_merged_graphs_agree_on_shared_functions(self):
        world = MicroWorld(config=BCPConfig(budget=64))
        world.place("fa", peer=2)
        world.place("fa", peer=3)
        world.place("fb", peer=4)
        world.place("fc", peer=5)
        world.place("fd", peer=6)
        req = world.request(self.diamond(), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        # every qualified merged graph must assign fa and fd consistently
        for cand in result.qualified:
            assert set(cand.graph.assignment) == {"fa", "fb", "fc", "fd"}

    def test_missing_branch_function_fails(self):
        world = MicroWorld(config=BCPConfig(budget=32))
        for fn, p in (("fa", 2), ("fb", 3), ("fd", 6)):
            world.place(fn, peer=p)
        # fc missing: branch fa->fc->fd can never be probed
        req = world.request(self.diamond(), source=0, dest=7)
        assert not world.bcp.compose(req).success


class TestCommutationExploration:
    def test_swapped_order_can_win(self):
        # fb only exists far from the source, fc exists near it: the
        # swapped order fc -> fb shortens the walk
        world = MicroWorld(
            config=BCPConfig(budget=32, objective="delay"), unit_delay=0.010
        )
        fg = FunctionGraph.linear(["fa", "fb", "fc"], [("fb", "fc")])
        world.place("fa", peer=1)
        world.place("fb", peer=6)
        world.place("fc", peer=2)
        req = world.request(fg, source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        orders = {
            tuple(c.graph.pattern.topological_order()) for c in result.qualified
        }
        assert ("fa", "fc", "fb") in orders  # swapped pattern explored
        assert result.best.pattern.topological_order() == ["fa", "fc", "fb"]

    def test_exploration_off_keeps_original_order(self):
        world = MicroWorld(
            config=BCPConfig(budget=32, explore_commutations=False, objective="delay")
        )
        fg = FunctionGraph.linear(["fa", "fb", "fc"], [("fb", "fc")])
        world.place("fa", peer=1)
        world.place("fb", peer=6)
        world.place("fc", peer=2)
        req = world.request(fg, source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.pattern.topological_order() == ["fa", "fb", "fc"]


class TestCollectTimeout:
    def test_late_probes_discarded(self):
        world = MicroWorld(config=BCPConfig(budget=8, collect_timeout=1e-6))
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req)
        assert not result.success  # nothing arrives within the window

    def test_generous_timeout_succeeds(self):
        world = MicroWorld(config=BCPConfig(budget=8, collect_timeout=60.0))
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        assert world.bcp.compose(req, confirm=False).success


class TestAgainstOptimal:
    def test_full_budget_matches_exhaustive_search(self):
        world = MicroWorld(
            config=BCPConfig(
                budget=256,
                quota_policy=ReplicationProportionalQuota(fraction=1.0, cap=10**6),
                objective="delay",
            )
        )
        import numpy as np
        rng = np.random.default_rng(9)
        for fn in ("fa", "fb"):
            for peer in (2, 3, 4, 5):
                world.place(fn, peer=peer, delay=float(rng.uniform(0.001, 0.2)))
        req = world.request(linear_ab(), source=0, dest=7)
        bcp_result = world.bcp.compose(req, confirm=False)
        opt = OptimalComposer(micro_context(world))
        opt_result = opt.compose(req, confirm=False)
        assert bcp_result.success and opt_result.success
        assert bcp_result.best_qos.get("delay") == pytest.approx(
            opt_result.best_qos.get("delay")
        )


class TestResultBookkeeping:
    def test_phases_recorded(self):
        world = MicroWorld()
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        assert {"discovery", "composition", "setup_ack"} <= set(result.phases)
        assert result.setup_time > 0

    def test_probes_counted(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        world.place("fa", peer=2)
        world.place("fa", peer=3)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        # 2 probes to components + 2 final hops
        assert result.probes_sent == 4

    def test_backup_candidates_exclude_best(self):
        world = MicroWorld(config=BCPConfig(budget=16))
        for p in (2, 3, 4):
            world.place("fa", peer=p)
        req = world.request(FunctionGraph.linear(["fa"]))
        result = world.bcp.compose(req, confirm=False)
        best_sig = result.best.signature()
        assert all(c.graph.signature() != best_sig for c in result.backup_candidates)
        assert len(result.backup_candidates) == len(result.qualified) - 1

    def test_ledger_categories(self):
        world = MicroWorld()
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        world.bcp.compose(req, confirm=False)
        assert world.bcp.ledger.count["bcp_probe"] > 0
        assert world.bcp.ledger.count["bcp_ack"] > 0


class TestCommutationInsideDagBranch:
    """The subtlest merge case: a commutation pair inside one branch of a
    DAG.  Probes that swapped the pair carry a different effective
    pattern, while probes on the *other* branch are pattern-agnostic —
    the destination must merge them under the swapped pattern too."""

    def graph(self):
        return FunctionGraph.from_edges(
            ["fa", "fb1", "fb2", "fc", "fd"],
            [("fa", "fb1"), ("fb1", "fb2"), ("fb2", "fd"), ("fa", "fc"), ("fc", "fd")],
            commutations=[("fb1", "fb2")],
        )

    def test_swapped_branch_merges_with_sibling(self):
        world = MicroWorld(
            n_peers=12, config=BCPConfig(budget=64, objective="delay")
        )
        world.place("fa", peer=2)
        # fb1 far, fb2 near: the swapped order fb2->fb1 shortens the walk
        world.place("fb1", peer=9)
        world.place("fb2", peer=3)
        world.place("fc", peer=5)
        world.place("fd", peer=10)
        req = world.request(self.graph(), source=0, dest=11)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        orders = {
            tuple(c.graph.pattern.topological_order()) for c in result.qualified
        }
        # both the original and the swapped pattern produced complete,
        # merged service graphs (fc-branch probes joined each variant)
        assert any(o.index("fb2") < o.index("fb1") for o in orders)
        assert any(o.index("fb1") < o.index("fb2") for o in orders)
        for cand in result.qualified:
            assert set(cand.graph.assignment) == {"fa", "fb1", "fb2", "fc", "fd"}
