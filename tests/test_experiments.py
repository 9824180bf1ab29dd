"""Smoke + shape tests for the experiment drivers (tiny configs)."""

import math

import pytest

from repro.experiments import (
    AblationConfig,
    Fig8Config,
    Fig9Config,
    Fig10Config,
    Fig11Config,
    HeldSessions,
    OverheadConfig,
    Series,
    ablate_commutations,
    ablate_soft_allocation,
    format_table,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_overhead,
)
from repro.core.resources import ResourcePool, ResourceVector
from repro.core.session import SessionManagerStats


class TestHarness:
    def test_series_add(self):
        s = Series("x")
        s.add(1, 2.0)
        assert s.as_rows() == [(1.0, 2.0)]

    def test_format_table_alignment(self):
        a, b = Series("alpha"), Series("b")
        for x in (1, 2):
            a.add(x, x * 0.5)
            b.add(x, x * 2.0)
        table = format_table("x", [a, b])
        lines = table.splitlines()
        assert "alpha" in lines[0] and "b" in lines[0]
        assert len(lines) == 4

    def test_format_table_mismatched_x_rejected(self):
        a, b = Series("a"), Series("b")
        a.add(1, 1)
        b.add(2, 1)
        with pytest.raises(ValueError):
            format_table("x", [a, b])

    def test_format_table_nan_dash(self):
        s = Series("a")
        s.add(1, float("nan"))
        assert "-" in format_table("x", [s]).splitlines()[-1]

    def test_held_sessions_release_due(self, overlay):
        caps = {p: ResourceVector({"cpu": 10.0, "memory": 10.0}) for p in overlay.peers()}
        pool = ResourcePool(overlay, caps)
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 5.0}))
        pool.confirm("t1")
        held = HeldSessions(pool)
        held.admit(["t1"], release_at=5.0)
        assert held.release_due(4.0) == 0
        assert pool.available(0).get("cpu") == 5.0
        assert held.release_due(5.0) == 1
        assert pool.available(0).get("cpu") == 10.0

    def test_held_sessions_release_all(self, overlay):
        caps = {p: ResourceVector({"cpu": 10.0, "memory": 10.0}) for p in overlay.peers()}
        pool = ResourcePool(overlay, caps)
        pool.soft_allocate_peer("t1", 0, ResourceVector({"cpu": 5.0}))
        held = HeldSessions(pool)
        held.admit(["t1"], release_at=math.inf)
        held.release_all()
        assert pool.available(0).get("cpu") == 10.0


TINY_FIG8 = Fig8Config(
    n_ip=120, n_peers=24, n_functions=8, workloads=(1, 3),
    duration=6, probing_fractions=(0.2,), max_budget=40, seed=0,
)


class TestFig8:
    def test_runs_and_shapes(self):
        result = run_fig8(TINY_FIG8)
        labels = [s.label for s in result.series]
        assert labels == ["probing-0.2", "optimal", "random", "static"]
        for s in result.series:
            assert list(s.x) == [1.0, 3.0]
            for y in s.y:
                assert 0.0 <= y <= 1.0

    def test_informed_beats_oblivious(self):
        result = run_fig8(TINY_FIG8)
        by_label = {s.label: s for s in result.series}
        # averaged over workloads, QoS-aware schemes beat the static one
        mean = lambda s: sum(s.y) / len(s.y)
        assert mean(by_label["probing-0.2"]) >= mean(by_label["static"])
        assert mean(by_label["optimal"]) >= mean(by_label["static"])

    def test_messages_tracked(self):
        result = run_fig8(TINY_FIG8)
        assert result.messages_per_request["probing-0.2"] > 0
        assert result.table()


class TestFig9:
    def test_recovery_reduces_visible_failures(self):
        cfg = Fig9Config(
            n_ip=120, n_peers=30, n_functions=8, duration_minutes=12,
            target_sessions=8, budget=32, seed=0,
        )
        result = run_fig9(cfg)
        without, with_rec = result.series
        assert without.label == "without recovery"
        assert sum(with_rec.y) <= sum(without.y)
        assert result.stats_with.failures >= 0
        assert result.table()

    def test_backups_maintained(self):
        cfg = Fig9Config(
            n_ip=120, n_peers=30, n_functions=8, duration_minutes=8,
            target_sessions=6, budget=32, seed=0,
        )
        result = run_fig9(cfg)
        assert result.mean_backups >= 0.0

    def test_golden_run_is_pinned(self):
        # Sessions, churn, maintenance and arrivals fall due at the same
        # virtual instants here, so these numbers also pin the order in
        # which simultaneous events run: first scheduled, first run.
        result = run_fig9(Fig9Config(
            n_ip=300, n_peers=80, n_functions=12, duration_minutes=30, target_sessions=20,
        ))
        assert result.stats_with == SessionManagerStats(
            sessions_established=27, sessions_rejected=0, failures=6,
            proactive_recoveries=5, reactive_recoveries=1, unrecovered_failures=0,
            recovery_times=[
                1.0664701906340426, 0.5928928708964186, 0.6194646752706633,
                0.5981829094727243, 0.5830192380759066, 0.6570352789795445,
            ],
            backup_counts=[
                2, 2, 3, 3, 2, 3, 2, 3, 3, 3, 2, 2, 3, 3, 2, 2, 3, 2, 2, 3, 2, 2, 2, 2, 2, 3, 3,
            ],
        )
        assert result.stats_without == SessionManagerStats(
            sessions_established=31, sessions_rejected=0, failures=5,
            proactive_recoveries=0, reactive_recoveries=0, unrecovered_failures=5,
            recovery_times=[], backup_counts=[0] * 31,
        )
        without, with_rec = result.series
        assert without.x == with_rec.x == [float(t) for t in range(30)]
        visible = [0.0] * 30
        visible[4], visible[16], visible[24] = 1.0, 1.0, 3.0
        assert without.y == visible
        assert with_rec.y == [0.0] * 30


class TestFig10:
    def test_setup_time_grows_with_functions(self):
        cfg = Fig10Config(n_peers=24, function_numbers=(2, 4), requests_per_point=6, seed=0)
        result = run_fig10(cfg)
        total = next(s for s in result.series if s.label.startswith("total"))
        assert total.y[0] < total.y[-1]
        assert all(y > 0 for y in total.y)

    def test_phases_sum_to_total(self):
        cfg = Fig10Config(n_peers=24, function_numbers=(3,), requests_per_point=6, seed=0)
        result = run_fig10(cfg)
        disc, comp, total = (s.y[0] for s in result.series)
        assert total == pytest.approx(disc + comp, rel=1e-6)


class TestFig11:
    def test_budget_sweep_shape(self):
        cfg = Fig11Config(n_peers=24, budgets=(4, 64), requests_per_point=6, seed=0)
        result = run_fig11(cfg)
        random_s, spider_s, optimal_s = result.series
        # more budget never hurts (same fixed request sample)
        assert spider_s.y[-1] <= spider_s.y[0] + 1e-9
        # optimal lower-bounds SpiderNet; random upper-bounds it (on average)
        assert optimal_s.y[-1] <= spider_s.y[-1] + 1e-6
        assert result.optimal_probes_mean > 0


class TestOverhead:
    def test_centralized_order_of_magnitude_worse(self):
        cfg = OverheadConfig(
            n_ip=120, n_peers=40, n_functions=10, duration=6, workload=2, seed=0
        )
        result = run_overhead(cfg)
        assert result.overhead_ratio > 5.0
        assert result.requests == 12
        assert result.table()

    def test_breakdowns_populated(self):
        cfg = OverheadConfig(
            n_ip=120, n_peers=30, n_functions=8, duration=4, workload=2, seed=0
        )
        result = run_overhead(cfg)
        assert result.bcp_breakdown["bcp_probe"] > 0
        assert result.centralized_breakdown["state_update"] > 0


class TestAblations:
    def test_commutation_ablation_runs(self):
        out = ablate_commutations(
            AblationConfig(n_ip=120, n_peers=24, n_functions=8, requests=8, budget=16)
        )
        assert "with_commutations" in out and "without_commutations" in out

    def test_soft_allocation_ablation_direction(self):
        out = ablate_soft_allocation(
            AblationConfig(n_ip=120, n_peers=24, n_functions=8, requests=16, budget=16)
        )
        assert out["soft_allocation_conflicted"] == 0.0
        assert out["no_soft_allocation_conflicted"] >= 0.0

    def test_adaptive_budget_ablation(self):
        from repro.experiments import ablate_adaptive_budget

        out = ablate_adaptive_budget(
            AblationConfig(n_ip=120, n_peers=24, n_functions=8, requests=12, budget=16)
        )
        assert 0.0 <= out["adaptive_success"] <= 1.0
        assert out["adaptive_mean_budget"] > 0
        assert out["fixed_budget"] >= 1
