"""Tests for the decentralized trust extension (§8 future work)."""

import numpy as np
import pytest

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.core.function_graph import FunctionGraph
from repro.trust.malice import MaliciousPopulation
from repro.trust.reputation import BetaReputation, TrustManager

from worlds import MicroWorld


class TestBetaReputation:
    def test_no_evidence_neutral(self):
        rep = BetaReputation()
        assert rep.expectation == 0.5
        assert rep.confidence == 0.0

    def test_positive_evidence_raises_trust(self):
        rep = BetaReputation()
        for _ in range(8):
            rep.record(True)
        assert rep.expectation > 0.85

    def test_negative_evidence_lowers_trust(self):
        rep = BetaReputation()
        for _ in range(8):
            rep.record(False)
        assert rep.expectation < 0.15

    def test_confidence_grows_with_samples(self):
        rep = BetaReputation()
        confs = []
        for _ in range(5):
            rep.record(True)
            confs.append(rep.confidence)
        assert confs == sorted(confs)
        assert all(0 <= c < 1 for c in confs)

    def test_decay_reduces_evidence(self):
        rep = BetaReputation(alpha=10.0, beta=0.0)
        rep.decayed(0.5)
        assert rep.alpha == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaReputation().record(True, weight=-1.0)
        with pytest.raises(ValueError):
            BetaReputation().decayed(1.5)


class TestTrustManager:
    def test_stranger_is_neutral(self):
        tm = TrustManager()
        assert tm.trust(1, 2) == 0.5

    def test_self_trust_full(self):
        assert TrustManager().trust(3, 3) == 1.0

    def test_direct_experience_dominates(self):
        tm = TrustManager()
        for _ in range(10):
            tm.record_interaction(1, 2, positive=False)
        assert tm.trust(1, 2) < 0.2

    def test_recommendations_reach_strangers(self):
        tm = TrustManager()
        # evaluator 1 trusts peer 5 (good history); peer 5 knows 9 is bad
        for _ in range(10):
            tm.record_interaction(1, 5, positive=True)
            tm.record_interaction(5, 9, positive=False)
        # 1 has never met 9, but 5's recommendation should lower the score
        assert tm.trust(1, 9) < 0.4

    def test_recommendation_weighted_by_recommender_trust(self):
        tm = TrustManager()
        # the evaluator distrusts the liar, trusts the honest peer
        for _ in range(10):
            tm.record_interaction(1, 5, positive=True)   # honest
            tm.record_interaction(1, 6, positive=False)  # liar
            tm.record_interaction(5, 9, positive=False)  # honest: 9 is bad
            tm.record_interaction(6, 9, positive=True)   # liar: 9 is great
        assert tm.trust(1, 9) < 0.5  # honest recommendation wins

    def test_self_rating_ignored(self):
        tm = TrustManager()
        tm.record_interaction(4, 4, positive=True)
        assert tm.interactions(4) == []

    def test_session_feedback_rates_all(self):
        tm = TrustManager()
        tm.session_feedback(1, [2, 3, 4], positive=True)
        assert tm.interactions(1) == [2, 3, 4]

    def test_queries_charged(self):
        tm = TrustManager()
        for _ in range(5):
            tm.record_interaction(1, 5, positive=True)
            tm.record_interaction(5, 9, positive=False)
        tm.trust(1, 9)
        assert tm.ledger.count["trust_query"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrustManager(max_recommenders=-1)
        with pytest.raises(ValueError):
            TrustManager(decay=0.0)


class TestMaliciousPopulation:
    def test_random_fraction(self):
        pop = MaliciousPopulation.random(range(100), 0.3, rng=np.random.default_rng(0))
        assert len(pop.malicious) == 30

    def test_protected_never_malicious(self):
        pop = MaliciousPopulation.random(
            range(20), 1.0, rng=np.random.default_rng(0), protected={0, 1}
        )
        assert 0 not in pop.malicious and 1 not in pop.malicious

    def test_clean_peers_never_sabotage(self):
        pop = MaliciousPopulation(set(), 1.0)
        rng = np.random.default_rng(0)
        assert all(pop.session_outcome([1, 2, 3], rng) for _ in range(20))

    def test_certain_saboteur_always_fails(self):
        pop = MaliciousPopulation({7}, 1.0)
        rng = np.random.default_rng(0)
        assert not pop.session_outcome([1, 7, 3], rng)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            MaliciousPopulation.random(range(10), 1.5)
        with pytest.raises(ValueError):
            MaliciousPopulation({1}, sabotage_probability=2.0)


class TestBcpIntegration:
    def test_trust_weight_steers_selection(self):
        world = MicroWorld(
            config=BCPConfig(
                budget=4,
                nexthop_weights=NextHopWeights(
                    delay=0.1, bandwidth=0.1, failure=0.1, trust=0.7
                ),
            )
        )
        trusted = world.place("fa", peer=5, delay=0.05)
        shady = world.place("fa", peer=2, delay=0.01)  # closer AND faster
        world.place("fa", peer=3, delay=0.01)
        tm = TrustManager()
        for _ in range(10):
            tm.record_interaction(0, 2, positive=False)
            tm.record_interaction(0, 3, positive=False)
            tm.record_interaction(0, 5, positive=True)
        world.bcp.trust = tm
        # quota forces pruning to 2 of 3 candidates: the distrusted peers
        # should be pruned despite their better delay
        from repro.core.quota import UniformQuota

        world.bcp.config = BCPConfig(
            budget=1,
            quota_policy=UniformQuota(1),
            nexthop_weights=NextHopWeights(delay=0.1, bandwidth=0.1, failure=0.1, trust=0.7),
        )
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=7)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        assert result.best.component("fa").component_id == trusted.component_id

    def test_without_trust_manager_weight_ignored(self):
        world = MicroWorld(
            config=BCPConfig(
                nexthop_weights=NextHopWeights(delay=0.5, bandwidth=0.2, failure=0.2, trust=0.1)
            )
        )
        world.place("fa", peer=2)
        req = world.request(FunctionGraph.linear(["fa"]))
        assert world.bcp.compose(req, confirm=False).success

    def test_negative_trust_weight_rejected(self):
        with pytest.raises(ValueError):
            NextHopWeights(trust=-0.1)


class TestTrustExperiment:
    def test_learning_improves_clean_rate(self):
        from repro.experiments import TrustConfig, run_trust_extension

        cfg = TrustConfig(
            n_ip=150, n_peers=40, n_functions=8,
            sessions=120, batch=30, budget=16, seed=0,
        )
        result = run_trust_extension(cfg)
        baseline, aware = result.series
        # by the last batch the trust-aware scheme should be no worse
        assert aware.y[-1] >= baseline.y[-1] - 0.05
        # over the second half, once evidence has accumulated, it is
        # cleaner than the plain metric
        half = len(aware.y) // 2
        assert sum(aware.y[half:]) >= sum(baseline.y[half:])
        # and should have improved over its own first batch
        assert aware.y[-1] >= aware.y[0] - 0.05
