"""Tests for the SpiderNet facade wiring."""

import numpy as np
import pytest

from repro.core import SpiderNet
from repro.core.composition import default_peer_capacity
from repro.core.resources import ResourceVector
from repro.workload import PopulationConfig, generate_population


class TestBuild:
    def test_build_wires_everything(self, overlay):
        net = SpiderNet.build(overlay, rng=np.random.default_rng(0))
        assert net.overlay is overlay
        assert net.pool.overlay is overlay
        assert net.bcp.pool is net.pool
        assert net.sessions.bcp is net.bcp
        assert net.dht.alive_count() == overlay.n_peers
        assert net.churn is None

    def test_default_capacity_heterogeneous(self):
        caps = default_peer_capacity(20, rng=np.random.default_rng(0))
        cpus = {caps[p].get("cpu") for p in range(20)}
        assert len(cpus) > 1
        for p in range(20):
            assert 50.0 <= caps[p].get("cpu") <= 150.0
            assert 256.0 <= caps[p].get("memory") <= 1024.0

    def test_custom_capacity_respected(self, overlay):
        caps = {p: ResourceVector({"cpu": 7.0, "memory": 7.0}) for p in overlay.peers()}
        net = SpiderNet.build(overlay, rng=np.random.default_rng(0), peer_capacity=caps)
        assert net.pool.capacity(0).get("cpu") == 7.0

    def test_churn_wiring(self, overlay):
        net = SpiderNet.build(overlay, rng=np.random.default_rng(0), churn_rate=0.5)
        assert net.churn is not None
        net.start_churn()
        net.run(until=2.0)
        assert net.churn.failures > 0
        # DHT liveness tracks network liveness
        down = [p for p in overlay.peers() if not net.network.is_alive(p)]
        for p in down:
            assert not net.dht.is_alive(net.dht.node_of_peer[p])

    def test_start_churn_without_churn_raises(self, net):
        with pytest.raises(RuntimeError):
            net.start_churn()

    def test_shared_ledger(self, net):
        assert net.bcp.ledger is net.ledger
        assert net.dht.ledger is net.ledger


class TestDeployAndCompose:
    def test_deploy_registers_all(self, overlay):
        net = SpiderNet.build(overlay, rng=np.random.default_rng(0))
        pop = generate_population(
            overlay, PopulationConfig(n_functions=8), rng=np.random.default_rng(1)
        )
        net.deploy(pop)
        assert len(net.registry.functions()) > 0
        total = sum(len(net.registry.duplicates(f)) for f in net.registry.functions())
        assert total == len(pop)

    def test_compose_default_does_not_hold_resources(self, populated_net, request_gen):
        net, _ = populated_net
        result = net.compose(request_gen.next_request())
        if result.success:
            assert net.pool.active_tokens() == []

    def test_start_session_holds_until_teardown(self, populated_net, request_gen):
        net, _ = populated_net
        session = None
        for _ in range(10):
            session = net.start_session(request_gen.next_request())
            if session is not None:
                break
        assert session is not None
        assert net.pool.active_tokens()
        net.sessions.teardown(session.session_id)
        assert net.pool.active_tokens() == []


class TestAdaptiveBudgetIntegration:
    def test_policy_drives_budget_and_learns(self, populated_net, request_gen):
        from repro.core import AdaptiveBudgetPolicy, BudgetPolicyConfig

        net, _ = populated_net
        policy = AdaptiveBudgetPolicy(BudgetPolicyConfig(base=4, window=5))
        net.budget_policy = policy
        for _ in range(8):
            net.compose(request_gen.next_request())
        # outcomes were recorded (window fills and may adjust)
        assert len(policy._outcomes) <= 5

    def test_explicit_budget_bypasses_policy(self, populated_net, request_gen):
        from repro.core import AdaptiveBudgetPolicy, BudgetPolicyConfig

        net, _ = populated_net
        policy = AdaptiveBudgetPolicy(BudgetPolicyConfig(base=4))
        net.budget_policy = policy
        result = net.compose(request_gen.next_request(), budget=16)
        # record_outcome still called; probes bounded by the explicit budget
        assert result.candidates_examined <= 16
