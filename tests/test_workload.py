"""Tests for population and request generation."""

import numpy as np
import pytest

from repro.core.qos import additive_to_loss
from repro.workload.generator import (
    PopulationConfig,
    RequestConfig,
    RequestGenerator,
    function_names,
    generate_population,
    media_population,
)
from repro.workload.scenarios import planetlab_testbed, simulation_testbed


class TestFunctionNames:
    def test_count_and_format(self):
        names = function_names(200)
        assert len(names) == 200
        assert names[0] == "F001" and names[-1] == "F200"

    def test_width_grows(self):
        assert function_names(2000)[-1] == "F2000"


class TestGeneratePopulation:
    def test_components_per_peer_range(self, overlay):
        cfg = PopulationConfig(n_functions=20, components_per_peer=(1, 3))
        pop = generate_population(overlay, cfg, rng=np.random.default_rng(0))
        per_peer = {}
        for spec in pop:
            per_peer[spec.peer] = per_peer.get(spec.peer, 0) + 1
        assert set(per_peer) == set(overlay.peers())
        assert all(1 <= c <= 3 for c in per_peer.values())

    def test_functions_drawn_from_catalogue(self, overlay):
        cfg = PopulationConfig(n_functions=10)
        pop = generate_population(overlay, cfg, rng=np.random.default_rng(0))
        catalogue = set(function_names(10))
        assert {s.function for s in pop} <= catalogue

    def test_qp_within_ranges(self, overlay):
        cfg = PopulationConfig(n_functions=10, service_delay_range=(0.01, 0.02))
        pop = generate_population(overlay, cfg, rng=np.random.default_rng(0))
        for s in pop:
            assert 0.01 <= s.qp.get("delay") <= 0.02
            assert additive_to_loss(s.qp.get("loss")) <= 0.002 + 1e-9

    def test_distinct_functions_per_peer(self, overlay):
        pop = generate_population(
            overlay, PopulationConfig(n_functions=30), rng=np.random.default_rng(1)
        )
        by_peer = {}
        for s in pop:
            by_peer.setdefault(s.peer, []).append(s.function)
        for fns in by_peer.values():
            assert len(fns) == len(set(fns))

    def test_bad_range_rejected(self, overlay):
        with pytest.raises(ValueError):
            generate_population(
                overlay, PopulationConfig(components_per_peer=(3, 1)),
                rng=np.random.default_rng(0),
            )


class TestMediaPopulation:
    def test_one_component_per_peer(self, overlay):
        pop = media_population(overlay, rng=np.random.default_rng(0))
        assert len(pop) == overlay.n_peers
        assert len({s.peer for s in pop}) == overlay.n_peers

    def test_only_media_functions(self, overlay):
        from repro.services.media import MEDIA_FUNCTIONS

        pop = media_population(overlay, rng=np.random.default_rng(0))
        assert {s.function for s in pop} <= set(MEDIA_FUNCTIONS)


class TestRequestGenerator:
    def gen(self, overlay, **cfg):
        return RequestGenerator(
            overlay,
            [f"F{i:03d}" for i in range(1, 21)],
            RequestConfig(**cfg),
            rng=np.random.default_rng(3),
        )

    def test_function_count_range(self, overlay):
        gen = self.gen(overlay, function_count=(2, 4))
        for _ in range(20):
            req = gen.next_request()
            assert 2 <= req.n_functions <= 4

    def test_explicit_function_count(self, overlay):
        gen = self.gen(overlay)
        assert self.gen(overlay).next_request(n_functions=3).n_functions == 3

    def test_endpoints_differ(self, overlay):
        gen = self.gen(overlay)
        for _ in range(20):
            req = gen.next_request()
            assert req.source_peer != req.dest_peer

    def test_explicit_endpoints(self, overlay):
        req = self.gen(overlay).next_request(source=3, dest=7)
        assert req.source_peer == 3 and req.dest_peer == 7

    def test_linear_by_default(self, overlay):
        gen = self.gen(overlay, dag_probability=0.0)
        for _ in range(10):
            assert gen.next_request().function_graph.is_linear()

    def test_dag_generation(self, overlay):
        gen = self.gen(overlay, dag_probability=1.0, function_count=(4, 5))
        shapes = [gen.next_request().function_graph for _ in range(10)]
        assert any(not fg.is_linear() for fg in shapes)

    def test_commutation_generation(self, overlay):
        gen = self.gen(overlay, commutation_probability=1.0, function_count=(3, 4))
        reqs = [gen.next_request() for _ in range(10)]
        assert any(r.function_graph.commutations for r in reqs)
        for r in reqs:
            r.function_graph.validate()

    def test_qos_budget_scales_with_length(self, overlay):
        gen = self.gen(overlay, function_count=(2, 2))
        short = gen.next_request(n_functions=2)
        long = gen.next_request(n_functions=6)
        assert long.qos.bounds["delay"] > short.qos.bounds["delay"]

    def test_tightness_scales_bound(self, overlay):
        loose = self.gen(overlay, qos_tightness=2.0).next_request(n_functions=3)
        tight = self.gen(overlay, qos_tightness=0.5).next_request(n_functions=3)
        assert loose.qos.bounds["delay"] > tight.qos.bounds["delay"]

    def test_alive_filter_respected(self, overlay):
        gen = RequestGenerator(
            overlay,
            ["F001"],
            RequestConfig(),
            rng=np.random.default_rng(0),
            alive=lambda p: p in (4, 5),
        )
        for _ in range(10):
            req = gen.next_request()
            assert {req.source_peer, req.dest_peer} == {4, 5}

    def test_endpoint_pool_respected(self, overlay):
        gen = RequestGenerator(
            overlay, ["F001"], RequestConfig(), rng=np.random.default_rng(0),
            endpoint_pool=[1, 2, 3],
        )
        for _ in range(10):
            req = gen.next_request()
            assert req.source_peer in (1, 2, 3) and req.dest_peer in (1, 2, 3)

    def test_too_few_live_endpoints_raises(self, overlay):
        gen = RequestGenerator(
            overlay, ["F001"], RequestConfig(), rng=np.random.default_rng(0),
            alive=lambda p: p == 0,
        )
        with pytest.raises(RuntimeError):
            gen.next_request()

    def test_no_functions_rejected(self, overlay):
        with pytest.raises(ValueError):
            RequestGenerator(overlay, [], rng=np.random.default_rng(0))

    def test_batch(self, overlay):
        batch = self.gen(overlay).batch(5)
        assert len(batch) == 5
        assert len({r.request_id for r in batch}) == 5


class TestScenarios:
    def test_simulation_testbed_builds(self):
        sc = simulation_testbed(n_ip=150, n_peers=20, n_functions=8, seed=1)
        assert sc.net.overlay.n_peers == 20
        assert sc.replication_degree > 0
        result = sc.net.compose(sc.requests.next_request(), budget=16)
        assert result is not None

    def test_planetlab_testbed_replication(self):
        sc = planetlab_testbed(n_peers=30, seed=1)
        assert sc.overlay.kind == "wan"
        assert sc.replication_degree == pytest.approx(30 / len(sc.net.registry.functions()))

    def test_protected_endpoints_survive_churn(self):
        sc = simulation_testbed(
            n_ip=150, n_peers=20, n_functions=8,
            churn_rate=1.0, protected_endpoints=4, seed=2,
        )
        sc.net.start_churn()
        sc.net.run(until=3.0)
        protected = sc.requests.endpoint_pool
        assert protected is not None
        for p in protected:
            assert sc.net.network.is_alive(p)

    def test_capacity_scale(self):
        sc = simulation_testbed(
            n_ip=150, n_peers=10, n_functions=5, capacity_scale=0.5, seed=1
        )
        for p in sc.overlay.peers():
            assert sc.net.pool.capacity(p).get("cpu") <= 75.0

    def test_deterministic_same_seed(self):
        a = simulation_testbed(n_ip=150, n_peers=15, n_functions=6, seed=9)
        b = simulation_testbed(n_ip=150, n_peers=15, n_functions=6, seed=9)
        assert sorted(a.overlay.graph.edges) == sorted(b.overlay.graph.edges)
        ra = a.net.compose(a.requests.next_request(), budget=16)
        rb = b.net.compose(b.requests.next_request(), budget=16)
        assert ra.success == rb.success
        if ra.success:
            assert ra.best_qos.get("delay") == pytest.approx(rb.best_qos.get("delay"))
