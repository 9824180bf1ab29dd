"""Unit + property tests for the power-law Internet topology generator."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.inet import (
    TopologyError,
    generate_ip_network,
    power_law_degree_sequence,
)

from worlds import as_networkx


class TestDegreeSequence:
    def test_length_and_bounds(self):
        d = power_law_degree_sequence(500, rng=np.random.default_rng(0))
        assert len(d) == 500
        assert d.min() >= 1

    def test_sum_is_even(self):
        for seed in range(10):
            d = power_law_degree_sequence(101, rng=np.random.default_rng(seed))
            assert d.sum() % 2 == 0

    def test_heavy_tail_present(self):
        d = power_law_degree_sequence(2000, gamma=2.2, rng=np.random.default_rng(1))
        # a power law should produce a hub well above the median
        assert d.max() >= 5 * np.median(d)

    def test_higher_gamma_thinner_tail(self):
        rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
        flat = power_law_degree_sequence(2000, gamma=3.5, rng=rng1)
        heavy = power_law_degree_sequence(2000, gamma=2.0, rng=rng2)
        assert heavy.mean() > flat.mean()

    def test_max_degree_respected(self):
        d = power_law_degree_sequence(300, max_degree=5, rng=np.random.default_rng(3))
        # the even-sum fixup may add one to a single node
        assert d.max() <= 6

    def test_bad_params_rejected(self):
        with pytest.raises(TopologyError):
            power_law_degree_sequence(0)
        with pytest.raises(TopologyError):
            power_law_degree_sequence(10, gamma=1.0)

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_always_graphical_sum(self, n, seed):
        d = power_law_degree_sequence(n, rng=np.random.default_rng(seed))
        assert d.sum() % 2 == 0 and len(d) == n


class TestGenerateIPNetwork:
    def test_connected_across_seeds(self):
        for seed in range(8):
            g = generate_ip_network(150, rng=np.random.default_rng(seed))
            assert nx.is_connected(as_networkx(g))

    def test_node_count(self):
        g = generate_ip_network(77, rng=np.random.default_rng(0))
        assert g.number_of_nodes() == 77

    def test_edge_attributes_present_and_sane(self):
        g = generate_ip_network(100, rng=np.random.default_rng(0))
        for _, _, d in g.edges(data=True):
            assert d["delay"] > 0
            assert 10.0 <= d["bandwidth"] <= 1000.0

    def test_positions_in_unit_square(self):
        g = generate_ip_network(50, rng=np.random.default_rng(0))
        for _, d in g.nodes(data=True):
            x, y = d["pos"]
            assert 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0

    def test_delay_reflects_distance(self):
        g = generate_ip_network(100, rng=np.random.default_rng(0), hop_delay=0.0)
        import math

        for u, v, d in g.edges(data=True):
            xu, yu = g.nodes[u]["pos"]
            xv, yv = g.nodes[v]["pos"]
            dist = math.hypot(xu - xv, yu - yv)
            assert d["delay"] == pytest.approx(0.030 * dist, abs=1e-12)

    def test_single_node_graph(self):
        g = generate_ip_network(1, rng=np.random.default_rng(0))
        assert g.number_of_nodes() == 1 and g.number_of_edges() == 0

    def test_degree_distribution_is_skewed(self):
        g = generate_ip_network(1000, rng=np.random.default_rng(4))
        degrees = np.array([d for _, d in g.degree()])
        assert degrees.max() >= 4 * np.median(degrees)

    def test_bad_bandwidth_range_rejected(self):
        with pytest.raises(TopologyError):
            generate_ip_network(20, bandwidth_range=(0.0, 10.0), rng=np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        g1 = generate_ip_network(80, rng=np.random.default_rng(9))
        g2 = generate_ip_network(80, rng=np.random.default_rng(9))
        assert sorted(g1.edges) == sorted(g2.edges)
