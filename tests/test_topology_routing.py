"""Unit tests for IP-layer and overlay-layer shortest-path routing.

networkx and scipy (test-only dependencies) are the reference oracles:
``scipy.sparse.csgraph.dijkstra`` is what the routers ran before they ran
their own, and the property test below holds the routine to its
distances bit for bit and to its predecessors exactly.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.topology.graph import Graph
from repro.topology.inet import generate_ip_network
from repro.topology.routing import (
    IPRouter,
    NoPathError,
    OverlayRouter,
    _adjacency,
    shortest_paths,
)

from worlds import as_networkx, fuzz_settings


@pytest.fixture(scope="module")
def ip():
    return generate_ip_network(120, rng=np.random.default_rng(21))


@pytest.fixture(scope="module")
def ip_router(ip):
    return IPRouter(ip)


def small_weighted_graph():
    g = Graph()
    g.add_edge(0, 1, delay=1.0, bandwidth=10.0)
    g.add_edge(1, 2, delay=1.0, bandwidth=5.0)
    g.add_edge(0, 2, delay=5.0, bandwidth=100.0)
    g.add_edge(2, 3, delay=1.0, bandwidth=20.0)
    return g


class TestIPRouter:
    def test_matches_networkx_dijkstra(self, ip, ip_router):
        lengths = nx.single_source_dijkstra_path_length(as_networkx(ip), 0, weight="delay")
        for node in list(ip.nodes)[:20]:
            assert ip_router.delay(0, node) == pytest.approx(lengths[node])

    def test_path_endpoints_and_continuity(self, ip, ip_router):
        path = ip_router.path(0, 50)
        assert path[0] == 0 and path[-1] == 50
        for a, b in zip(path, path[1:]):
            assert ip.has_edge(a, b)

    def test_path_delay_consistent(self, ip, ip_router):
        path = ip_router.path(0, 50)
        total = sum(ip.edges[a, b]["delay"] for a, b in zip(path, path[1:]))
        assert ip_router.delay(0, 50) == pytest.approx(total)

    def test_self_path(self, ip_router):
        assert ip_router.path(5, 5) == [5]
        assert ip_router.delay(5, 5) == 0.0

    def test_path_bandwidth_is_bottleneck(self):
        router = IPRouter(small_weighted_graph())
        # shortest delay 0->2 goes through 1 (delay 2 < 5)
        assert router.path(0, 2) == [0, 1, 2]
        assert router.path_bandwidth(0, 2) == 5.0

    def test_self_bandwidth_infinite(self):
        router = IPRouter(small_weighted_graph())
        assert router.path_bandwidth(1, 1) == float("inf")

    def test_unknown_router_raises(self, ip_router):
        with pytest.raises(KeyError):
            ip_router.delays_from(10_000)

    def test_cache_consistency(self, ip_router):
        d1 = ip_router.delay(3, 40)
        d2 = ip_router.delay(3, 40)
        assert d1 == d2


class TestOverlayRouter:
    def test_matches_networkx(self):
        g = small_weighted_graph()
        router = OverlayRouter(g)
        for a in g.nodes:
            lengths = nx.single_source_dijkstra_path_length(as_networkx(g), a, weight="delay")
            for b in g.nodes:
                assert router.delay(a, b) == pytest.approx(lengths[b])

    def test_path_and_links(self):
        router = OverlayRouter(small_weighted_graph())
        assert router.path(0, 3) == [0, 1, 2, 3]
        assert router.links(0, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_links_canonical_order(self):
        router = OverlayRouter(small_weighted_graph())
        for u, v in router.links(3, 0):
            assert u < v

    def test_self_path(self):
        router = OverlayRouter(small_weighted_graph())
        assert router.path(2, 2) == [2]
        assert router.links(2, 2) == []

    def test_no_path_raises(self):
        g = small_weighted_graph()
        g.add_node(99)  # isolated
        router = OverlayRouter(g)
        assert not router.reachable(0, 99)
        with pytest.raises(NoPathError):
            router.path(0, 99)

    def test_unknown_peer_raises(self):
        router = OverlayRouter(small_weighted_graph())
        with pytest.raises(KeyError):
            router.delay(0, 1234)

    def test_delay_matrix_copy(self):
        router = OverlayRouter(small_weighted_graph())
        m = router.delay_matrix()
        m[0, 1] = -99.0
        assert router.delay(0, 1) == 1.0  # internal state untouched

    def test_peers_property(self):
        router = OverlayRouter(small_weighted_graph())
        assert sorted(router.peers) == [0, 1, 2, 3]

    def test_row_reads_equal_the_per_pair_reads(self):
        router = OverlayRouter(small_weighted_graph())
        dsts = [3, 0, 2, 2, 1]
        for src in router.peers:
            assert router.delays_to(src, dsts) == [router.delay(src, d) for d in dsts]
            assert router.link_index_lists(src, dsts) == [
                router.link_index_list(src, d) for d in dsts
            ]


class TestReweighted:
    """``reweighted`` re-runs only the shortest paths; everything else of
    the new router is the old one's.  The reference is the constructor,
    which walks the graph afresh."""

    @pytest.fixture(scope="class")
    def graph(self, ip):
        from repro.topology.overlay import mesh_overlay

        return mesh_overlay(ip, 24, k=4, rng=np.random.default_rng(3)).graph

    @staticmethod
    def _overrides(graph, rng):
        links = [tuple(sorted(e)) for e in graph.edges]
        picked = rng.choice(len(links), size=len(links) // 3, replace=False)
        out = {links[i]: float(graph.edges[links[i]]["delay"]) * rng.uniform(0.2, 5.0) for i in picked}
        for i in picked[:4]:
            out[links[i]] = float("inf")  # priced out, edge still present
        return out

    def test_equals_a_router_built_from_the_graph(self, graph):
        base = OverlayRouter(graph)
        rng = np.random.default_rng(9)
        for _ in range(5):
            overrides = self._overrides(graph, rng)
            fast = base.reweighted(overrides)
            slow = OverlayRouter(graph, delay_overrides=overrides)
            np.testing.assert_array_equal(fast._dist, slow._dist)
            np.testing.assert_array_equal(fast._pred, slow._pred)
            assert fast.link_order == slow.link_order == base.link_order
            assert fast.peers == slow.peers
            for link, delay in overrides.items():
                assert fast.link_delay(*link) == slow.link_delay(*link) == delay

    def test_no_overrides_equals_the_base(self, graph):
        base = OverlayRouter(graph)
        same = base.reweighted({})
        np.testing.assert_array_equal(same._dist, base._dist)
        np.testing.assert_array_equal(same._pred, base._pred)

    def test_inf_links_are_omitted_from_every_path(self):
        g = small_weighted_graph()  # 0-1-2-3 plus the slow shortcut 0-2
        base = OverlayRouter(g)
        cut = base.reweighted({(1, 2): float("inf")})
        assert cut.path(0, 3) == [0, 2, 3] and cut.delay(0, 3) == 6.0
        assert cut.links(0, 3) == [(0, 2), (2, 3)]
        island = base.reweighted({(2, 3): float("inf")})
        assert not island.reachable(0, 3)
        with pytest.raises(NoPathError):
            island.path(0, 3)
        # the edge set, and so every array indexed by link order, is unchanged
        assert cut.link_order == island.link_order == base.link_order

    def test_derived_router_shares_nothing_mutable_with_its_base(self, graph):
        base = OverlayRouter(graph)
        a, b = base.peers[0], base.peers[-1]
        before = list(base.path(a, b))
        link = tuple(sorted((before[0], before[1])))
        other = base.reweighted({link: float("inf")})
        assert other.path(a, b) != before
        assert base.path(a, b) == before  # the base's memoized paths are its own
        assert base.reweighted({}).path(a, b) == before  # and overrides do not stick


def _scipy_all_pairs(n, edges):
    """The routers' former routine: scipy's Dijkstra over a symmetric CSR
    matrix of the finite-weight edges."""
    rows, cols, vals = [], [], []
    for i, j, w in edges:
        if math.isfinite(w):
            rows += (i, j)
            cols += (j, i)
            vals += (w, w)
    matrix = csr_matrix((vals, (rows, cols)), shape=(n, n))
    return dijkstra(matrix, directed=False, return_predecessors=True)


def _all_pairs(n, edges):
    adj = _adjacency(n, edges)
    trees = [shortest_paths(adj, s) for s in range(n)]
    return np.array([d for d, _ in trees]), np.array([p for _, p in trees])


@st.composite
def weighted_graphs(draw, weights):
    n = draw(st.integers(1, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(i, j, draw(weights)) for i, j in chosen]


# continuous weights, as the generators draw them (exact path ties are
# then ones the graph's structure makes), with a few links priced out
_DRAWN = st.one_of(st.floats(1e-4, 0.05), st.just(math.inf))


class TestAgainstScipy:
    @fuzz_settings(200)
    @given(graph=weighted_graphs(_DRAWN), seed=st.integers(0, 2**32 - 1))
    def test_distances_bit_equal_and_predecessors_equal(self, graph, seed):
        n, edges = graph
        rng = np.random.default_rng(seed)  # distinct weights: no settle-order ties
        edges = [(i, j, w if math.isinf(w) else float(rng.uniform(1e-4, 0.05))) for i, j, w in edges]
        dist, pred = _all_pairs(n, edges)
        ref_dist, ref_pred = _scipy_all_pairs(n, edges)
        assert dist.tobytes() == ref_dist.tobytes()
        np.testing.assert_array_equal(pred, ref_pred)

    @fuzz_settings(200)
    @given(graph=weighted_graphs(st.sampled_from([0.5, 1.0, 1.5, 2.0, math.inf])))
    def test_distances_bit_equal_under_ties(self, graph):
        """Where equal weights tie whole paths, which predecessor is kept
        may differ from scipy's heap; the distances may not."""
        n, edges = graph
        dist, pred = _all_pairs(n, edges)
        ref_dist, _ = _scipy_all_pairs(n, edges)
        assert dist.tobytes() == ref_dist.tobytes()
        for s in range(n):  # and every predecessor is on a shortest path
            for v in range(n):
                if pred[s, v] >= 0:
                    w = min(w for i, j, w in edges if {i, j} == {int(pred[s, v]), v})
                    assert dist[s, pred[s, v]] + w == dist[s, v]

    def test_ip_router_matches_scipy_from_every_router(self, ip):
        router = IPRouter(ip)
        index = {v: i for i, v in enumerate(ip.nodes)}
        edges = [(index[u], index[v], float(d)) for u, v, d in ip.edges(data="delay")]
        ref_dist, ref_pred = _scipy_all_pairs(len(index), edges)
        for src in ip.nodes:
            dist, pred = router._tree(src)
            assert np.array(dist).tobytes() == ref_dist[index[src]].tobytes()
            assert list(pred) == list(ref_pred[index[src]])

    def test_delay_matrix_reads_the_runs_of_the_peer_routers(self, ip):
        routers = [7, 3, 90, 41]
        router = IPRouter(ip)
        m = router.delay_matrix(routers)
        assert m.shape == (4, 4)
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        assert m[1, 2] == router.delay(3, 90)
