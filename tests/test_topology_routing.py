"""Unit tests for IP-layer and overlay-layer shortest-path routing."""

import networkx as nx
import numpy as np
import pytest

from repro.topology.inet import generate_ip_network
from repro.topology.routing import IPRouter, OverlayRouter, graph_to_sparse


@pytest.fixture(scope="module")
def ip():
    return generate_ip_network(120, rng=np.random.default_rng(21))


@pytest.fixture(scope="module")
def ip_router(ip):
    return IPRouter(ip)


def small_weighted_graph():
    g = nx.Graph()
    g.add_edge(0, 1, delay=1.0, bandwidth=10.0)
    g.add_edge(1, 2, delay=1.0, bandwidth=5.0)
    g.add_edge(0, 2, delay=5.0, bandwidth=100.0)
    g.add_edge(2, 3, delay=1.0, bandwidth=20.0)
    return g


class TestGraphToSparse:
    def test_round_trip_weights(self):
        g = small_weighted_graph()
        m, nodes = graph_to_sparse(g, "delay")
        assert m.shape == (4, 4)
        assert m[0, 1] == 1.0 and m[1, 0] == 1.0
        assert m[0, 2] == 5.0

    def test_nodelist_subset(self):
        g = small_weighted_graph()
        m, nodes = graph_to_sparse(g, "delay", nodelist=[0, 1])
        assert m.shape == (2, 2)
        assert m[0, 1] == 1.0


class TestIPRouter:
    def test_matches_networkx_dijkstra(self, ip, ip_router):
        lengths = nx.single_source_dijkstra_path_length(ip, 0, weight="delay")
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
            lengths = nx.single_source_dijkstra_path_length(g, a, weight="delay")
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
        with pytest.raises(nx.NetworkXNoPath):
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
        with pytest.raises(nx.NetworkXNoPath):
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
