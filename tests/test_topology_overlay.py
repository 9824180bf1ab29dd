"""Unit tests for overlay construction (mesh / random / WAN)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.topology.inet import TopologyError, generate_ip_network
from repro.topology.overlay import (
    mesh_overlay,
    random_overlay,
    select_peers,
    wan_overlay,
)
from repro.topology.routing import IPRouter

from worlds import as_networkx


@pytest.fixture(scope="module")
def ip():
    return generate_ip_network(150, rng=np.random.default_rng(11))


class TestSelectPeers:
    def test_count_and_uniqueness(self, ip):
        peers = select_peers(ip, 30, rng=np.random.default_rng(0))
        assert len(peers) == 30 and len(set(peers)) == 30

    def test_too_many_peers_rejected(self, ip):
        with pytest.raises(TopologyError):
            select_peers(ip, 10_000, rng=np.random.default_rng(0))


class TestPeerDelayMatrix:
    def test_shape_symmetry_zero_diagonal(self, ip):
        routers = select_peers(ip, 10, rng=np.random.default_rng(1))
        m = IPRouter(ip).delay_matrix(routers)
        assert m.shape == (10, 10)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)
        assert np.isfinite(m).all()


def _common_overlay_checks(ov, n):
    assert ov.n_peers == n
    assert nx.is_connected(as_networkx(ov.graph))
    for u, v, d in ov.graph.edges(data=True):
        assert d["delay"] >= 0
        assert d["bandwidth"] > 0
        assert d["loss_add"] >= 0
    # routed latency is symmetric and triangle-consistent with edges
    a, b = 0, n - 1
    assert ov.latency(a, b) == pytest.approx(ov.latency(b, a))
    assert ov.latency(a, a) == 0.0


class TestMeshOverlay:
    def test_structure(self, ip):
        ov = mesh_overlay(ip, 25, k=3, rng=np.random.default_rng(2))
        _common_overlay_checks(ov, 25)
        assert ov.kind == "mesh"
        # every peer has at least k neighbours requested (dedup may merge)
        assert min(dict(ov.graph.degree()).values()) >= 1

    def test_topological_awareness(self, ip):
        """Mesh neighbours should be latency-closer than average pairs."""
        ov = mesh_overlay(ip, 25, k=3, rng=np.random.default_rng(2))
        edge_delays = [d["delay"] for _, _, d in ov.graph.edges(data=True)]
        all_pairs = [
            ov.latency(a, b) for a in range(25) for b in range(a + 1, 25)
        ]
        assert np.mean(edge_delays) <= np.mean(all_pairs)

    def test_ip_mapping_present(self, ip):
        ov = mesh_overlay(ip, 10, k=2, rng=np.random.default_rng(3))
        assert set(ov.ip_of) == set(range(10))
        assert all(r in ip.nodes for r in ov.ip_of.values())


class TestRandomOverlay:
    def test_structure(self, ip):
        ov = random_overlay(ip, 20, k=3, rng=np.random.default_rng(5))
        _common_overlay_checks(ov, 20)
        assert ov.kind == "random"


class TestWanOverlay:
    def test_full_mesh(self):
        ov = wan_overlay(20, rng=np.random.default_rng(6))
        assert ov.graph.number_of_edges() == 20 * 19 // 2
        _common_overlay_checks(ov, 20)
        assert ov.kind == "wan"
        assert ov.ip_of is None

    def test_regions_assigned(self):
        ov = wan_overlay(50, us_fraction=0.7, rng=np.random.default_rng(7))
        regions = dict(ov.graph.nodes(data="region"))
        assert set(regions.values()) <= {"US", "EU"}
        assert sum(1 for r in regions.values() if r == "US") > 20

    def test_transatlantic_slower_than_intra_us(self):
        ov = wan_overlay(80, rng=np.random.default_rng(8))
        regions = dict(ov.graph.nodes(data="region"))
        intra, inter = [], []
        for u, v, d in ov.graph.edges(data=True):
            if regions[u] == regions[v] == "US":
                intra.append(d["delay"])
            elif regions[u] != regions[v]:
                inter.append(d["delay"])
        assert np.mean(inter) > 1.5 * np.mean(intra)

    def test_min_peers_rejected(self):
        with pytest.raises(TopologyError):
            wan_overlay(1, rng=np.random.default_rng(0))


class TestLossModel:
    def test_path_loss_accumulates(self, ip):
        ov = mesh_overlay(ip, 15, k=3, rng=np.random.default_rng(9))
        a, b = 0, 14
        links = ov.router.links(a, b)
        total = sum(ov.graph.edges[link]["loss_add"] for link in links)
        assert ov.path_loss_add(a, b) == pytest.approx(total)

    def test_self_path_loss_zero(self, ip):
        ov = mesh_overlay(ip, 15, k=3, rng=np.random.default_rng(9))
        assert ov.path_loss_add(3, 3) == 0.0

    def test_longer_links_lossier(self):
        ov = wan_overlay(30, rng=np.random.default_rng(10))
        edges = list(ov.graph.edges(data=True))
        edges.sort(key=lambda e: e[2]["delay"])
        fast = np.mean([e[2]["loss_add"] for e in edges[:50]])
        slow = np.mean([e[2]["loss_add"] for e in edges[-50:]])
        assert slow > fast
