"""Integration-level tests for the Pastry network: routing, storage, churn."""

import math

import numpy as np
import pytest

from repro.dht.id_space import circular_distance, key_for
from repro.dht.pastry import PastryNetwork, RoutingFailure
from repro.topology.overlay import wan_overlay


def _mean_hops(n_peers, lookups=150):
    """Mean hop count of random-origin lookups on a fresh WAN ring."""
    dht = PastryNetwork(wan_overlay(n_peers, rng=np.random.default_rng(0)),
                        rng=np.random.default_rng(1))
    dht.build()
    rng = np.random.default_rng(2)
    hops = [dht.route(key_for(f"service-{i}"), origin_peer=int(rng.integers(0, n_peers))).hop_count
            for i in range(lookups)]
    return float(np.mean(hops))


@pytest.fixture
def dht(overlay):
    net = PastryNetwork(overlay, rng=np.random.default_rng(77))
    net.build()
    return net


class TestConstruction:
    def test_one_node_per_peer(self, dht, overlay):
        assert len(dht.nodes) == overlay.n_peers
        assert dht.alive_count() == overlay.n_peers

    def test_leaf_sets_populated(self, dht):
        for state in dht.nodes.values():
            assert len(state.leaf_set.members()) >= 2

    def test_node_ids_unique(self, dht):
        assert len({s.node_id for s in dht.nodes.values()}) == len(dht.nodes)


class TestRouting:
    def test_routes_reach_ground_truth_responsible(self, dht):
        rng = np.random.default_rng(1)
        for _ in range(30):
            key = key_for(f"service-{rng.integers(0, 10_000)}")
            result = dht.route(key, origin_peer=int(rng.integers(0, 40)))
            assert result.responsible_node == dht.responsible_node(key)

    def test_hop_count_logarithmic(self, dht):
        rng = np.random.default_rng(2)
        hops = []
        for i in range(30):
            key = key_for(f"x{i}")
            result = dht.route(key, origin_peer=int(rng.integers(0, 40)))
            hops.append(result.hop_count)
        # 40 nodes, b=4: expect ~log16(40) ≈ 1.3 average, always small
        assert max(hops) <= 8
        assert float(np.mean(hops)) <= 4.0
        # the ring grows 8x, the mean hop count far less: log, not linear
        small, large = _mean_hops(25), _mean_hops(200)
        assert 1.0 <= large <= 3.0 * small
        assert large <= math.log(200, 16) + 2.5

    def test_latency_accumulates_positive(self, dht):
        key = key_for("svc")
        result = dht.route(key, origin_peer=0)
        if result.hop_count > 0:
            assert result.latency > 0.0
        else:
            assert result.latency == 0.0

    def test_route_from_dead_origin_rejected(self, dht):
        peer = 5
        dht.node_departed(peer)
        with pytest.raises(RoutingFailure):
            dht.route(key_for("svc"), origin_peer=peer)

    def test_messages_charged(self, dht):
        before = dht.ledger.total_count(["dht_route"])
        dht.route(key_for("another-service"), origin_peer=3)
        # zero-hop routes legitimately send nothing
        assert dht.ledger.total_count(["dht_route"]) >= before


class TestStorage:
    def test_put_then_get(self, dht):
        key = key_for("upscale")
        dht.put(key, {"peer": 3}, origin_peer=3)
        values, _ = dht.get(key, origin_peer=10)
        assert values == [{"peer": 3}]

    def test_duplicate_components_share_key(self, dht):
        key = key_for("transcode")
        for p in (1, 2, 3):
            dht.put(key, f"component-on-{p}", origin_peer=p)
        values, _ = dht.get(key, origin_peer=20)
        assert sorted(values) == ["component-on-1", "component-on-2", "component-on-3"]

    def test_get_missing_key_empty(self, dht):
        values, _ = dht.get(key_for("nothing-registered"), origin_peer=0)
        assert values == []

    def test_replication_degree(self, dht):
        key = key_for("weather")
        dht.put(key, "meta", origin_peer=0)
        holders = [nid for nid, s in dht.nodes.items() if key in s.store]
        assert len(holders) == dht.replicas + 1

    def test_remove_values(self, dht):
        key = key_for("stock")
        dht.put(key, {"cid": 1}, origin_peer=0)
        dht.put(key, {"cid": 2}, origin_peer=0)
        removed = dht.remove_values(key, lambda v: v["cid"] == 1)
        assert removed >= 1
        values, _ = dht.get(key, origin_peer=5)
        assert values == [{"cid": 2}]


class TestChurn:
    def test_departed_node_excluded_from_routing(self, dht):
        key = key_for("svc-x")
        root = dht.responsible_node(key)
        dht.node_departed(dht.peer_of(root))
        result = dht.route(key, origin_peer=self_alive_peer(dht))
        assert result.responsible_node != root
        assert result.responsible_node == dht.responsible_node(key)

    def test_data_survives_responsible_failure(self, dht):
        key = key_for("resilient-service")
        dht.put(key, "important", origin_peer=0)
        root = dht.responsible_node(key)
        dht.node_departed(dht.peer_of(root))
        values, _ = dht.get(key, origin_peer=self_alive_peer(dht))
        assert "important" in values

    def test_data_survives_cascade_of_failures(self, dht):
        key = key_for("very-resilient")
        dht.put(key, "v", origin_peer=0)
        for _ in range(dht.replicas):
            root = dht.responsible_node(key)
            dht.node_departed(dht.peer_of(root))
        values, _ = dht.get(key, origin_peer=self_alive_peer(dht))
        assert values == ["v"]

    def test_rejoin_restores_node(self, dht):
        peer = 7
        dht.node_departed(peer)
        assert dht.alive_count() == 39
        dht.node_arrived(peer)
        assert dht.alive_count() == 40
        # the rejoined node can route again
        result = dht.route(key_for("abc"), origin_peer=peer)
        assert result.responsible_node == dht.responsible_node(key_for("abc"))

    def test_rejoined_node_pulls_replicas(self, dht):
        key = key_for("replicated-fn")
        dht.put(key, "data", origin_peer=0)
        root = dht.responsible_node(key)
        peer = dht.peer_of(root)
        dht.node_departed(peer)
        dht.node_arrived(peer)
        # after rejoin + pull, the node should serve the key again when
        # it is responsible for it
        if dht.responsible_node(key) == root:
            values, _ = dht.get(key, origin_peer=peer)
            assert "data" in values

    def test_departure_idempotent(self, dht):
        dht.node_departed(3)
        count = dht.alive_count()
        dht.node_departed(3)
        assert dht.alive_count() == count

    def test_arrival_of_alive_peer_noop(self, dht):
        count = dht.alive_count()
        dht.node_arrived(3)
        assert dht.alive_count() == count


class TestJoinProtocol:
    def test_join_builds_usable_state(self, overlay):
        dht = PastryNetwork(overlay, rng=np.random.default_rng(5))
        dht.build()
        peer = 11
        dht.node_departed(peer)
        nid = dht.node_of_peer[peer]
        dht.node_arrived(peer)  # rejoin via join protocol
        state = dht.nodes[nid]
        assert len(state.known_nodes()) > 0
        # other nodes learned the rejoined node (announce step)
        learned_by = sum(1 for s in dht.nodes.values() if nid in s.known_nodes())
        assert learned_by > 0

    def test_explicit_join_rejected_when_alive(self, dht):
        with pytest.raises(RoutingFailure):
            dht.join(0)


def self_alive_peer(dht) -> int:
    for nid in dht.nodes:
        if dht.is_alive(nid):
            return dht.peer_of(nid)
    raise AssertionError("no alive peer")
