"""Adversarial failure-injection tests: storms, flapping, total loss.

These scenarios go beyond Fig. 9's gentle 1 % churn to check that every
layer fails *cleanly* — graceful degradation, informative failures, and
zero resource leaks — when the network misbehaves badly.
"""

import numpy as np
import pytest

from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.core.session import RecoveryConfig, SessionManager
from repro.dht.id_space import key_for
from repro.sim.vtime import VirtualTimeLoop, advance

from worlds import MicroWorld


def big_world(n_peers=16, replicas=4, **kwargs):
    world = MicroWorld(n_peers=n_peers, **kwargs)
    for i in range(replicas):
        world.place("fa", peer=2 + i)
        world.place("fb", peer=2 + replicas + i)
    return world


class TestChurnStorm:
    def test_dht_survives_half_the_ring_dying(self):
        world = big_world()
        world.dht.put(key_for("fa"), "meta", origin_peer=0)
        # kill half the peers (sparing 0, the query origin)
        for p in range(1, 9):
            world.kill(p)
        result = world.dht.route(key_for("fa"), origin_peer=0)
        assert world.dht.is_alive(result.responsible_node)
        assert result.responsible_node == world.dht.responsible_node(key_for("fa"))

    def test_registry_filters_the_dead_majority(self):
        world = big_world()
        for p in range(2, 6):
            world.kill(p)  # every fa host dies
        lookup = world.registry.lookup("fa", origin_peer=0)
        assert lookup.components == []
        lookup_b = world.registry.lookup("fb", origin_peer=0)
        assert len(lookup_b.components) == 4

    def test_composition_fails_cleanly_when_all_hosts_die(self):
        world = big_world()
        for p in range(2, 6):
            world.kill(p)
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=15)
        result = world.bcp.compose(req)
        assert not result.success
        assert result.failure_reason is not None
        assert world.pool.active_tokens() == []

    def test_sessions_under_storm_release_everything(self):
        world = big_world()
        loop = VirtualTimeLoop()
        mgr = SessionManager(loop, world.bcp, config=RecoveryConfig(upper_bound=2.0))
        sessions = []
        for _ in range(4):
            s = mgr.establish(
                world.request(
                    FunctionGraph.linear(["fa", "fb"]), source=0, dest=15,
                    delay_bound=0.8, duration=1000.0,
                )
            )
            if s:
                sessions.append(s)
        assert sessions
        # the storm: every service host dies at once
        for p in range(2, 10):
            world.kill(p)
            mgr.peer_departed(p)
        advance(loop, until=30.0)
        for s in sessions:
            assert not s.active
        assert world.pool.active_tokens() == []
        world.pool.check_invariants()


class TestFlapping:
    def test_rapid_kill_revive_cycles_keep_dht_consistent(self):
        world = big_world()
        peer = 5
        for _ in range(6):
            world.kill(peer)
            world.dead.discard(peer)
            world.registry.peer_arrived(peer)
            world.dht.node_arrived(peer)
        # the ring is intact and routing still agrees with ground truth
        rng = np.random.default_rng(0)
        for _ in range(10):
            key = key_for(f"k{rng.integers(0, 100)}")
            result = world.dht.route(key, origin_peer=0)
            assert result.responsible_node == world.dht.responsible_node(key)

    def test_component_on_flapping_peer_usable_after_return(self):
        world = big_world()
        target = world.registry.duplicates("fa")[0]
        peer = target.peer
        world.kill(peer)
        world.dead.discard(peer)
        world.registry.peer_arrived(peer)
        world.dht.node_arrived(peer)
        lookup = world.registry.lookup("fa", origin_peer=0)
        assert any(m.component_id == target.component_id for m in lookup.components)


class TestPartialFailureDuringRecovery:
    def test_backup_dies_during_detection_window(self):
        """The primary AND the best backup die before the switch lands."""
        world = big_world(replicas=5)
        loop = VirtualTimeLoop()
        mgr = SessionManager(
            loop, world.bcp,
            config=RecoveryConfig(upper_bound=3.0, detection_delay=1.0),
        )
        session = mgr.establish(
            world.request(
                FunctionGraph.linear(["fa", "fb"]), source=0, dest=15,
                delay_bound=0.8, failure_req=0.02, duration=1000.0,
            )
        )
        assert session is not None and session.backups
        primary = session.current.component("fa").peer
        first_backup_peers = set(session.backups[0].graph.peers())
        world.kill(primary)
        mgr.peer_departed(primary)
        # while detection is pending, the best backup's peers die too
        for p in first_backup_peers:
            if p != primary:
                world.kill(p)
        advance(loop, until=30.0)
        # the manager must have skipped the dead backup (next backup or
        # reactive re-probing) without leaking anything
        if session.active:
            assert all(p not in world.dead for p in session.current.peers())
        else:
            assert world.pool.active_tokens() == []
        world.pool.check_invariants()

    def test_reactive_recomposition_avoids_all_dead_peers(self):
        world = big_world(replicas=5)
        loop = VirtualTimeLoop()
        mgr = SessionManager(loop, world.bcp, config=RecoveryConfig(upper_bound=0.0))
        session = mgr.establish(
            world.request(
                FunctionGraph.linear(["fa", "fb"]), source=0, dest=15,
                delay_bound=0.8, duration=1000.0,
            )
        )
        dead = {session.current.component("fa").peer, session.current.component("fb").peer}
        for p in dead:
            world.kill(p)
            mgr.peer_departed(p)
        advance(loop, until=30.0)
        if session.active:
            assert not (set(session.current.peers()) & dead)


class TestResourceExhaustionStorm:
    def test_requests_beyond_capacity_fail_without_leaks(self):
        world = big_world(cpu=30.0)  # each peer fits ~1 component
        loop = VirtualTimeLoop()
        mgr = SessionManager(loop, world.bcp)
        established = 0
        for i in range(20):
            s = mgr.establish(
                world.request(
                    FunctionGraph.linear(["fa", "fb"]), source=0, dest=15,
                    delay_bound=0.8, duration=1000.0,
                )
            )
            established += int(s is not None)
            world.pool.check_invariants()
        # capacity admits only a handful; the rest must fail cleanly
        assert 0 < established < 20
        for s in list(mgr.sessions.values()):
            mgr.teardown(s.session_id)
        assert world.pool.active_tokens() == []
