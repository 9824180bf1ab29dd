"""Behavioural tests for sessions and proactive failure recovery."""

import pytest

from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.core.session import RecoveryConfig, SessionManager, SessionState
from repro.sim.vtime import VirtualTimeLoop, advance

from worlds import MicroWorld


def make_manager(world, config=None):
    loop = VirtualTimeLoop()
    return loop, SessionManager(loop, world.bcp, config=config)


def replicated_world(replicas=3, **kwargs):
    """fa/fb each on several distinct peers -> plenty of qualified graphs."""
    world = MicroWorld(n_peers=10, **kwargs)
    for i in range(replicas):
        world.place("fa", peer=2 + i)
        world.place("fb", peer=5 + i)
    return world


class TestEstablish:
    def test_establish_creates_active_session(self):
        world = replicated_world()
        loop, mgr = make_manager(world)
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=9)
        session = mgr.establish(req)
        assert session is not None and session.active
        assert mgr.stats.sessions_established == 1
        assert session.tokens

    def test_establish_failure_counted(self):
        world = MicroWorld()
        loop, mgr = make_manager(world)
        req = world.request(FunctionGraph.linear(["missing"]))
        assert mgr.establish(req) is None
        assert mgr.stats.sessions_rejected == 1

    def test_backups_selected(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(world, RecoveryConfig(upper_bound=3.0))
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02,
        )
        session = mgr.establish(req)
        assert session is not None
        assert len(session.backups) >= 1
        # backups never equal the current graph
        cur = session.current.signature()
        assert all(b.graph.signature() != cur for b in session.backups)

    def test_proactive_disabled_no_backups(self):
        world = replicated_world()
        loop, mgr = make_manager(world, RecoveryConfig(proactive=False))
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=9)
        session = mgr.establish(req)
        assert session.backups == [] and session.target_backups == 0


class TestTeardown:
    def test_teardown_releases_resources(self):
        world = replicated_world()
        loop, mgr = make_manager(world)
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=9)
        session = mgr.establish(req)
        assert world.pool.active_tokens()
        mgr.teardown(session.session_id)
        assert session.state is SessionState.CLOSED
        assert world.pool.active_tokens() == []

    def test_session_expires_after_duration(self):
        world = replicated_world()
        loop, mgr = make_manager(world)
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9, duration=30.0
        )
        session = mgr.establish(req)
        advance(loop, until=29.0)
        assert session.active
        advance(loop, until=31.0)
        assert session.state is SessionState.CLOSED

    def test_teardown_idempotent(self):
        world = replicated_world()
        loop, mgr = make_manager(world)
        req = world.request(FunctionGraph.linear(["fa", "fb"]), source=0, dest=9)
        session = mgr.establish(req)
        mgr.teardown(session.session_id)
        mgr.teardown(session.session_id)  # no raise
        mgr.teardown(9999)  # unknown id: no raise


class TestRecovery:
    def failing_setup(self, config=None, replicas=4):
        world = replicated_world(replicas=replicas)
        loop, mgr = make_manager(world, config or RecoveryConfig(upper_bound=3.0))
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session is not None
        return world, loop, mgr, session

    def kill_current_peer(self, world, mgr, session):
        peer = session.current.component("fa").peer
        world.kill(peer)
        mgr.peer_departed(peer)
        return peer

    def test_proactive_switch_on_failure(self):
        world, loop, mgr, session = self.failing_setup()
        assert session.backups, "setup must produce backups"
        old_sig = session.current.signature()
        dead = self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        assert session.active
        assert session.current.signature() != old_sig
        assert not session.current.uses_peer(dead)
        assert mgr.stats.proactive_recoveries == 1
        assert mgr.stats.failures == 1

    def test_failed_graph_resources_released_after_switch(self):
        world, loop, mgr, session = self.failing_setup()
        old_peers = set(session.current.peers())
        self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        new_peers = set(session.current.peers())
        for p in old_peers - new_peers:
            assert world.pool.available(p).get("cpu") == pytest.approx(100.0)

    def test_reactive_recovery_when_no_backups(self):
        world, loop, mgr, session = self.failing_setup(
            config=RecoveryConfig(upper_bound=0.0)  # gamma = 0: no backups
        )
        assert session.backups == []
        self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        assert session.active
        assert mgr.stats.reactive_recoveries == 1

    def test_no_recovery_mode_session_fails(self):
        world, loop, mgr, session = self.failing_setup(
            config=RecoveryConfig(proactive=False, reactive=False)
        )
        self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        assert session.state is SessionState.FAILED
        assert mgr.stats.unrecovered_failures == 1
        assert world.pool.active_tokens() == []

    def test_endpoint_death_fails_session(self):
        world, loop, mgr, session = self.failing_setup()
        world.kill(0)  # the source peer
        mgr.peer_departed(0)
        advance(loop, until=5.0)
        assert session.state is SessionState.FAILED

    def test_unrelated_peer_departure_ignored(self):
        world, loop, mgr, session = self.failing_setup()
        used = set(session.current.peers(include_endpoints=True))
        unused = next(p for p in world.overlay.peers() if p not in used)
        world.kill(unused)
        mgr.peer_departed(unused)
        advance(loop, until=5.0)
        assert session.active
        assert mgr.stats.failures == 0

    def test_failure_listener_notified(self):
        world, loop, mgr, session = self.failing_setup()
        events = []
        mgr.on_failure(lambda t, recovered: events.append(recovered))
        self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        assert events == [True]

    def test_recovery_time_recorded(self):
        world, loop, mgr, session = self.failing_setup()
        self.kill_current_peer(world, mgr, session)
        advance(loop, until=5.0)
        assert len(mgr.stats.recovery_times) == 1
        assert mgr.stats.recovery_times[0] >= mgr.config.detection_delay


class TestMaintenance:
    def test_dead_backup_pruned(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=3.0, maintenance_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session.backups
        victim = session.backups[0].graph.peers()[0]
        world.kill(victim)
        advance(loop, until=2.5)
        assert all(not b.graph.uses_peer(victim) for b in session.backups)

    def test_replenish_restores_target(self):
        world = replicated_world(replicas=5)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=3.0, maintenance_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        target = session.target_backups
        assert target >= 1 and session.spare_qualified
        victim = session.backups[0].graph.peers()[0]
        world.kill(victim)
        advance(loop, until=2.5)
        # pruned backups are replaced from the spare qualified pool
        assert len(session.backups) >= min(target, 1)

    def test_maintenance_charges_ledger(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=3.0, maintenance_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session.backups
        before = mgr.ledger.count.get("maintenance_probe", 0)
        advance(loop, until=5.5)
        assert mgr.ledger.count.get("maintenance_probe", 0) > before

    def test_maintenance_stops_with_session(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=3.0, maintenance_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=3.0,
        )
        session = mgr.establish(req)
        advance(loop, until=4.0)
        count_at_close = mgr.ledger.count.get("maintenance_probe", 0)
        advance(loop, until=20.0)
        assert mgr.ledger.count.get("maintenance_probe", 0) == count_at_close


class TestHeartbeatDetection:
    def test_heartbeat_interval_validated(self):
        with pytest.raises(ValueError):
            RecoveryConfig(heartbeat_interval=0.0)

    def test_heartbeat_traffic_charged(self):
        world = replicated_world(replicas=3)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=2.0, heartbeat_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9, duration=100.0
        )
        session = mgr.establish(req)
        assert session is not None
        advance(loop, until=5.5)
        assert mgr.ledger.count.get("heartbeat", 0) >= 5 * len(session.current.peers())

    def test_heartbeat_stops_with_session(self):
        world = replicated_world(replicas=3)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=2.0, heartbeat_interval=1.0)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9, duration=3.0
        )
        mgr.establish(req)
        advance(loop, until=4.0)
        at_close = mgr.ledger.count.get("heartbeat", 0)
        advance(loop, until=20.0)
        assert mgr.ledger.count.get("heartbeat", 0) == at_close

    def test_detection_delay_includes_heartbeat_residual(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(
            world,
            RecoveryConfig(
                upper_bound=3.0, heartbeat_interval=4.0, detection_delay=0.5
            ),
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session is not None and session.backups
        peer = session.current.component("fa").peer
        world.kill(peer)
        mgr.peer_departed(peer)
        advance(loop, until=20.0)
        assert session.active
        assert len(mgr.stats.recovery_times) == 1
        rt = mgr.stats.recovery_times[0]
        # residual in [0, 4) + 0.5 margin + switch ack
        assert 0.5 <= rt < 4.0 + 0.5 + 1.0

    def test_oracle_mode_fixed_delay(self):
        world = replicated_world(replicas=4)
        loop, mgr = make_manager(
            world, RecoveryConfig(upper_bound=3.0, detection_delay=0.25)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        peer = session.current.component("fa").peer
        world.kill(peer)
        mgr.peer_departed(peer)
        advance(loop, until=20.0)
        assert mgr.stats.recovery_times
        assert mgr.stats.recovery_times[0] >= 0.25
