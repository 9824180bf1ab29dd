"""Regression: failover must re-validate backups against *current* state
— and must not let the broken session's own firm claims veto them.

``select_backups`` maximises overlap with the current graph, so the
strongest backups are exactly the graphs that re-use the failed
session's peers.  Pre-fix, ``_switch_to_backup`` ran admission while the
broken session still held its firm claims: on a peer whose spare
capacity had meanwhile been taken by other sessions (churn), the backup
was rejected for capacity the failed session itself was holding, and
recovery needlessly fell through to the reactive (full re-probing)
path.  The fix releases the broken graph's claims before trying
backups, and checks each backup with :func:`revalidate_backup`.
"""

import pytest

from repro.core.function_graph import FunctionGraph
from repro.core.recovery import revalidate_backup
from repro.core.session import RecoveryConfig, SessionManager
from repro.sim.vtime import VirtualTimeLoop, advance

from worlds import MicroWorld


def contended_world():
    """fa duplicated, fb only on peer 3 — every backup shares peer 3.

    fb takes 33 cpu of peer 3's 100; a second session ("fc", also on
    peer 3) takes another 50.  After the fa-host dies, the backup needs
    33 cpu at peer 3: available is 17 with the broken session's claim
    still held (rejected) but 67 once it is released (admitted).
    """
    world = MicroWorld(n_peers=6)
    world.place("fa", peer=1, delay=0.005)
    world.place("fa", peer=2, delay=0.008)
    world.place("fb", peer=3, cpu=33.0)
    world.place("fc", peer=3, cpu=50.0)
    return world


class TestSwitchUnderContention:
    def setup_sessions(self):
        world = contended_world()
        loop = VirtualTimeLoop()
        mgr = SessionManager(loop, world.bcp, config=RecoveryConfig(upper_bound=3.0))
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=4,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session is not None and session.active
        assert session.backups, "fixture must produce an overlapping backup"
        assert all(b.graph.uses_peer(3) for b in session.backups)
        # churn: an unrelated session eats peer 3's remaining slack
        other = mgr.establish(
            world.request(
                FunctionGraph.linear(["fc"]), source=0, dest=5, duration=1000.0
            )
        )
        assert other is not None and other.active
        assert world.pool.available(3).get("cpu") == pytest.approx(17.0)
        return world, loop, mgr, session, other

    def test_backup_switch_not_blocked_by_own_firm_claims(self):
        world, loop, mgr, session, other = self.setup_sessions()
        world.kill(1)
        mgr.peer_departed(1)
        advance(loop, until=5.0)
        assert session.active
        assert not session.current.uses_peer(1)
        # pre-fix this was a reactive (full re-probe) recovery: the
        # backup needed capacity the dead session itself still held
        assert mgr.stats.proactive_recoveries == 1
        assert mgr.stats.reactive_recoveries == 0
        assert mgr.stats.failures == 1
        assert other.active

    def test_peer3_accounting_after_switch(self):
        world, loop, mgr, session, other = self.setup_sessions()
        world.kill(1)
        mgr.peer_departed(1)
        advance(loop, until=5.0)
        # exactly the recovered session's fb (33) + the other's fc (50)
        assert world.pool.available(3).get("cpu") == pytest.approx(17.0)
        mgr.teardown(session.session_id)
        mgr.teardown(other.session_id)
        assert world.pool.active_tokens() == []


class TestRevalidateBackup:
    def candidate(self, world, peer):
        req = world.request(FunctionGraph.linear(["fa"]), source=0, dest=3)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        return next(
            c for c in result.qualified if c.graph.component("fa").peer == peer
        )

    def test_live_admittable_backup_passes_and_holds_claim(self):
        world = MicroWorld(n_peers=4)
        world.place("fa", peer=1)
        world.place("fa", peer=2)
        cand = self.candidate(world, 1)
        token = ("t", 1)
        assert revalidate_backup(cand, world.pool, world.bcp.alive, token)
        assert world.pool.has_token(token)  # the switch claim is booked
        world.pool.release(token)

    def test_dead_peer_fails_revalidation(self):
        world = MicroWorld(n_peers=4)
        world.place("fa", peer=1)
        world.place("fa", peer=2)
        cand = self.candidate(world, 1)
        world.dead.add(1)
        assert not revalidate_backup(cand, world.pool, world.bcp.alive, ("t", 2))
        assert not world.pool.has_token(("t", 2))

    def test_admission_failure_leaves_no_partial_claim(self):
        world = MicroWorld(n_peers=4)
        world.place("fa", peer=1, cpu=60.0)
        world.place("fa", peer=2, cpu=60.0)
        cand = self.candidate(world, 1)
        # someone else took the capacity since composition time
        from repro.core.resources import ResourceVector

        assert world.pool.soft_allocate_peer(
            ("blocker",), 1, ResourceVector({"cpu": 60.0})
        )
        assert not revalidate_backup(cand, world.pool, world.bcp.alive, ("t", 3))
        assert not world.pool.has_token(("t", 3))
        assert world.pool.active_tokens() == [("blocker",)]
