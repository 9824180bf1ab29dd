"""Unit tests for peer churn processes."""

import numpy as np
import pytest

from repro.sim.churn import ChurnProcess
from repro.sim.network import MessageNetwork
from repro.sim.vtime import VirtualTimeLoop, advance


def make_world(n=50, seed=0):
    loop = VirtualTimeLoop()
    net = MessageNetwork()
    for i in range(n):
        net.register(i)
    return loop, net


class TestChurnProcess:
    def test_expected_failure_count(self):
        loop, net = make_world(n=200)
        churn = ChurnProcess(loop, net, fail_fraction=0.05, revive=False, rng=np.random.default_rng(0))
        churn.start()
        advance(loop, until=10.0)
        # E[failures] over 10 ticks of 200 peers (shrinking pool) ~ 80;
        # loose band to stay seed-robust
        assert 40 <= churn.failures <= 130

    def test_zero_fraction_never_fails(self):
        loop, net = make_world()
        churn = ChurnProcess(loop, net, fail_fraction=0.0, rng=np.random.default_rng(0))
        churn.start()
        advance(loop, until=20.0)
        assert churn.failures == 0

    def test_bad_fraction_rejected(self):
        loop, net = make_world()
        with pytest.raises(ValueError):
            ChurnProcess(loop, net, fail_fraction=1.5)

    def test_departure_listener_called_with_time(self):
        loop, net = make_world()
        churn = ChurnProcess(
            loop, net, fail_fraction=0.0, revive=False, rng=np.random.default_rng(0)
        )
        events = []
        churn.on_departure(lambda nid, t: events.append((nid, t)))
        loop.call_later(3.0, churn.fail, 7)
        advance(loop)
        assert events == [(7, 3.0)]
        assert not net.is_alive(7)

    def test_revival_restores_liveness_and_notifies(self):
        loop, net = make_world()
        churn = ChurnProcess(
            loop, net, fail_fraction=0.0, revive=True, downtime=5.0, rng=np.random.default_rng(0)
        )
        arrivals = []
        churn.on_arrival(lambda nid, t: arrivals.append((nid, t)))
        churn.fail(3)
        advance(loop)
        assert net.is_alive(3)
        assert arrivals == [(3, 5.0)]
        assert churn.revivals == 1

    def test_no_revive_mode(self):
        loop, net = make_world()
        churn = ChurnProcess(loop, net, fail_fraction=0.0, revive=False, rng=np.random.default_rng(0))
        churn.fail(3)
        advance(loop, until=100.0)
        assert not net.is_alive(3)

    def test_protected_peers_never_fail(self):
        loop, net = make_world(n=20)
        churn = ChurnProcess(
            loop, net, fail_fraction=1.0, revive=False,
            rng=np.random.default_rng(0), protected={0, 1},
        )
        churn.start()
        advance(loop, until=2.0)
        assert net.is_alive(0) and net.is_alive(1)
        assert churn.failures == 18

    def test_fail_is_idempotent_on_dead_peer(self):
        loop, net = make_world()
        churn = ChurnProcess(loop, net, fail_fraction=0.0, rng=np.random.default_rng(0))
        churn.fail(2)
        churn.fail(2)
        assert churn.failures == 1

    def test_stop_halts_ticks(self):
        loop, net = make_world()
        churn = ChurnProcess(loop, net, fail_fraction=1.0, revive=False, rng=np.random.default_rng(0))
        churn.start()
        advance(loop, until=1.0)
        churn.stop()
        failed_so_far = churn.failures
        advance(loop, until=10.0)
        assert churn.failures == failed_so_far

    def test_double_start_rejected(self):
        loop, net = make_world()
        churn = ChurnProcess(loop, net, rng=np.random.default_rng(0))
        churn.start()
        with pytest.raises(RuntimeError):
            churn.start()
