"""Tests for structured event tracing."""

import json

import numpy as np
import pytest

from repro.sim.tracing import EventTrace, TraceEvent, trace_churn, trace_sessions
from repro.sim.vtime import VirtualTimeLoop, advance


class TestEventTrace:
    def test_record_explicit_time_and_fields(self):
        trace = EventTrace()
        e = trace.record("failure", time=7.0, peer=3, recovered=True)
        assert e.time == 7.0
        assert e.fields == {"peer": 3, "recovered": True}

    def test_capacity_drops_oldest(self):
        trace = EventTrace(capacity=3)
        for i in range(5):
            trace.record("e", time=float(i), i=i)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [e.fields["i"] for e in trace.events] == [2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventTrace(capacity=0)

    def test_select_by_category_and_window(self):
        trace = EventTrace()
        for i in range(10):
            trace.record("a" if i % 2 == 0 else "b", time=float(i))
        assert len(trace.select(category="a")) == 5
        assert len(trace.select(since=3.0, until=7.0)) == 4
        assert len(trace.select(category="b", since=3.0, until=7.0)) == 2

    def test_select_predicate(self):
        trace = EventTrace()
        trace.record("x", time=0.0, peer=1)
        trace.record("x", time=1.0, peer=2)
        out = trace.select(where=lambda e: e.fields.get("peer") == 2)
        assert len(out) == 1

    def test_categories_counts(self):
        trace = EventTrace()
        trace.record("a", time=0.0)
        trace.record("a", time=1.0)
        trace.record("b", time=2.0)
        assert trace.categories() == {"a": 2, "b": 1}

    def test_jsonl_round_trip(self, tmp_path):
        trace = EventTrace()
        trace.record("fail", time=1.5, peer=7)
        path = tmp_path / "trace.jsonl"
        assert trace.to_jsonl(path) == 1
        row = json.loads(path.read_text().strip())
        assert row == {"time": 1.5, "category": "fail", "peer": 7}

    def test_tail(self):
        trace = EventTrace()
        for i in range(30):
            trace.record("e", time=float(i))
        assert len(trace.tail(5)) == 5
        assert trace.tail(5)[-1].time == 29.0


class TestTaps:
    def test_trace_churn(self):
        from repro.sim.churn import ChurnProcess
        from repro.sim.network import MessageNetwork

        loop = VirtualTimeLoop()
        net = MessageNetwork()
        for i in range(5):
            net.register(i)
        churn = ChurnProcess(loop, net, fail_fraction=0.0, downtime=2.0,
                             rng=np.random.default_rng(0))
        trace = EventTrace()
        trace_churn(churn, trace)
        churn.fail(3)
        advance(loop)
        assert trace.categories() == {"peer_departed": 1, "peer_arrived": 1}
        departed = trace.select(category="peer_departed")[0]
        assert departed.fields["peer"] == 3

    def test_trace_sessions(self):
        from repro.core.session import RecoveryConfig, SessionManager
        from repro.core.function_graph import FunctionGraph
        from worlds import MicroWorld

        world = MicroWorld(n_peers=10)
        world.place("fa", peer=2)
        loop = VirtualTimeLoop()
        mgr = SessionManager(
            loop, world.bcp, config=RecoveryConfig(proactive=False, reactive=False)
        )
        trace = EventTrace()
        trace_sessions(mgr, trace)
        session = mgr.establish(
            world.request(FunctionGraph.linear(["fa"]), source=0, dest=9, duration=100.0)
        )
        world.kill(2)
        mgr.peer_departed(2)
        advance(loop, until=5.0)
        failures = trace.select(category="session_failure")
        assert len(failures) == 1
        assert failures[0].fields["recovered"] is False
