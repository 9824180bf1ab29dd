"""Tests for the streaming data plane over composed service graphs."""

import numpy as np
import pytest

from repro.core.bcp import BCPConfig
from repro.core.function_graph import FunctionGraph
from repro.core.session import RecoveryConfig, SessionManager
from repro.services.streaming import StreamingSession
from repro.sim.vtime import VirtualTimeLoop, advance

from worlds import MicroWorld


def composed_world(fns=("fa", "fb"), replicas=3):
    world = MicroWorld(n_peers=10, config=BCPConfig(budget=32))
    for i, fn in enumerate(fns):
        for r in range(replicas):
            world.place(fn, peer=2 + i * replicas + r, delay=0.002)
    return world


def compose_graph(world, fns=("fa", "fb")):
    req = world.request(FunctionGraph.linear(list(fns)), source=0, dest=9)
    result = world.bcp.compose(req, confirm=False)
    assert result.success
    return result.best


class TestBasicStreaming:
    def test_all_frames_delivered_without_loss(self):
        world = composed_world()
        graph = compose_graph(world)
        loop = VirtualTimeLoop()
        stream = StreamingSession(
            loop, world.overlay, lambda: graph, fps=10.0,
            rng=np.random.default_rng(0), model_loss=False,
        )
        stream.start(duration=2.0)
        advance(loop, until=5.0)
        assert stream.stats.frames_sent == 19  # emissions at 0.1..1.9
        assert stream.stats.frames_delivered == stream.stats.frames_sent
        assert stream.stats.delivery_ratio == 1.0

    def test_latency_matches_graph_delay(self):
        world = composed_world()
        graph = compose_graph(world)
        loop = VirtualTimeLoop()
        stream = StreamingSession(
            loop, world.overlay, lambda: graph, fps=5.0,
            rng=np.random.default_rng(0), model_loss=False,
        )
        stream.start(duration=1.0)
        advance(loop, until=5.0)
        expected = graph.end_to_end_qos(world.overlay).get("delay")
        assert stream.stats.mean_latency == pytest.approx(expected, rel=0.05)

    def test_loss_model_drops_some_frames(self):
        world = composed_world()
        # stretch the path: loss grows with delay in the micro world
        graph = compose_graph(world)
        loop = VirtualTimeLoop()
        stream = StreamingSession(
            loop, world.overlay, lambda: graph, fps=100.0,
            rng=np.random.default_rng(0), model_loss=True,
        )
        stream.start(duration=10.0)
        advance(loop, until=20.0)
        assert 995 <= stream.stats.frames_sent <= 1000  # float drift at 100 fps
        assert stream.stats.frames_delivered < stream.stats.frames_sent
        assert stream.stats.frames_lost_link > 0

    def test_media_transforms_applied_end_to_end(self):
        world = MicroWorld(n_peers=10, config=BCPConfig(budget=16))
        world.place("downscale", peer=2)
        world.place("requantify", peer=5)
        graph = compose_graph(world, fns=("downscale", "requantify"))
        loop = VirtualTimeLoop()
        received = []
        stream = StreamingSession(
            loop, world.overlay, lambda: graph, fps=5.0,
            rng=np.random.default_rng(0), model_loss=False,
        )
        # capture delivered frames by wrapping the stats recording
        original = stream.stats.latencies.append

        stream_arrive = stream._arrive

        def capture(frame, stage, sent_at):
            chain = graph.pattern.topological_order()
            if stage >= len(chain):
                received.append(frame)
            stream_arrive(frame, stage, sent_at)

        stream._arrive = capture
        stream.start(duration=1.0)
        advance(loop, until=5.0)
        assert received
        out = received[0]
        assert out.width == 320  # downscaled from 640
        assert out.quant_bits == 4  # requantified from 8

    def test_dag_rejected(self):
        world = MicroWorld(n_peers=10, config=BCPConfig(budget=32))
        fg = FunctionGraph.from_edges(
            ["fa", "fb", "fc", "fd"],
            [("fa", "fb"), ("fa", "fc"), ("fb", "fd"), ("fc", "fd")],
        )
        for fn, p in (("fa", 2), ("fb", 3), ("fc", 4), ("fd", 5)):
            world.place(fn, peer=p)
        req = world.request(fg, source=0, dest=9)
        result = world.bcp.compose(req, confirm=False)
        assert result.success
        loop = VirtualTimeLoop()
        stream = StreamingSession(loop, world.overlay, lambda: result.best)
        with pytest.raises(NotImplementedError):
            stream.start()

    def test_bad_fps_rejected(self):
        world = composed_world()
        with pytest.raises(ValueError):
            StreamingSession(VirtualTimeLoop(), world.overlay, lambda: None, fps=0.0)

    def test_no_graph_rejected(self):
        world = composed_world()
        stream = StreamingSession(VirtualTimeLoop(), world.overlay, lambda: None)
        with pytest.raises(RuntimeError):
            stream.start()


class TestFailoverGlitch:
    def failover_setup(self):
        world = composed_world(replicas=4)
        loop = VirtualTimeLoop()
        mgr = SessionManager(loop, world.bcp, config=RecoveryConfig(upper_bound=3.0))
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9,
            delay_bound=0.5, failure_req=0.02, duration=1000.0,
        )
        session = mgr.establish(req)
        assert session is not None and session.backups
        return world, loop, mgr, session

    def test_stream_survives_proactive_failover(self):
        world, loop, mgr, session = self.failover_setup()
        stream = StreamingSession(
            loop, world.overlay,
            lambda: session.current if session.active else None,
            fps=20.0,
            alive=lambda p: p not in world.dead,
            rng=np.random.default_rng(1),
            model_loss=False,
        )
        stream.start(duration=10.0)
        victim = session.current.component("fa").peer

        def kill():
            world.kill(victim)
            mgr.peer_departed(victim)

        loop.call_later(5.0, kill)
        advance(loop, until=15.0)
        stats = stream.stats
        assert session.active  # failover succeeded
        assert stats.frames_lost_peer > 0  # frames died with the peer
        assert stats.frames_delivered > 0.8 * stats.frames_sent
        # the user-visible glitch is bounded by detection + a few frames
        assert stats.longest_gap() < 2.0

    def test_glitch_without_recovery_is_stream_death(self):
        world = composed_world(replicas=4)
        loop = VirtualTimeLoop()
        mgr = SessionManager(
            loop, world.bcp, config=RecoveryConfig(proactive=False, reactive=False)
        )
        req = world.request(
            FunctionGraph.linear(["fa", "fb"]), source=0, dest=9, duration=1000.0
        )
        session = mgr.establish(req)
        stream = StreamingSession(
            loop, world.overlay,
            lambda: session.current if session.active else None,
            fps=20.0,
            alive=lambda p: p not in world.dead,
            rng=np.random.default_rng(1),
            model_loss=False,
        )
        stream.start(duration=10.0)
        victim = session.current.component("fa").peer

        def kill():
            world.kill(victim)
            mgr.peer_departed(victim)

        loop.call_later(5.0, kill)
        advance(loop, until=15.0)
        # without recovery the session fails: emission stops with it and
        # every frame after t=5 is lost, so barely half the 10 s x 20 fps
        # stream ever reaches the receiver
        assert not session.active
        expected_total = 10.0 * 20.0
        assert stream.stats.frames_delivered < 0.7 * expected_total
