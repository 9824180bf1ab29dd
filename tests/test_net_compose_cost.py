"""What a compose costs, counted exactly: tasks, handles, timers, frames.

On the virtual-time loop a seeded cluster runs the same events in the
same order every time, so the work one compose makes the event loop and
the wire do is a number, not a distribution.  This test pins those
numbers for seven sequential measurement-only composes of a 16-peer
loopback cluster, after one warm-up compose has filled the directory
caches.  A change that adds a task, a timer or a frame per compose (or
saves one) has to change the pins here, in its own diff.

The same cluster is counted twice: once with the measurement plane off
(no wire delay: only the protocol's own frames), and once with the plane
on over a constant wire delay, so its probe cycles run between and
during the composes.  The second case also pins the plane's own
counters, cumulative from boot: how many probes it sent and suppressed,
how many samples it took, how often it re-priced a link.

The counts are taken from outside ``src/``: a :class:`VirtualTimeLoop`
subclass counts ``call_soon`` handles and ``call_at`` timers
(``call_later`` is a ``call_at``), its task factory counts tasks, and
:meth:`LiveCluster.rpc_stats` counts RPC calls, frames and bytes.
Request, probe and component ids are process-global counters whose width
on the wire depends on their value, so the test restarts them: the
counts then do not depend on which tests ran before this one.

Frames, bytes and calls are the protocol's and hold on every Python.
Handles, timers and tasks also count what asyncio does inside a
``gather`` or a ``wait_for``, which differs between Python versions, so
they are pinned per interpreter version.
"""

import asyncio
import itertools
import sys

import pytest

from repro.core import probe, request
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.sim import vtime
from repro.services import component

COMPOSES = 7

# what the seven composes send, on any Python
WIRE = {"calls": 350, "frames": 700, "bytes": 204275, "succeeded": 7}

# what they make the event loop do, per interpreter (major, minor).  A
# served request, a probe hop and a post that do not wait are no task,
# and every reply deadline, backoff and daemon timeout sits on its
# endpoint's or daemon's one timer: the tasks left are each compose's
# own, its begin's and its finalize's, and the directory lookups that
# miss with the probe hops that wait for them
LOOP = {
    (3, 11): {"tasks": 150, "handles": 1394, "timers": 11},
}

# the plane-on case: one-way wire delay, and what it sends and does
PLANE_LATENCY = 0.02
PLANE_WIRE = {"calls": 401, "frames": 802, "bytes": 210548, "succeeded": 7}
# timers due at the same instant run in the order they were scheduled:
# one fewer handle than under asyncio's own tie order.  Most timers are
# the delay pumps', one per frame that finds its link idle
PLANE_LOOP = {
    (3, 11): {"tasks": 148, "handles": 1086, "timers": 700},
}
# a constant delay moves no estimate: nothing is re-priced
PLANE_STATS = {
    "probes_sent": 51,
    "probes_suppressed": 45,
    "samples_active": 51,
    "samples_passive": 509,
    "reprices": 0,
    "router_rebuilds": 0,
}


class _CountingLoop(vtime.VirtualTimeLoop):
    def __init__(self) -> None:
        super().__init__()
        self.handles = 0
        self.timers = 0
        self.tasks = 0
        self.set_task_factory(self._count_task)

    def _count_task(self, loop, coro, **kwargs):
        self.tasks += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    def call_soon(self, *args, **kwargs):
        self.handles += 1
        return super().call_soon(*args, **kwargs)

    def call_at(self, *args, **kwargs):
        self.timers += 1
        return super().call_at(*args, **kwargs)

    def counts(self) -> dict:
        return {"tasks": self.tasks, "handles": self.handles, "timers": self.timers}


async def _composes(loop: _CountingLoop, config: ClusterConfig) -> dict:
    cluster = LiveCluster(config)
    async with cluster:
        requests = cluster.scenario.requests.batch(COMPOSES + 1)
        await cluster.compose(requests[0], confirm=False, timeout=60)  # warms the caches
        loop_before, wire_before = loop.counts(), cluster.rpc_stats()
        results = [
            await cluster.compose(r, confirm=False, timeout=60) for r in requests[1:]
        ]
        loop_after, wire_after = loop.counts(), cluster.rpc_stats()
        # the last releases are on the wire, not yet applied: one more
        # round trip of wire delay and every holder has dropped its tokens
        await asyncio.sleep(2 * config.latency)
        assert cluster.errors() == []
        assert cluster.soft_tokens() == {}
        assert cluster.shared_guard.violations == []
        stats = cluster.measurement_stats()
    out = {k: loop_after[k] - loop_before[k] for k in loop_after}
    out["calls"] = wire_after["calls_sent"] - wire_before["calls_sent"]
    out["frames"] = wire_after["frames_sent"] - wire_before["frames_sent"]
    out["bytes"] = wire_after["bytes_sent"] - wire_before["bytes_sent"]
    out["succeeded"] = sum(r.success for r in results)
    out.update((k, stats[k]) for k in PLANE_STATS)
    return out


def _count(config: ClusterConfig) -> dict:
    # the ids restart, so their encoded widths are this test's alone
    saved = request._request_ids, probe._probe_ids, component._component_ids
    request._request_ids = itertools.count(1)
    probe._probe_ids = itertools.count(1)
    component._component_ids = itertools.count(1)
    loop = _CountingLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(_composes(loop, config))
    finally:
        request._request_ids, probe._probe_ids, component._component_ids = saved
        asyncio.set_event_loop(None)
        loop.close()


@pytest.fixture(scope="module")
def counts():
    return _count(
        ClusterConfig(
            n_peers=16, n_functions=6, seed=5, measurement=MeasurementConfig(enabled=False)
        )
    )


@pytest.fixture(scope="module")
def plane_counts():
    return _count(ClusterConfig(n_peers=16, n_functions=6, seed=5, latency=PLANE_LATENCY))


def _loop_pins(table: dict, counts: dict) -> dict:
    pinned = table.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(
            f"no loop counts pinned for Python {sys.version_info.major}."
            f"{sys.version_info.minor}: {counts}"
        )
    return pinned


def test_seven_composes_send_exactly_the_pinned_frames(counts):
    assert {k: counts[k] for k in WIRE} == WIRE


def test_seven_composes_make_exactly_the_pinned_tasks_handles_and_timers(counts):
    pinned = _loop_pins(LOOP, counts)
    assert {k: counts[k] for k in pinned} == pinned


def test_plane_on_composes_send_exactly_the_pinned_frames(plane_counts):
    assert {k: plane_counts[k] for k in PLANE_WIRE} == PLANE_WIRE


def test_plane_on_composes_make_exactly_the_pinned_tasks_handles_and_timers(
    plane_counts,
):
    pinned = _loop_pins(PLANE_LOOP, plane_counts)
    assert {k: plane_counts[k] for k in pinned} == pinned


def test_plane_on_counters_are_the_pinned_ones(plane_counts):
    assert {k: plane_counts[k] for k in PLANE_STATS} == PLANE_STATS
