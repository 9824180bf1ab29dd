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

Two more pins read the same runs.  A SHA-256 over ``(src, dst, frame
bytes)`` of every send, from boot to the last release, says the wire did
not change by one byte (the frame and byte counts could hold while the
bytes move).  And the Python-level calls each layer makes during the
seven composes, counted from ``sys.setprofile`` ``call`` events (a
generator or coroutine resuming is one too; C builtins are not counted)
by the module the called code belongs to: one row per ``repro``
package, ``repro.net.codec`` on its own, and one for asyncio.  They are
the same under every ``PYTHONHASHSEED``; like the loop counts they are
pinned per interpreter version, and they are read without ``-X dev``,
whose asyncio debug mode makes calls of its own.

The same call table is read off the synchronous engine: composing the
gate's seven requests of the same scenario (the per-hop work both
substrates share, with no wire), composing forty requests on a 200-peer
overlay after one warm-up (where ranking duplicates is most of a
compose), and, under ``pytest --paper-scale``, twenty on the paper's
1000-peer testbed.  Each also pins a SHA-256 over what each compose
returned, so a change that moves the calls shows whether it moved a
selection too.
"""

import asyncio
import contextlib
import gc
import hashlib
import itertools
import sys

import pytest

from repro.core import probe, request
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig
from repro.net import codec
from repro.net import transport as net_transport
from repro.sim import vtime
from repro.services import component
from repro.workload.scenarios import simulation_testbed

COMPOSES = 7

# what the seven composes send, on any Python
WIRE = {"calls": 350, "frames": 700, "bytes": 204975, "succeeded": 7}

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
PLANE_WIRE = {"calls": 401, "frames": 802, "bytes": 211350, "succeeded": 7}
# timers due at the same instant run in the order they were scheduled:
# one fewer handle than under asyncio's own tie order.  Most timers are
# the delay pumps', one per frame that finds its link idle
PLANE_LOOP = {
    (3, 11): {"tasks": 148, "handles": 1086, "timers": 700},
}
# SHA-256 over (src, dst, frame bytes) of every send of each cluster
# (wire version 9)
DIGEST = "7a6810e89a141730731449d249cb0f71be678d7f172d3e57aaaf89ee8b70dad6"
PLANE_DIGEST = "ffab1c567083e96c08f972097672ec6c81e8c1119c30e6ca4ce710c2a7e59919"

# Python-level calls during the seven composes, by the package of the
# called code (repro.net.codec apart from the rest of repro.net).  An
# edge's attribute read (``graph.edges[u, v]``) is a repro.topology call:
# the graph is the package's own.  The codec's blob memos hold their
# objects weakly: a memoized miss makes the weak reference (one call),
# and an object's death runs the callback that drops its entry (one more)
CALLS = {
    (3, 11): {
        "repro.net.codec": 10343, "repro.net": 19793, "asyncio": 16135,
        "repro.core": 14748, "repro.sim": 4747, "repro.topology": 1990,
        "repro.dht": 3607, "repro.services": 562,
    },
}
PLANE_CALLS = {
    (3, 11): {
        "repro.net.codec": 11821, "repro.net": 26803, "asyncio": 23016,
        "repro.core": 14748, "repro.sim": 15459, "repro.topology": 1990,
        "repro.dht": 3607, "repro.services": 562,
    },
}

# the synchronous engine composing the same seven requests of the same
# scenario after the same warm-up: BCP's steps, discovery, routing and
# resources with no wire.  Calls per layer as above; the digest is over
# what each compose returned, pinned per interpreter like the figure pins
# (Python 3.12's float sum() is compensated)
SYNC_CALLS = {
    (3, 11): {
        "repro.core": 14203, "repro.topology": 1907, "repro.dht": 4214, "repro.sim": 1030,
        "repro.discovery": 589, "repro.services": 526, "repro.perf": 63,
    },
}
SYNC_DIGEST = {(3, 11): "740607d151624f04b20f942f2ff33f6bd35bbb67cc8907ac82e01cefeabb3081"}

# the paper-scale row: forty sync composes on a 200-peer overlay, after
# one warm-up (no route is memoized: a route read walks the router's
# rows, as in the warm-up).  Soft
# tokens are cancelled in sorted order, so the link loads a compose
# leaves, and so the digest, are the same under every PYTHONHASHSEED
PAPER_COMPOSES = 40
PAPER_TESTBED = dict(n_peers=200, n_functions=6, seed=5)
PAPER_CALLS = {
    (3, 11): {
        "repro.core": 215206, "repro.topology": 22044, "repro.sim": 84843,
        "repro.dht": 82899, "repro.services": 75954, "repro.discovery": 7771,
        "repro.perf": 360,
    },
}
PAPER_DIGEST = {(3, 11): "2014e30bbddba1becf99215197fe81dcc917e661df156a0466d244485a36f3b9"}

# the paper's own testbed size: twenty sync composes on a 1000-peer
# overlay (2000 routers), after one warm-up.  Building it takes seconds,
# so it runs only under ``--paper-scale`` (the compose-cost CI job)
PAPER_1000_COMPOSES = 20
PAPER_1000_TESTBED = dict(n_peers=1000, n_functions=6, seed=5)
PAPER_1000_CALLS = {
    (3, 11): {
        "repro.core": 239465, "repro.topology": 11663, "repro.sim": 177339,
        "repro.services": 167806, "repro.dht": 33982, "repro.discovery": 3686,
        "repro.perf": 180,
    },
}
PAPER_1000_DIGEST = {(3, 11): "e8ecb81cbb60a1e1beb748dfb8a9db8cf5eb363d1b04a2c3aaea3fee72206a70"}

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


def _row(module: str) -> str:
    """The call-count row of code defined in ``module``."""
    if module == "repro.net.codec":
        return module
    if module.startswith("repro."):
        return ".".join(module.split(".")[:2])
    if module == "asyncio" or module.startswith("asyncio."):
        return "asyncio"
    return ""


class _CallCounter:
    """Python-level ``call`` events by :func:`_row`, while switched on."""

    def __init__(self) -> None:
        self.calls: dict = {}
        self._rows: dict = {}  # module name -> row, memoized

    def _event(self, frame, event, arg) -> None:
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            row = self._rows.get(module)
            if row is None:
                row = self._rows[module] = _row(module)
            if row:
                self.calls[row] = self.calls.get(row, 0) + 1

    def __enter__(self) -> "_CallCounter":
        # no collector pass inside the window: when one runs depends on
        # what earlier tests left on the heap, and a finalizer it runs
        # would be counted
        gc.collect()
        gc.disable()
        sys.setprofile(self._event)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        gc.enable()


def _hash_sends(cluster: LiveCluster, digest) -> None:
    """Feed ``digest`` ``(src, dst, frame bytes)`` of every send: the frame
    the transport encodes, so the codec runs once per send as it would."""
    send, link = cluster.transport.send, []
    encode = net_transport.encode_frame

    async def hashed_send(src, dst, envelope):
        link[:] = [src, dst]
        return await send(src, dst, envelope)

    def hashed_encode(envelope, *args):
        frame = encode(envelope, *args)
        src, dst = link
        digest.update(f"{src}>{dst}:".encode() + frame)
        return frame

    cluster.transport.send = hashed_send
    net_transport.encode_frame = hashed_encode


async def _composes(loop: _CountingLoop, config: ClusterConfig) -> dict:
    cluster = LiveCluster(config)
    digest = hashlib.sha256()
    _hash_sends(cluster, digest)
    async with cluster:
        requests = cluster.scenario.requests.batch(COMPOSES + 1)
        await cluster.compose(requests[0], confirm=False, timeout=60)  # warms the caches
        loop_before, wire_before = loop.counts(), cluster.rpc_stats()
        with _CallCounter() as counter:
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
    out["digest"] = digest.hexdigest()
    out["calls_by_row"] = counter.calls
    return out


@contextlib.contextmanager
def _fresh_ids():
    """Restart the process-global request, probe and component ids, so
    their encoded widths (and every id-ordered tie) are this test's alone."""
    saved = request._request_ids, probe._probe_ids, component._component_ids
    request._request_ids = itertools.count(1)
    probe._probe_ids = itertools.count(1)
    component._component_ids = itertools.count(1)
    try:
        yield
    finally:
        request._request_ids, probe._probe_ids, component._component_ids = saved


def _count(config: ClusterConfig) -> dict:
    # the codec's cross-frame memos start empty: a blob or a string an
    # earlier test left there would be a hit here, and cost no calls
    for memo in (codec._ENC_BLOBS, codec._DEC_BLOBS, codec._LITERALS):
        memo.clear()
    loop = _CountingLoop()
    encode = net_transport.encode_frame
    try:
        asyncio.set_event_loop(loop)
        with _fresh_ids():
            return loop.run_until_complete(_composes(loop, config))
    finally:
        net_transport.encode_frame = encode
        asyncio.set_event_loop(None)
        loop.close()


def _testbed(config: ClusterConfig) -> dict:
    """The arguments :class:`LiveCluster` builds its scenario with."""
    return dict(
        n_ip=max(4 * config.n_peers, 64),
        n_peers=config.n_peers,
        n_functions=config.n_functions,
        components_per_peer=config.components_per_peer,
        request_config=config.request_config,
        bcp_config=config.bcp_config,
        capacity_scale=config.capacity_scale,
        seed=config.seed,
    )


def _sync_count(composes: int, **testbed) -> dict:
    """The synchronous engine's ``composes`` measurement-only composes
    after one warm-up, on a fresh ``simulation_testbed(**testbed)``:
    Python calls per layer, and a SHA-256 over what each compose
    returned (success, selection, ψλ, probes, setup time, failure)."""
    with _fresh_ids():
        scenario = simulation_testbed(**testbed)
        requests = scenario.requests.batch(composes + 1)
        scenario.net.compose(requests[0], confirm=False)  # warms the caches
        with _CallCounter() as counter:
            results = [scenario.net.compose(r, confirm=False) for r in requests[1:]]
    digest = hashlib.sha256()
    for r in results:
        selected = None if r.best is None else sorted(r.best.signature()[1])
        digest.update(
            repr(
                (r.success, selected, r.best_cost, r.probes_sent, r.setup_time, r.failure_reason)
            ).encode()
        )
    return {
        "succeeded": sum(r.success for r in results),
        "calls_by_row": counter.calls,
        "digest": digest.hexdigest(),
    }


@pytest.fixture(scope="module")
def counts():
    return _count(
        ClusterConfig(
            n_peers=16, n_functions=6, seed=5, measurement=MeasurementConfig(enabled=False)
        )
    )


@pytest.fixture(scope="module")
def sync_counts():
    config = ClusterConfig(n_peers=16, n_functions=6, seed=5)
    return _sync_count(COMPOSES, **_testbed(config))


@pytest.fixture(scope="module")
def paper_counts():
    return _sync_count(PAPER_COMPOSES, **PAPER_TESTBED)


@pytest.fixture(scope="module")
def paper_1000_counts(pytestconfig):
    if not pytestconfig.getoption("paper_scale"):
        pytest.skip("the 1000-peer row runs under --paper-scale")
    return _sync_count(PAPER_1000_COMPOSES, **PAPER_1000_TESTBED)


@pytest.fixture(scope="module")
def plane_counts():
    return _count(ClusterConfig(n_peers=16, n_functions=6, seed=5, latency=PLANE_LATENCY))


def _loop_pins(table: dict, counts: dict) -> dict:
    pinned = table.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip(
            f"nothing pinned for Python {sys.version_info.major}."
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


def test_seven_composes_send_exactly_the_pinned_bytes(counts):
    assert counts["digest"] == DIGEST


def test_plane_on_composes_send_exactly_the_pinned_bytes(plane_counts):
    assert plane_counts["digest"] == PLANE_DIGEST


def _call_pins(table: dict, counts: dict) -> dict:
    if sys.flags.dev_mode:
        # asyncio's debug mode (python -X dev) instruments the loop with calls of its own
        pytest.skip(f"call counts are pinned without -X dev: {counts}")
    return _loop_pins(table, counts)


def test_seven_composes_make_exactly_the_pinned_python_calls_per_layer(counts):
    pinned = _call_pins(CALLS, counts["calls_by_row"])
    assert counts["calls_by_row"] == pinned


def test_plane_on_composes_make_exactly_the_pinned_python_calls_per_layer(plane_counts):
    pinned = _call_pins(PLANE_CALLS, plane_counts["calls_by_row"])
    assert plane_counts["calls_by_row"] == pinned


def test_seven_sync_composes_make_exactly_the_pinned_python_calls_per_layer(sync_counts):
    assert sync_counts["succeeded"] == COMPOSES
    assert sync_counts["digest"] == _loop_pins(SYNC_DIGEST, sync_counts)
    pinned = _call_pins(SYNC_CALLS, sync_counts["calls_by_row"])
    assert sync_counts["calls_by_row"] == pinned


def test_paper_scale_sync_composes_make_exactly_the_pinned_python_calls_per_layer(
    paper_counts,
):
    assert paper_counts["succeeded"] == PAPER_COMPOSES
    assert paper_counts["digest"] == _loop_pins(PAPER_DIGEST, paper_counts)
    pinned = _call_pins(PAPER_CALLS, paper_counts["calls_by_row"])
    assert paper_counts["calls_by_row"] == pinned


def test_thousand_peer_sync_composes_make_exactly_the_pinned_python_calls_per_layer(
    paper_1000_counts,
):
    counts = paper_1000_counts
    assert counts["succeeded"] == PAPER_1000_COMPOSES
    assert counts["digest"] == _loop_pins(PAPER_1000_DIGEST, counts)
    pinned = _call_pins(PAPER_1000_CALLS, counts["calls_by_row"])
    assert counts["calls_by_row"] == pinned
