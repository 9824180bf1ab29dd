"""The virtual-time loop: a seeded cluster sends the same bytes every run.

On :class:`~repro.sim.vtime.VirtualTimeLoop` the clock moves only when
nothing is runnable, so the order of events is a function of the code and
the seed alone.  With the loopback transport's loss and delay drawn from
the seed, and every peer life's RPC incarnation and bundle nonce drawn
from (seed, peer, life), a lossy cluster with the measurement plane on
sends the same frames, byte for byte, in two fresh interpreters.

Why fresh interpreters: request, probe and component ids are
process-global counters (``core/request.py``, ``core/probe.py``,
``services/component.py``), so a second cluster built in the same process
continues them and its frames differ in those ids.  ``PYTHONHASHSEED`` is
pinned because set iteration over strings follows the hash seed.

Run directly (``python tests/test_net_vtime.py SEED``) the module prints
the digest of one run.
"""

import asyncio
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.net import ClusterConfig, LiveCluster, codec
from repro.sim import vtime


async def _digest(seed: int) -> str:
    """SHA-256 over ``(src, dst, frame bytes)`` of every send of a 16-peer
    cluster (20 ms one way, 2 % loss, measurement plane on) running 8
    confirmed composes."""
    cluster = LiveCluster(
        ClusterConfig(n_peers=16, n_functions=6, seed=seed, latency=0.02, loss=0.02)
    )
    digest = hashlib.sha256()
    send = cluster.transport.send

    async def hashed_send(src, dst, envelope):
        digest.update(f"{src}>{dst}:".encode() + codec.encode_frame(envelope))
        return await send(src, dst, envelope)

    cluster.transport.send = hashed_send
    async with cluster:
        results = [
            await cluster.compose(r, confirm=True, timeout=60)
            for r in cluster.scenario.requests.batch(8)
        ]
        # a returned compose has its releases sent, not applied: one the
        # lossy wire dropped is still retrying here, so drain them first
        for daemon in cluster.daemons.values():
            await daemon.drain()
        assert cluster.errors() == [] and cluster.soft_tokens() == {}
    assert any(r.success for r in results)
    return digest.hexdigest()


def _fresh_runs(*seeds):
    """The digest of one run per seed, each in its own interpreter."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, __file__, str(seed)], env=env, stdout=subprocess.PIPE, text=True
        )
        for seed in seeds
    ]
    try:
        out = [run.communicate(timeout=300)[0].strip() for run in runs]
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
    assert all(run.returncode == 0 for run in runs), out
    return out


def test_the_same_seed_sends_the_same_bytes():
    first, second, other = _fresh_runs(3, 3, 4)
    assert len(first) == 64
    assert first == second
    assert first != other


def test_an_await_nothing_will_resolve_raises_instead_of_hanging():
    async def stuck():
        cluster = LiveCluster(ClusterConfig(n_peers=4, n_functions=4, seed=1))
        async with cluster:
            await cluster.compose(cluster.scenario.requests.next_request(), timeout=60)
            # the measurement plane's probe timers are the only ones armed
            for daemon in cluster.daemons.values():
                daemon.measurement.stop()
            await asyncio.get_running_loop().create_future()

    with pytest.raises(vtime.Deadlock):
        vtime.run(stuck())


if __name__ == "__main__":
    print(vtime.run(_digest(int(sys.argv[1]))))
