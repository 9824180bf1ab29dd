"""The event-driven BCP: basic operation and selection-time release.

The paper's protocol is asynchronous: probes travel for real time, the
destination selects when its window closes, the setup ack runs after.
The live daemons on the virtual-time loop (``repro.sim.vtime``) are that
protocol's discrete-event simulator, so these cases run a ``LiveCluster``
there.  ``test_net_lifecycle`` covers churn, expiry and contention.
"""

import asyncio

import pytest

from repro.sim import vtime
from repro.workload.generator import function_names
from test_net_lifecycle import ONE_WAY, _hosts, _one_function_request, _settled, _sparse
from test_net_release import _held


def _single_host(cluster):
    return next((f, s) for f, (s, *more) in sorted(_hosts(cluster).items()) if not more)


class TestBasicOperation:
    def test_simple_composition_succeeds(self):
        async def scenario():
            cluster = _sparse()
            function, spec = _single_host(cluster)
            request = _one_function_request(cluster, function, avoid={spec.peer})
            async with cluster:
                result = await cluster.compose(request, confirm=True, timeout=60)
                held = _held(cluster)
                soft, errors = _settled(cluster)
            return function, spec, result, held, soft, errors

        function, spec, result, held, soft, errors = vtime.run(scenario())
        assert errors == [] and soft == {}
        assert result.success
        assert result.best.component(function).peer == spec.peer
        assert result.session_tokens and held == set(result.session_tokens)

    def test_setup_time_is_virtual_elapsed(self):
        async def scenario():
            cluster = _sparse()
            function, spec = _single_host(cluster)
            request = _one_function_request(cluster, function, avoid={spec.peer})
            loop = asyncio.get_running_loop()
            async with cluster:
                t0 = loop.time()
                result = await cluster.compose(request, confirm=True, timeout=60)
                elapsed = loop.time() - t0
                soft, errors = _settled(cluster)
            return result, elapsed, soft, errors

        result, elapsed, soft, errors = vtime.run(scenario())
        assert errors == [] and soft == {}
        assert result.success
        assert result.setup_time > 0 and result.phases["setup_ack"] > 0
        # processing takes no virtual time: the compose lasts a whole number
        # of one-way delays, at least the warm-cache (n + 4) of a confirm
        hops = elapsed / ONE_WAY
        assert hops == pytest.approx(round(hops), abs=1e-9)
        assert round(hops) >= 1 + 4

    def test_invalid_budget_rejected(self):
        async def scenario():
            cluster = _sparse()
            function, spec = _single_host(cluster)
            request = _one_function_request(cluster, function, avoid={spec.peer})
            async with cluster:
                with pytest.raises(ValueError, match="budget"):
                    await cluster.compose(request, budget=0)
                soft, errors = _settled(cluster)
            return soft, errors

        soft, errors = vtime.run(scenario())
        assert errors == [] and soft == {}

    def test_failure_no_components(self):
        async def scenario():
            cluster = _sparse()
            ghost = next(f for f in function_names(12) if f not in _hosts(cluster))
            request = _one_function_request(cluster, ghost)
            async with cluster:
                result = await cluster.compose(request, confirm=True, timeout=60)
                soft, errors = _settled(cluster)
            return result, soft, errors

        result, soft, errors = vtime.run(scenario())
        assert errors == [] and soft == {}
        assert not result.success
        assert "no probe" in result.failure_reason


class TestSoftStateExpiry:
    def test_loser_reservations_released_at_selection(self):
        async def scenario():
            cluster = _sparse()
            function, specs = next((f, s) for f, s in sorted(_hosts(cluster).items()) if len(s) == 2)
            hosts = {s.peer for s in specs}
            request = _one_function_request(cluster, function, avoid=hosts)
            async with cluster:
                result = await cluster.compose(request, confirm=True, timeout=60)
                free = {
                    peer: (
                        cluster.daemons[peer].bcp.pool.available_amount(peer, "cpu"),
                        cluster.daemons[peer].bcp.pool.capacity(peer).get("cpu"),
                    )
                    for peer in hosts
                }
                held = _held(cluster)
                soft, errors = _settled(cluster)
            return function, hosts, result, free, held, soft, errors

        function, hosts, result, free, held, soft, errors = vtime.run(scenario())
        assert errors == [] and soft == {}
        assert result.success
        assert result.candidates_examined == 2  # both hosts reserved
        winner = result.best.component(function).peer
        (loser,) = hosts - {winner}
        available, capacity = free[loser]
        assert available == pytest.approx(capacity)
        assert free[winner][0] < free[winner][1]
        assert held == set(result.session_tokens)
