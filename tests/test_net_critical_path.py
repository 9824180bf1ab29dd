"""What a live compose waits for: one-way hops, not per-hop round trips.

Everything the destination must know before its window may close (who
reserved what, the discovery RTT) travels with the probes' termination
credit, so no admitting peer — and not the source — stops for a round
trip of its own to the destination.  With a constant one-way delay L on
every frame and warm lookup caches, a sequential measurement-only
compose of an n-function chain is therefore bounded by

    begin RTT + (n + 1) one-way probe hops + release RTT + result
    = (n + 6) * L

plus processing.  A report awaited at every admitting hop adds 2L per
hop, and a discovery report 2L more: the bound below leaves half of
that as slack, so a re-serialised round trip fails here instead of only
moving a benchmark number.
"""

import asyncio
import dataclasses
import time

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig

ONE_WAY = 0.02


def test_compose_waits_for_one_way_hops_not_per_hop_round_trips():
    async def scenario():
        cluster = LiveCluster(
            ClusterConfig(
                n_peers=16,
                n_functions=6,
                seed=7,
                capacity_scale=10.0,
                latency=ONE_WAY,
                # no PathProbe frames, no re-pricing between the passes
                measurement=MeasurementConfig(enabled=False),
                bcp_config=BCPConfig(
                    budget=32,
                    nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
                ),
            )
        )
        request = next(
            r
            for r in cluster.scenario.requests.batch(20)
            if r.function_graph.is_linear()
            and len(r.function_graph.functions) >= 3
            and cluster.scenario.net.bcp.compose(r, confirm=False).success
        )
        async with cluster:
            # first pass: fills every lookup cache the wave touches
            warm = await cluster.compose(request, confirm=False, timeout=60)
            results, times = [], []
            for k in (1, 2, 3):
                again = dataclasses.replace(request, request_id=request.request_id + k * 10_000_000)
                t0 = time.perf_counter()
                results.append(await cluster.compose(again, confirm=False, timeout=60))
                times.append(time.perf_counter() - t0)
            soft, errors = cluster.soft_tokens(), cluster.errors()
        return request, warm, results, times, soft, errors

    request, warm, results, times, soft, errors = asyncio.run(scenario())
    assert errors == [] and soft == {}
    assert warm.success
    for result in results:
        assert result.success and result.best.signature() == warm.best.signature()
    # the bound is on what the protocol puts in series, so a scheduling
    # hiccup in one pass must not decide it: the fastest of three counts
    elapsed = min(times)
    n = len(request.function_graph.functions)
    hops = n + 6  # begin 2, probes n, final 1, release 2, result 1
    assert elapsed >= hops * ONE_WAY  # the emulated delay really applies
    slack = n * ONE_WAY  # half of what a report round trip per hop would add
    assert elapsed < hops * ONE_WAY + slack, (
        f"{n}-function chain took {elapsed * 1e3:.0f} ms: more than "
        f"{hops} one-way hops of {ONE_WAY * 1e3:.0f} ms + {slack * 1e3:.0f} ms"
    )
