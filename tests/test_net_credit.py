"""Termination credit is an integer, and none of it is ever lost.

The root probe holds ``CREDIT``; a fan-out splits its credit among the
children in proportion to their budgets, the first child taking the
remainder; the destination's window closes when the credit it was handed
back sums to ``CREDIT``.  Two properties make that sound:

* the split is exact (shares sum to the parent's credit) and no share is
  below its child's budget — so, as budgets are at least one, no share is
  ever zero at any depth (the property test below);
* on a fault-free cluster every destination gets exactly ``CREDIT`` back
  and closes every window on it, never on the wall-clock fallback (the
  live test, on virtual time, over chains, diamonds and commutations).
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.bcp import BCPConfig, NextHopWeights
from repro.net import ClusterConfig, LiveCluster, MeasurementConfig, codec
from repro.sim import vtime
from repro.net.peer import CREDIT, _split_credit
from repro.workload.generator import RequestConfig

from worlds import fuzz_settings


@st.composite
def _fan_outs(draw):
    """(credit, budget, child budgets) with credit >= budget >= their sum."""
    child_budgets = draw(st.lists(st.integers(1, 2**16), min_size=1, max_size=40))
    budget = sum(child_budgets) + draw(st.integers(0, 2**16) | st.just(0))
    credit = draw(st.just(budget) | st.integers(budget, 2 * budget) | st.integers(budget, CREDIT))
    return credit, budget, tuple(child_budgets)


@fuzz_settings(500)
@given(fan_out=_fan_outs())
# one heavy child beside light siblings: an equal split starves it
@example(fan_out=(16, 16, (14, 1, 1)))
def test_a_split_is_exact_and_no_share_is_below_its_childs_budget(fan_out):
    credit, budget, child_budgets = fan_out
    shares = _split_credit(credit, budget, child_budgets)
    assert sum(shares) == credit
    assert len(shares) == len(child_budgets)
    assert all(share >= b for share, b in zip(shares, child_budgets))


def _cluster(request_config=None):
    return LiveCluster(
        ClusterConfig(
            n_peers=16,
            n_functions=6,
            seed=11,
            capacity_scale=10.0,
            measurement=MeasurementConfig(enabled=False),
            request_config=request_config,
            bcp_config=BCPConfig(
                budget=32,
                nexthop_weights=NextHopWeights(delay=0.6, bandwidth=0.0, failure=0.4),
            ),
        )
    )


@pytest.mark.parametrize(
    "requests",
    [
        None,
        RequestConfig(function_count=(4, 4), dag_probability=1.0),
        RequestConfig(function_count=(3, 3), commutation_probability=1.0),
    ],
    ids=["seeded", "diamond", "commutation"],
)
def test_every_destination_gets_back_exactly_the_credit_it_handed_out(requests):
    async def scenario():
        cluster = _cluster(requests)
        returned = {}  # request id -> credit sent home to its destination
        probes = []  # (credit, budget) of every ProbeTransfer on the wire
        send = cluster.transport.send

        async def count_credit(src, dst, envelope):
            body = envelope.get("body")
            if envelope.get("kind") == "req":
                if isinstance(body, (codec.FinalProbe, codec.CreditReturn)):
                    returned[body.request_id] = returned.get(body.request_id, 0) + body.credit
                elif isinstance(body, codec.ProbeTransfer):
                    probes.append((body.credit, body.budget))
            return await send(src, dst, envelope)

        cluster.transport.send = count_credit
        closed = []
        for daemon in cluster.daemons.values():

            async def finalize(rid, why, _inner=daemon._finalize):
                closed.append(why)
                return await _inner(rid, why)

            daemon._finalize = finalize
        async with cluster:
            batch = cluster.scenario.requests.batch(6)
            results = [await cluster.compose(r, confirm=False, timeout=60) for r in batch]
            soft, errors = cluster.soft_tokens(), cluster.errors()
        return batch, results, returned, probes, closed, soft, errors

    batch, results, returned, probes, closed, soft, errors = vtime.run(scenario())
    assert errors == [] and soft == {}
    assert any(r.success for r in results), "fixture must compose something"
    assert returned == {r.request_id: CREDIT for r in batch}
    assert closed == ["credit-complete"] * len(batch)
    assert probes and all(credit >= budget for credit, budget in probes)
