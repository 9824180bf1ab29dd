"""The search engine's per-function QoS bounds against the per-branch rule.

``PatternState`` never enumerates branch paths: it keeps the largest exact
prefix per assigned function and the largest admissible remainder per
function.  The paper states the bound per branch path (§2.2, §4.3), so the
reference here does exactly that — for every source→sink path, the exact
QoS of its assigned prefix plus the Qp minima and cheapest final hop of
the rest, summed in the order the per-branch engine summed them — and the
two must agree to the last bit at every node, on DAGs with several
sources and several sinks, in random walks and inside real searches.

The second half pins what the benchmark's six ``large-graph`` cells do
(best cost, complete graphs, stitch steps, cuts) and that a search that
unwinds leaves the state as it found it.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.cost import CostWeights, psi_cost
from repro.core.function_graph import FunctionGraph
from repro.core.qos import QoSRequirement
from repro.core.service_graph import ServiceGraph
from repro.core.strategies import create_strategy, search
from repro.core.strategies.search import (
    PatternState,
    _dfs,
    _Incumbent,
    _NodeLimit,
    prepare_candidates,
    search_compositions,
)
from repro.perf.counters import OpCounters
from repro.workload.largegraph import LargeGraphConfig, largegraph_world

from worlds import MicroWorld, micro_context

N_PEERS = 12


def forked_world(seed: int, n_functions: int = 9, per_function: int = 3):
    """A random DAG with at least two sources and two sinks, candidates
    scattered over a line-metric overlay; the destination hosts a sink
    candidate so the zero final hop is exercised too."""
    rng = np.random.default_rng(seed)
    names = [f"f{i}" for i in range(n_functions)]
    inner = range(2, n_functions - 2)
    edges = set()
    for i in inner:  # every inner function hangs off something earlier
        edges.add((names[int(rng.integers(0, i))], names[i]))
    for i in (n_functions - 2, n_functions - 1):  # the two sinks
        edges.add((names[int(rng.integers(0, n_functions - 2))], names[i]))
    for i in (0, 1):  # the two sources feed something
        edges.add((names[i], names[int(rng.integers(2, n_functions))]))
    for _ in range(n_functions // 2):  # a few forward chords
        a, b = sorted(int(x) for x in rng.choice(n_functions - 2, 2, replace=False))
        if b >= 2:
            edges.add((names[a], names[b]))
    graph = FunctionGraph.from_edges(names, edges)
    assert len(graph.sources()) >= 2 and len(graph.sinks()) >= 2

    world = MicroWorld(n_peers=N_PEERS)
    for fn in names:
        for _ in range(per_function):
            world.place(
                fn,
                int(rng.integers(0, N_PEERS)),
                delay=float(rng.uniform(0.001, 0.02)),
                loss=float(rng.uniform(0.0, 0.01)),
                cpu=float(rng.uniform(2.0, 20.0)),
            )
    dest = world.registry.duplicates(graph.sinks()[0])[0].peer
    request = world.request(graph, source=int(rng.integers(0, N_PEERS)), dest=dest)
    return world, request


def build_state(world, request, objective="cost"):
    weights = CostWeights.uniform(world.pool.resource_types)
    counters = OpCounters()
    candidates = prepare_candidates(
        request.function_graph.functions, micro_context(world).duplicates(request),
        world.pool, weights, lambda peer: True, objective, counters=counters,
    )
    return PatternState(
        request.function_graph, candidates, request, world.overlay, world.pool,
        weights, counters,
    )


def branch_bounds(state):
    """Per branch path, ``exact prefix + admissible remainder`` as
    (delay, loss), recomputed from nothing but the current assignment."""
    overlay, request = state.overlay, state.request
    out = []
    for branch in state.pattern.branches():
        acc_delay = acc_loss = 0.0
        done = 0
        prev_peer = request.source_peer
        for j, fn in enumerate(branch):
            if fn not in state.assignment:
                break
            cand = state.assignment[fn]
            peer = cand.meta.peer
            step_delay, step_loss = cand.qp_delay, cand.qp_loss
            if prev_peer != peer:
                step_delay += overlay.latency(prev_peer, peer)
                step_loss += overlay.path_loss_add(prev_peer, peer)
            if j == len(branch) - 1 and peer != request.dest_peer:
                step_delay += overlay.latency(peer, request.dest_peer)
                step_loss += overlay.path_loss_add(peer, request.dest_peer)
            acc_delay += step_delay
            acc_loss += step_loss
            prev_peer = peer
            done = j + 1
        rest_delay = rest_loss = 0.0
        for fn in reversed(branch[done:]):
            rest_delay += min(c.qp_delay for c in state.candidates[fn])
            rest_loss += min(c.qp_loss for c in state.candidates[fn])
        if done < len(branch):
            hops = [
                (0.0, 0.0)
                if c.meta.peer == request.dest_peer
                else (
                    overlay.latency(c.meta.peer, request.dest_peer),
                    overlay.path_loss_add(c.meta.peer, request.dest_peer),
                )
                for c in state.candidates[branch[-1]]
            ]
            rest_delay += min(d for d, _ in hops)
            rest_loss += min(l for _, l in hops)
        out.append((acc_delay + rest_delay, acc_loss + rest_loss))
    return out


def branch_feasible(state):
    return all(
        delay <= state.delay_bound and loss <= state.loss_bound
        for delay, loss in branch_bounds(state)
    )


def with_bounds(request, delay, loss):
    return dataclasses.replace(request, qos=QoSRequirement({"delay": delay, "loss": loss}))


def snapshot(state):
    return (dict(state.assignment), dict(state.head), state.partial_cost, state.rem_res)


class CheckedState(PatternState):
    """A PatternState that compares itself with the per-branch rule every
    time the search asks it something."""

    def extension_feasible(self, fn):
        answer = super().extension_feasible(fn)
        assert answer == branch_feasible(self) == self.qos_feasible()
        return answer

    def delay_lower_bound(self):
        answer = super().delay_lower_bound()
        assert answer == max(delay for delay, _ in branch_bounds(self))
        return answer


# ----------------------------------------------------------------------
# head/tail == per-branch, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("objective", ["cost", "delay"])
@pytest.mark.parametrize("seed", range(6))
def test_random_walk_matches_per_branch_rule(seed, objective):
    world, request = forked_world(seed)
    rng = np.random.default_rng(1000 + seed)
    # bounds that half of all complete assignments meet, so both answers
    # of qos_feasible occur along the walk
    loose = build_state(world, request, objective)
    complete = []
    for _ in range(21):
        undos = [loose.assign(fn, rng.choice(loose.candidates[fn])) for fn in loose.order]
        complete.append(branch_bounds(loose))
        for undo in reversed(undos):
            loose.unassign(undo)
    request = with_bounds(
        request,
        float(np.median([max(d for d, _ in bounds) for bounds in complete])),
        float(np.median([max(l for _, l in bounds) for bounds in complete])),
    )
    state = build_state(world, request, objective)
    answers = set()

    def check():
        bounds = branch_bounds(state)
        assert state.qos_feasible() == branch_feasible(state)
        assert state.delay_lower_bound() == max(delay for delay, _ in bounds)
        answers.add(state.qos_feasible())

    undos = []
    for _ in range(40):  # descend to a complete assignment, climb part of the way back
        while len(undos) < len(state.order):
            fn = state.order[len(undos)]
            was_feasible = branch_feasible(state)
            undos.append(state.assign(fn, rng.choice(state.candidates[fn])))
            if was_feasible:  # what the searches rely on
                assert state.extension_feasible(fn) == branch_feasible(state)
            check()
        for _ in range(int(rng.integers(1, len(undos) + 1))):
            state.unassign(undos.pop())
            check()
    assert answers == {True, False}
    while undos:
        state.unassign(undos.pop())
    assert snapshot(state) == snapshot(build_state(world, request, objective))


@pytest.mark.parametrize("objective", ["cost", "delay"])
def test_search_under_tight_bounds_cuts_on_qos_and_keeps_the_optimum(
    objective, monkeypatch
):
    world, request = forked_world(seed=11, n_functions=7)
    duplicates = micro_context(world).duplicates(request)
    fns = list(request.function_graph.functions)
    graphs = [
        ServiceGraph(
            pattern=request.function_graph,
            assignment=dict(zip(fns, combo)),
            source_peer=request.source_peer,
            dest_peer=request.dest_peer,
            base_bandwidth=request.bandwidth,
        )
        for combo in itertools.product(*(duplicates[f] for f in fns))
    ]
    qos = [graph.end_to_end_qos(world.overlay) for graph in graphs]
    # tighten until only a fifth of all graphs qualify on each metric
    request = with_bounds(
        request,
        float(np.quantile([q.values["delay"] for q in qos], 0.2)),
        float(np.quantile([q.values["loss"] for q in qos], 0.2)),
    )
    qualified = [
        (psi_cost(graph, world.pool), q.values["delay"])
        for graph, q in zip(graphs, qos)
        if request.qos.satisfied_by(q)
    ]
    assert qualified
    monkeypatch.setattr(search, "PatternState", CheckedState)
    outcome = search_compositions(
        request, duplicates, world.overlay, world.pool, objective=objective
    )
    assert outcome.exhausted
    assert outcome.counters["pruned_qos"] > 0
    if objective == "cost":
        assert outcome.best.cost == pytest.approx(min(c for c, _ in qualified))
    else:
        assert outcome.best.qos.values["delay"] == pytest.approx(
            min(d for _, d in qualified)
        )


def test_infeasible_root_cuts_every_first_extension():
    """A bound no completion can meet: the per-branch rule refuses every
    first-level extension, and so does the root check."""
    world, request = forked_world(seed=3)
    state = build_state(world, with_bounds(request, 1e-6, 1e-9))
    assert not branch_feasible(state) and not state.qos_feasible()
    fn = state.order[0]
    for cand in state.candidates[fn]:
        undo = state.assign(fn, cand)
        assert not state.extension_feasible(fn) and not branch_feasible(state)
        state.unassign(undo)


# ----------------------------------------------------------------------
# undo restores, it does not subtract
# ----------------------------------------------------------------------
def test_state_after_an_interrupted_search_equals_a_fresh_one():
    world = largegraph_world(
        LargeGraphConfig(kind="layered", n_functions=20, candidate_density=4, seed=2)
    )
    ctx = world.net.strategy_context()
    weights = ctx.cost_weights or CostWeights.uniform(ctx.pool.resource_types)
    candidates = prepare_candidates(
        world.request.function_graph.functions, ctx.duplicates(world.request),
        ctx.pool, weights, ctx.alive_fn,
    )

    def fresh():
        return PatternState(
            world.request.function_graph, candidates, world.request, ctx.overlay,
            ctx.pool, weights, OpCounters(),
        )

    state = fresh()
    with pytest.raises(_NodeLimit):
        _dfs(state, 0, _Incumbent("cost", 16), [15_000], state.counters)
    assert state.counters["expansions"] == 15_000
    assert snapshot(state) == snapshot(fresh())


def test_state_after_an_exhausted_search_equals_a_fresh_one():
    world, request = forked_world(seed=5)
    state = build_state(world, request)
    _dfs(state, 0, _Incumbent("cost", 16), [-1], state.counters)
    assert state.counters["complete_graphs"] > 0
    assert snapshot(state) == snapshot(build_state(world, request))


# ----------------------------------------------------------------------
# the benchmark's cells, pinned
# ----------------------------------------------------------------------
# (kind, size) -> strategy -> (best cost, ops_* counts); caps and world
# seed are bench/workloads.py's LargeGraph
GOLDEN = {
    ("layered", 20): {
        "backtrack": (0.36049374123982036, {"complete_graphs": 7, "pruned_bound": 11233}),
        "decompose": (0.373900871681481, {
            "stitch_expansions": 4336, "expansions": 11471,
            "complete_graphs": 5, "pruned_bound": 3790,
        }),
    },
    ("layered", 50): {
        "backtrack": (0.47459245219015084, {"complete_graphs": 18, "pruned_bound": 11199}),
        "decompose": (0.4847639815792715, {
            "stitch_expansions": 8000, "expansions": 24507,
            "complete_graphs": 10, "pruned_bound": 6986,
        }),
    },
    ("random", 30): {
        "backtrack": (0.41365991358431864, {"complete_graphs": 13, "pruned_bound": 11218}),
        "decompose": (0.4604661900631606, {
            "stitch_expansions": 8000, "expansions": 34615,
            "complete_graphs": 17, "pruned_bound": 6981,
        }),
    },
}
CAPS = {
    "backtrack": {"node_limit": 15_000},
    "decompose": {"stitch_node_limit": 8_000, "fallback_node_limit": 8_000},
}


@pytest.mark.parametrize("kind,size", sorted(GOLDEN))
def test_bench_cells_repeat_exactly(kind, size):
    world = largegraph_world(
        LargeGraphConfig(kind=kind, n_functions=size, candidate_density=4, seed=2)
    )
    for name, (cost, counts) in GOLDEN[(kind, size)].items():
        strategy = create_strategy(name, world.net.strategy_context(), **CAPS[name])
        result = strategy.compose(world.request, confirm=False)
        assert result.best_cost == cost
        assert {k: result.phases[f"ops_{k}"] for k in counts} == counts
        assert result.phases.get("ops_pruned_qos", 0) == 0
        if name == "backtrack":
            assert result.phases["ops_expansions"] == 15_000
