"""The search engine's per-function QoS bounds against the per-branch rule.

``PatternState`` never enumerates branch paths: it keeps the largest exact
prefix per assigned function and the largest admissible remainder per
function.  The paper states the bound per branch path (§2.2, §4.3), so the
reference here does exactly that — for every source→sink path, the exact
QoS of its assigned prefix plus the Qp minima and cheapest final hop of
the rest, summed in the order the per-branch engine summed them — and the
two must agree to the last bit at every node, on DAGs with several
sources and several sinks, in random walks and inside real searches.

An exhaustive search must return the best value a brute-force
enumeration finds, on drawn worlds with incompatible quality formats.

The cost bound must never overestimate: on drawn worlds with varied
bandwidth factors, shared hosts and exhausted links, every candidate
row's bound is at most what ``extend`` charges for it under every
placement of what comes before, and every state's ``cost_lower_bound()``
at most the ψλ of every complete graph below it.

The second half pins what the benchmark's six ``large-graph`` cells do
under both objectives (best cost, complete graphs, stitch steps, cuts),
that every qualified graph carries the exact leaf values, and that a
search that unwinds leaves the state as it found it.
"""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

from worlds import MicroWorld, fuzz_settings, micro_context

N_PEERS = 12
FACTORS = (0.5, 1.0, 1.5, 2.0)


def forked_world(
    seed: int,
    n_functions: int = 9,
    per_function: int = 3,
    formats: bool = False,
    factors: bool = False,
):
    """A random DAG with at least two sources and two sinks, candidates
    scattered over a line-metric overlay; the destination hosts a sink
    candidate so the zero final hop is exercised too.  With ``formats``
    every component also reads and writes formats drawn from a small
    alphabet (or the wildcard), so some service links are incompatible;
    with ``factors`` it scales its output rate by a factor drawn from
    {0.5, 1, 1.5, 2} (1 otherwise)."""
    rng = np.random.default_rng(seed)
    format_rng = np.random.default_rng([seed, 1])
    factor_rng = np.random.default_rng([seed, 2])
    alphabet = ((), ("a",), ("b",), ("a", "b"))
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
                input_formats=alphabet[format_rng.integers(4)] if formats else (),
                output_formats=alphabet[format_rng.integers(3)] if formats else (),
                bandwidth_factor=float(factor_rng.choice(FACTORS)) if factors else 1.0,
            )
    dest = world.registry.duplicates(graph.sinks()[0])[0].peer
    source = int(rng.integers(0, N_PEERS))
    if source == dest:  # a request joins two different peers
        source = (source + 1) % N_PEERS
    request = world.request(graph, source=source, dest=dest)
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


# the cuts ``PatternState.extend`` counts, each in an integer on the state
CUTS = ("pruned_quality", "pruned_exhausted_link", "pruned_qos", "pruned_bound")


class CheckedState(PatternState):
    """A PatternState that checks every extension the search makes, and
    every delay bound it is asked for, against the per-branch rule.

    ``extend`` decides an extension in one place; this replays each cut
    one without the ladder and asks the per-branch rule, the frontier
    walk and ``extension_feasible`` whether the cut was right, and asks
    ``compatible_with`` whether a quality cut was.  ``watched`` counts
    the extensions checked, over every instance."""

    watched = 0

    def extend(self, slot, row, incumbent):
        if incumbent is None:  # a placement without the ladder
            return super().extend(slot, row, None)
        CheckedState.watched += 1
        fn, preds, cand = slot[0], slot[1], row[0]
        before = {name: getattr(self, name) for name in CUTS}
        undo = super().extend(slot, row, incumbent)
        cut = [name for name in CUTS if getattr(self, name) > before[name]]
        assert len(cut) == (undo is None)
        compatible = all(
            self.assignment[p].meta.output_quality.compatible_with(cand.meta.input_quality)
            for p in preds
        )
        assert (cut == ["pruned_quality"]) == (not compatible)
        if undo is not None:
            assert self._judge(fn, incumbent) == (True, False)
        elif cut != ["pruned_quality"] and cut != ["pruned_exhausted_link"]:
            placed = super().extend(slot, row, None)
            self.expansions -= 1  # the replay is not the search's work
            feasible, ruled_out = self._judge(fn, incumbent)
            self.unassign(placed)
            assert (not feasible) if cut == ["pruned_qos"] else (feasible and ruled_out)
        return undo

    def _judge(self, fn, incumbent):
        """(can a completion meet Qreq, can none rank ahead of the best so
        far) for the state just extended with ``fn``."""
        feasible = branch_feasible(self)
        assert self.extension_feasible(fn) == feasible == self.qos_feasible()
        ruled_out = self.cost_lower_bound() > incumbent.cost_cutoff or (
            incumbent.delay_cutoff != math.inf
            and self.delay_lower_bound() > incumbent.delay_cutoff
        )
        return feasible, ruled_out

    def delay_lower_bound(self):
        answer = super().delay_lower_bound()
        assert answer == max(delay for delay, _ in branch_bounds(self))
        return answer


def watched_search(world, request, duplicates, **options):
    """``search_compositions`` with the oracle checking every extension it
    makes — all of them, or the search has a path the oracle cannot see."""
    CheckedState.watched = 0
    with mock.patch.object(search, "PatternState", CheckedState):
        outcome = search_compositions(
            request, duplicates, world.overlay, world.pool, **options
        )
    assert CheckedState.watched == outcome.counters["expansions"]
    return outcome


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


def every_graph(request, duplicates):
    """Every choice of one duplicate per function whose service links are
    all quality-compatible, as a ServiceGraph."""
    pattern = request.function_graph
    fns = list(pattern.functions)
    for combo in itertools.product(*(duplicates[f] for f in fns)):
        assignment = dict(zip(fns, combo))
        if all(
            assignment[a].output_quality.compatible_with(assignment[b].input_quality)
            for a, b in pattern.edges
        ):
            yield ServiceGraph(
                pattern=pattern,
                assignment=assignment,
                source_peer=request.source_peer,
                dest_peer=request.dest_peer,
                base_bandwidth=request.bandwidth,
            )


@pytest.mark.parametrize("objective", ["cost", "delay"])
def test_search_under_tight_bounds_cuts_on_qos_and_keeps_the_optimum(objective):
    world, request = forked_world(seed=11, n_functions=7)
    duplicates = micro_context(world).duplicates(request)
    graphs = list(every_graph(request, duplicates))
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
    outcome = watched_search(world, request, duplicates, objective=objective)
    assert outcome.exhausted
    assert outcome.counters["pruned_qos"] > 0
    if objective == "cost":
        assert outcome.best.cost == pytest.approx(min(c for c, _ in qualified))
    else:
        assert outcome.best.qos.values["delay"] == pytest.approx(
            min(d for _, d in qualified)
        )


def between(values, share):
    """A bound about ``share`` of ``values`` meet: halfway between two of
    them, or past the last, never on one.  The search's running sums add
    a branch's terms in another order than the leaf walk, so a bound
    within rounding of a graph's value could be read either way."""
    ordered = sorted(set(values))
    n = round(share * len(ordered))
    if n == 0:
        return ordered[0] / 2
    if n == len(ordered):
        return 2 * ordered[-1]
    return (ordered[n - 1] + ordered[n]) / 2


@fuzz_settings(100)
@given(
    seed=st.integers(0, 2**16),
    n_functions=st.integers(4, 6),
    per_function=st.integers(1, 3),
    tightness=st.floats(0.0, 1.0),
    objective=st.sampled_from(["cost", "delay"]),
    dominance=st.booleans(),
)
def test_exhaustive_search_returns_the_brute_force_optimum(
    seed, n_functions, per_function, tightness, objective, dominance
):
    """Branch and bound, every cut on, the oracle watching every extension,
    returns exactly the best value of a brute-force enumeration."""
    world, request = forked_world(seed, n_functions, per_function, formats=True)
    duplicates = micro_context(world).duplicates(request)
    graphs = list(every_graph(request, duplicates))
    qos = [graph.end_to_end_qos(world.overlay) for graph in graphs]
    if graphs:  # each metric lets √tightness through, both about tightness
        request = with_bounds(
            request,
            between([q.values["delay"] for q in qos], math.sqrt(tightness)),
            between([q.values["loss"] for q in qos], math.sqrt(tightness)),
        )
    values = []
    for graph, q in zip(graphs, qos):
        cost = psi_cost(graph, world.pool)
        if request.qos.satisfied_by(q) and not math.isinf(cost):
            values.append(cost if objective == "cost" else q.values["delay"])
    outcome = watched_search(
        world, request, duplicates, objective=objective, dominance=dominance,
        node_limit=None,
    )
    assert outcome.exhausted
    if not values:
        assert outcome.best is None
    elif objective == "cost":
        assert outcome.best.cost == min(values)
    else:
        assert outcome.best.qos.values["delay"] == min(values)


@pytest.mark.parametrize("metric", ["delay", "loss"])
def test_an_extension_landing_on_the_bound_is_kept(metric):
    """The ladder's QoS cut is ``<=``, like ``QoSRequirement.satisfied_by``:
    a chain whose exact prefix lands on the bound is kept, one ulp less
    cuts it."""
    world = MicroWorld(n_peers=6)
    world.place("a", 2, delay=0.003, loss=0.001)
    world.place("b", 4, delay=0.007, loss=0.002)
    request = world.request(
        FunctionGraph.from_edges(["a", "b"], [("a", "b")]), source=0, dest=5
    )
    state = build_state(world, request)
    state.assign("a", state.candidates["a"][0])
    state.assign("b", state.candidates["b"][0])
    _, _, delay, loss, _ = state.head["b"]
    exact = delay if metric == "delay" else loss
    for bound, kept in ((exact, True), (math.nextafter(exact, 0.0), False)):
        bounds = {"delay": 1.0, "loss": 1.0, metric: bound}
        state = build_state(world, with_bounds(request, bounds["delay"], bounds["loss"]))
        state.assign("a", state.candidates["a"][0])
        slot = state.slots["b"]
        undo = state.extend(slot, slot[2][0], _Incumbent("cost", 1))
        assert (undo is not None) == kept
        assert state.pruned_qos == (not kept)


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
# the cost bound never overestimates
# ----------------------------------------------------------------------
def crowded_world(seed: int):
    """Five peers on a line, so candidates often share a host, a random DAG
    of four or five functions with output factors from ``FACTORS``, and
    background claims that leave some peer-to-peer links partly used and
    some with no bandwidth at all."""
    rng = np.random.default_rng(seed)
    n_peers, n_functions = 5, int(rng.integers(4, 6))
    names = [f"f{i}" for i in range(n_functions)]
    edges = set()
    for i in range(1, n_functions):
        for j in rng.choice(i, size=int(rng.integers(1, min(i, 2) + 1)), replace=False):
            edges.add((names[int(j)], names[i]))
    world = MicroWorld(n_peers=n_peers)
    for fn in names:
        for _ in range(int(rng.integers(1, 4))):
            world.place(
                fn,
                int(rng.integers(0, n_peers)),
                cpu=float(rng.uniform(2.0, 20.0)),
                bandwidth_factor=float(rng.choice(FACTORS)),
            )
    for a in range(n_peers - 1):  # every link joins two neighbours
        used = float(rng.choice([0.0, 10.0, rng.uniform(1.0, 9.5)]))
        assert world.pool.soft_allocate_path(("background", a), a, a + 1, used)
    source, dest = (int(p) for p in rng.choice(n_peers, size=2, replace=False))
    request = world.request(
        FunctionGraph.from_edges(names, edges), source=source, dest=dest,
        bandwidth=float(rng.uniform(0.5, 3.0)),
    )
    return world, request


def check_cost_bounds(state):
    """Place every candidate of every function under every placement of
    the functions before it, the way a search without cutoffs would, and
    check at each step that the row's bound is at most what ``extend``
    charged, and at each state reached that ``cost_lower_bound()`` is at
    most the ψλ of every complete graph below it.  Returns the number of
    complete graphs."""
    leaves = 0

    def walk(depth):
        """The least ψλ among the complete graphs below the state."""
        nonlocal leaves
        if depth == len(state.path):
            leaves += 1
            return psi_cost(state.complete_graph(), state.pool, state.weights)
        slot = state.path[depth]
        fn, rows = slot[0], slot[2]
        best = math.inf
        for bound, row in zip(state.row_bounds[fn], rows):
            base = state.partial_cost
            state.partial_cost = 0.0  # so the state's sum is the charge itself
            undo = state.extend(slot, row, None)
            charged = state.partial_cost
            state.partial_cost = base
            if undo is None:
                continue
            assert bound <= charged, (fn, row[0].meta.component_id)
            state.partial_cost = base + charged  # what extend leaves
            below = walk(depth + 1)
            assert state.cost_lower_bound() <= below
            best = min(best, below)
            state.unassign(undo)
            state.partial_cost = base
        return best

    least = walk(0)
    assert state.cost_lower_bound() <= least
    if not state.placeable:
        assert leaves == 0
    return leaves


@fuzz_settings(60)
@given(
    seed=st.integers(0, 2**16),
    n_functions=st.integers(4, 6),
    per_function=st.integers(1, 3),
)
def test_the_cost_bound_is_admissible_on_forked_worlds(seed, n_functions, per_function):
    world, request = forked_world(seed, n_functions, per_function, factors=True)
    assert check_cost_bounds(build_state(world, request)) > 0


@fuzz_settings(100)
@given(seed=st.integers(0, 2**16))
def test_the_cost_bound_is_admissible_on_crowded_worlds(seed):
    world, request = crowded_world(seed)
    check_cost_bounds(build_state(world, request))


def test_crowded_worlds_reach_every_case_the_bound_prices():
    """The property above sees shared hosts, partly used and exhausted
    links and unplaceable functions, and its bounds are often tight."""
    seen = {"shared host": 0, "exhausted link": 0, "unplaceable": 0, "link priced": 0}
    for seed in range(40):
        world, request = crowded_world(seed)
        state = build_state(world, request)
        if not state.placeable:
            seen["unplaceable"] += 1
            continue
        for fn in state.order:
            hosts = {c.meta.peer for c in state.candidates[fn]}
            for p in state.pattern.predecessors(fn):
                if hosts & {c.meta.peer for c in state.candidates[p]}:
                    seen["shared host"] += 1
            for c, bound in zip(state.candidates[fn], state.row_bounds[fn]):
                if math.isinf(bound):
                    seen["exhausted link"] += 1
                elif bound > c.res_term:
                    seen["link priced"] += 1
    assert all(seen.values()), seen


def test_unplaceable_patterns_are_cut_before_the_search():
    """A request whose only first function sits behind an exhausted link:
    no row can be placed, the pattern is cut up front and counted, and
    the search expands nothing."""
    world = MicroWorld(n_peers=4)
    world.place("a", 2)
    world.place("b", 3)
    assert world.pool.soft_allocate_path("background", 1, 2, 10.0)
    request = world.request(
        FunctionGraph.from_edges(["a", "b"], [("a", "b")]), source=1, dest=3
    )
    state = build_state(world, request)
    assert state.row_bounds["a"] == [math.inf] and not state.placeable
    outcome = search_compositions(
        request, micro_context(world).duplicates(request), world.overlay, world.pool,
        node_limit=None,
    )
    assert outcome.best is None and outcome.exhausted
    assert outcome.counters["pruned_unplaceable"] == 1
    assert outcome.counters["expansions"] == 0


@pytest.mark.parametrize("objective", ["cost", "delay"])
def test_rows_are_tried_cheapest_bound_first_under_the_cost_objective(objective):
    """``slot[2]`` keeps the candidates' order (``assign`` and the stitch
    index it); the search walks ``slot[6]``, ascending row bound with ties
    in candidate order, and only under the cost objective."""
    world, request = forked_world(seed=4, factors=True)
    state = build_state(world, request, objective)
    reordered = 0
    for fn in state.order:
        slot = state.slots[fn]
        assert [row[0] for row in slot[2]] == state.candidates[fn]
        bounds = state.row_bounds[fn]
        ranked = sorted(range(len(bounds)), key=lambda i: (bounds[i], i))
        assert slot[6] == [slot[2][i] for i in ranked]
        reordered += ranked != sorted(ranked)
    assert reordered
    tried = []
    with mock.patch.object(
        PatternState, "extend",
        lambda self, slot, row, incumbent: tried.append(row) or None,
    ):
        _dfs(state, 0, _Incumbent(objective, 1), [-1], state.counters)
    first = state.path[0]
    assert tried == (first[6] if objective == "cost" else first[2])


# ----------------------------------------------------------------------
# undo restores, it does not subtract
# ----------------------------------------------------------------------
def test_state_after_an_interrupted_search_equals_a_fresh_one():
    world = largegraph_world(
        LargeGraphConfig(kind="layered", n_functions=20, candidate_density=4, seed=2)
    )
    ctx = world.net.strategy_context()
    weights = CostWeights.uniform(ctx.pool.resource_types)
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
# a qualified graph carries the leaf walk's values, not the running sums
# ----------------------------------------------------------------------
def leaf_walk(graph, overlay):
    """End-to-end (delay, loss) summed the way the paper sums a branch —
    every link from source to destination, then every Qp — worst branch
    per metric."""
    worst_delay = worst_loss = 0.0
    for branch in graph.pattern.branches():
        peers = [graph.source_peer] + [graph.assignment[f].peer for f in branch]
        peers.append(graph.dest_peer)
        delay = loss = 0.0
        for u, v in zip(peers, peers[1:]):
            if u != v:
                delay += overlay.latency(u, v)
                loss += overlay.path_loss_add(u, v)
        for f in branch:
            delay += graph.assignment[f].qp.values.get("delay", 0.0)
            loss += graph.assignment[f].qp.values.get("loss", 0.0)
        worst_delay, worst_loss = max(worst_delay, delay), max(worst_loss, loss)
    return worst_delay, worst_loss


def assert_exact_leaves(qualified, overlay, pool, weights):
    assert qualified
    for cand in qualified:
        assert cand.qos == cand.graph.end_to_end_qos(overlay)
        assert (cand.qos.values["delay"], cand.qos.values["loss"]) == leaf_walk(
            cand.graph, overlay
        )
        assert cand.cost == psi_cost(cand.graph, pool, weights)


@pytest.mark.parametrize("objective", ["cost", "delay"])
def test_every_qualified_graph_carries_its_exact_leaf_values(objective):
    world, request = forked_world(seed=7)
    outcome = search_compositions(
        request, micro_context(world).duplicates(request), world.overlay, world.pool,
        objective=objective,
    )
    assert len(outcome.qualified) > 1
    assert_exact_leaves(
        outcome.qualified, world.overlay, world.pool,
        CostWeights.uniform(world.pool.resource_types),
    )


# ----------------------------------------------------------------------
# the benchmark's cells, pinned
# ----------------------------------------------------------------------
# (kind, size) -> strategy -> (best cost, ops_* counts); caps and world
# seed are bench/workloads.py's LargeGraph
GOLDEN = {
    ("layered", 20): {
        "backtrack": (0.3476585398311254, {"complete_graphs": 2, "pruned_bound": 11238}),
        "decompose": (0.373900871681481, {
            "stitch_expansions": 2896, "expansions": 7116,
            "complete_graphs": 5, "pruned_bound": 2530,
        }),
    },
    ("layered", 50): {
        "backtrack": (0.35495881831940557, {"complete_graphs": 7, "pruned_bound": 11208}),
        "decompose": (0.4847639815792715, {
            "stitch_expansions": 8000, "expansions": 27039,
            "complete_graphs": 10, "pruned_bound": 6985,
        }),
    },
    ("random", 30): {
        "backtrack": (0.3448547282674019, {"complete_graphs": 19, "pruned_bound": 11214}),
        "decompose": (0.4604661900631606, {
            "stitch_expansions": 8000, "expansions": 32711,
            "complete_graphs": 17, "pruned_bound": 6982,
        }),
    },
}
# the same cells under the delay objective: (kind, size) -> strategy ->
# (best cost, best delay, ops_* counts)
GOLDEN_DELAY = {
    ("layered", 20): {
        "backtrack": (0.4658961979466667, 0.6613015579144943, {
            "complete_graphs": 26, "pruned_bound": 11213,
        }),
        "decompose": (0.39401293122482145, 0.5441004435497048, {
            "stitch_expansions": 4680, "expansions": 18240,
            "complete_graphs": 7, "pruned_bound": 4089,
        }),
    },
    ("layered", 50): {
        "backtrack": (0.65041080842872, 1.6705435108400946, {
            "complete_graphs": 483, "pruned_bound": 10733,
        }),
        "decompose": (0.49432859854769967, 1.2226823985217339, {
            "stitch_expansions": 8000, "expansions": 16383,
            "complete_graphs": 520, "pruned_bound": 6475,
        }),
    },
    ("random", 30): {
        "backtrack": (0.6156815336104055, 1.961725008145682, {
            "complete_graphs": 52, "pruned_bound": 11181,
        }),
        "decompose": (0.5088765020271819, 1.4358762355986723, {
            "stitch_expansions": 8000, "expansions": 30849,
            "complete_graphs": 19, "pruned_bound": 6979,
        }),
    },
}
CAPS = {
    "backtrack": {"node_limit": 15_000},
    "decompose": {"stitch_node_limit": 8_000, "fallback_node_limit": 8_000},
}


def compose_cell(kind, size, objective):
    """Each strategy's result on one bench cell, and a check that every
    graph it qualified carries the exact leaf values."""
    world = largegraph_world(
        LargeGraphConfig(kind=kind, n_functions=size, candidate_density=4, seed=2)
    )
    ctx = world.net.strategy_context()
    ctx = dataclasses.replace(
        ctx, config=dataclasses.replace(ctx.effective_config, objective=objective)
    )
    weights = CostWeights.uniform(ctx.pool.resource_types)
    for name in CAPS:
        result = create_strategy(name, ctx, **CAPS[name]).compose(
            world.request, confirm=False
        )
        assert_exact_leaves(result.qualified, ctx.overlay, ctx.pool, weights)
        assert result.phases.get("ops_pruned_qos", 0) == 0
        if name == "backtrack":
            assert result.phases["ops_expansions"] == 15_000
        yield name, result


@pytest.mark.parametrize("kind,size", sorted(GOLDEN))
def test_bench_cells_repeat_exactly(kind, size):
    for name, result in compose_cell(kind, size, "cost"):
        cost, counts = GOLDEN[(kind, size)][name]
        assert result.best_cost == cost
        assert {k: result.phases[f"ops_{k}"] for k in counts} == counts


@pytest.mark.parametrize("kind,size", sorted(GOLDEN_DELAY))
def test_bench_cells_repeat_exactly_under_the_delay_objective(kind, size):
    for name, result in compose_cell(kind, size, "delay"):
        cost, delay, counts = GOLDEN_DELAY[(kind, size)][name]
        assert result.best_cost == cost
        assert result.best_qos.values["delay"] == delay
        assert {k: result.phases[f"ops_{k}"] for k in counts} == counts
