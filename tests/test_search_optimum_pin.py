"""The exhaustive optimum of the search engine, pinned.

An uncapped ``backtrack`` (the engine behind the ``optimal`` baseline)
proves its best graph optimal, so what it returns may depend only on the
world, never on how the search orders or bounds its tree.  This runs it on
36 small ``large-graph`` worlds and pins a SHA-256 over each world's best
cost (its ``repr``, every bit) and best graph.  A change to the bounds or
the expansion order that moves any bit of an optimum fails here, and so
does one that lets the expansions the proof takes grow back.

Component ids are process-global counters, so a graph is named by each
function's host peer and the position of its component among that
function's duplicates, and every set is sorted: the digest holds under any
``PYTHONHASHSEED`` and in any test order.
"""

import hashlib

from repro.core.strategies import create_strategy
from repro.workload.largegraph import LargeGraphConfig, largegraph_world

# 12 seeds × three shapes, each small enough to search to the end
WORLDS = [
    (kind, size, seed)
    for seed in range(12)
    for kind, size in (("layered", 7), ("random", 8), ("layered", 9))
]
OPTIMUM_DIGEST = "e3b16b03674f5992bd58c4f6c6f7cc44b90d7a0c0f7602188764307eed302a84"


def exhaustive_optima():
    """(the digest over every world's optimum, the expansions it took)."""
    digest = hashlib.sha256()
    expansions = 0
    for kind, size, seed in WORLDS:
        world = largegraph_world(LargeGraphConfig(kind=kind, n_functions=size, seed=seed))
        ctx = world.net.strategy_context()
        result = create_strategy("backtrack", ctx, node_limit=None).compose(
            world.request, confirm=False
        )
        expansions += int(result.phases["ops_expansions"])
        graph = result.best
        named = None
        if graph is not None:
            duplicates = ctx.duplicates(world.request)
            named = (
                sorted(graph.pattern.edges),
                sorted(
                    (fn, meta.peer, duplicates[fn].index(meta))
                    for fn, meta in graph.assignment.items()
                ),
            )
        digest.update(f"{result.best_cost!r} {named!r}\n".encode())
    return digest.hexdigest(), expansions


def test_exhaustive_optima_are_pinned():
    digest, expansions = exhaustive_optima()
    assert digest == OPTIMUM_DIGEST
    # the link-aware bound and bound-ordered rows: 28 680 expansions, against
    # 361 304 with the resource-only bound and res-term order
    assert expansions <= 40_000
