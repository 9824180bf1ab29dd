"""Pluggable composition strategies.

One request, many ways to compose it.  Every algorithm implements
:class:`~repro.core.strategies.base.CompositionStrategy` over a shared
:class:`~repro.core.strategies.base.StrategyContext` and registers under
a short name, selectable from the sim harness
(``SpiderNet.use_composer``).  The live cluster always runs ``bcp``:

======================  ================================================
``bcp``                 the paper's bounded composition probing (§4);
                        the only strategy that runs distributed
``optimal``             unbounded flooding ground truth, now with
                        branch-and-bound pruning + a search-space guard
``random``              random functionally-qualified choice (§6.1)
``static``              fixed pre-defined component per function (§6.1)
``centralized``         global-view selection over periodically pushed
                        state (§6.1)
``backtrack``           pruned backtracking search: anytime
                        branch-and-bound with admissible QoS/ψλ bounds
``decompose``           topological-layer decomposition + per-segment
                        beams + exact boundary stitching
======================  ================================================
"""

from .backtracking import PrunedBacktrackingComposer
from .base import (
    BCPStrategy,
    CentralizedStrategy,
    CompositionStrategy,
    OptimalStrategy,
    RandomStrategy,
    StaticStrategy,
    StrategyContext,
    UnknownStrategyError,
    create_strategy,
    finalize_selection,
    get_strategy,
    register_strategy,
    strategy_names,
)
from .decomposition import DecompositionComposer
from .search import (
    Candidate,
    PatternState,
    SearchOutcome,
    prepare_candidates,
    search_compositions,
)

__all__ = [
    "CompositionStrategy",
    "StrategyContext",
    "UnknownStrategyError",
    "register_strategy",
    "create_strategy",
    "get_strategy",
    "strategy_names",
    "finalize_selection",
    "BCPStrategy",
    "OptimalStrategy",
    "RandomStrategy",
    "StaticStrategy",
    "CentralizedStrategy",
    "PrunedBacktrackingComposer",
    "DecompositionComposer",
    "Candidate",
    "PatternState",
    "SearchOutcome",
    "prepare_candidates",
    "search_compositions",
]
