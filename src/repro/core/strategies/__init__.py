"""Pluggable composition strategies.

One request, many ways to compose it.  Every algorithm is a
:class:`~repro.core.strategies.base.CompositionStrategy` subclass, built
as ``cls(ctx, **options)`` over a shared
:class:`~repro.core.strategies.base.StrategyContext` and registered
under a short name: ``create_strategy(name, ctx, **options)`` builds
one, and the sim harness selects one with ``SpiderNet.use_composer``.
The live cluster always runs ``bcp``:

======================  ==========================================  ==================================
name                    algorithm                                   class
======================  ==========================================  ==================================
``bcp``                 the paper's bounded composition probing     ``BCPStrategy`` (``base``)
                        (§4); the only strategy that runs
                        distributed
``optimal``             unbounded flooding ground truth, with       ``OptimalComposer`` (``baselines``)
                        branch-and-bound pruning + a search-space
                        guard (§6.1)
``random``              random functionally-qualified choice        ``RandomComposer`` (``baselines``)
                        (§6.1)
``static``              fixed pre-defined component per function    ``StaticComposer`` (``baselines``)
                        (§6.1)
``centralized``         global-view selection over periodically     ``CentralizedComposer``
                        pushed state (§6.1)                         (``baselines``)
``backtrack``           pruned backtracking search: anytime         ``PrunedBacktrackingComposer``
                        branch-and-bound with admissible QoS/ψλ
                        bounds
``decompose``           topological-layer decomposition +           ``DecompositionComposer``
                        per-segment beams + exact boundary
                        stitching
======================  ==========================================  ==================================
"""

from .backtracking import PrunedBacktrackingComposer
from .base import (
    BCPStrategy,
    CompositionStrategy,
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

# the §6.1 baselines register themselves on import.  ``baselines`` imports
# ``.base`` back, so only the module is bound here: whichever of the two
# is imported first, the other then finds the names it needs defined.
from .. import baselines  # noqa: F401

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
    "PrunedBacktrackingComposer",
    "DecompositionComposer",
    "Candidate",
    "PatternState",
    "SearchOutcome",
    "prepare_candidates",
    "search_compositions",
]
