"""The composition-strategy interface and its name registry.

Every composer — BCP, the §6.1 baselines of ``core/baselines.py`` and
the search strategies — is one :class:`CompositionStrategy` subclass:
built as ``cls(ctx, **options)`` over a shared :class:`StrategyContext`,
composing with ``compose(request)``, and registered under a short name
so the sim harness and ``bench/run.py`` can select an algorithm by
string (``create_strategy(name, ctx)``, ``SpiderNet.use_composer(name)``).

Strategies declare ``requires_global_view``: BCP composes from purely
local state plus probing, so it runs in every substrate including the
live cluster, whose daemons share nothing but the wire; the
search/baseline strategies read the whole registry and resource pool
and therefore only run where that global view exists — the simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Type

from ...discovery.metadata import ServiceMetadata
from ...discovery.registry import ServiceRegistry
from ...perf.counters import OpCounters
from ...sim.metrics import MessageLedger
from ...topology.overlay import Overlay
from ..bcp import BCP, BCPConfig, CompositionResult
from ..cost import CostWeights
from ..request import CompositeRequest
from ..resources import ResourcePool
from ..selection import SelectionOutcome, admit_graph

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
]


class UnknownStrategyError(ValueError):
    """Raised when a strategy name does not resolve in the registry."""


@dataclass
class StrategyContext:
    """Everything a composer may bind to: one overlay/pool/registry triple.

    ``config`` carries the shared tunables (cost weights, pattern cap,
    ranking objective) so every strategy ranks candidates exactly like
    BCP's destination step.  ``bcp`` is the probing engine to delegate to
    when the BCP strategy is selected — passing the already-built engine
    keeps it bit-identical to direct calls (same rng, caches, ledger).
    """

    overlay: Overlay
    pool: ResourcePool
    registry: ServiceRegistry
    ledger: Optional[MessageLedger] = None
    config: Optional[BCPConfig] = None
    alive: Optional[Callable[[int], bool]] = None
    peer_failure: Optional[Callable[[int], float]] = None
    rng: object = None
    trust: object = None
    bcp: Optional[BCP] = None

    @classmethod
    def from_spidernet(cls, net) -> "StrategyContext":
        """Bind to a built :class:`~repro.core.composition.SpiderNet`."""
        return cls(
            overlay=net.overlay,
            pool=net.pool,
            registry=net.registry,
            ledger=net.ledger,
            config=net.bcp.config,
            alive=net.bcp.alive,
            peer_failure=net.bcp.peer_failure,
            rng=net.bcp.rng,
            trust=net.bcp.trust,
            bcp=net.bcp,
        )

    # -- derived views ---------------------------------------------------
    @property
    def effective_config(self) -> BCPConfig:
        return self.config or BCPConfig()

    @property
    def cost_weights(self) -> Optional[CostWeights]:
        return self.effective_config.cost_weights

    @property
    def objective(self) -> str:
        return self.effective_config.objective

    @property
    def max_patterns(self) -> int:
        return self.effective_config.max_patterns

    @property
    def alive_fn(self) -> Callable[[int], bool]:
        return self.alive or (lambda peer: True)

    def ensure_ledger(self) -> MessageLedger:
        if self.ledger is None:
            self.ledger = MessageLedger()
        return self.ledger

    def ensure_bcp(self) -> BCP:
        if self.bcp is None:
            self.bcp = BCP(
                self.overlay,
                self.pool,
                self.registry,
                config=self.config,
                ledger=self.ledger,
                peer_failure=self.peer_failure,
                alive=self.alive,
                rng=self.rng,
                trust=self.trust,
            )
        return self.bcp

    def duplicates(self, request: CompositeRequest) -> Dict[str, List[ServiceMetadata]]:
        """Each of the request's functions -> its duplicates, read from the
        registry's global view (what every global-view composer starts from)."""
        return {fn: self.registry.duplicates(fn) for fn in request.function_graph.functions}


class CompositionStrategy(ABC):
    """One composition algorithm bound to a :class:`StrategyContext`."""

    name: ClassVar[str]
    requires_global_view: ClassVar[bool] = True

    def __init__(self, ctx: StrategyContext) -> None:
        self.ctx = ctx

    @abstractmethod
    def compose(
        self,
        request: CompositeRequest,
        budget: Optional[int] = None,
        confirm: bool = True,
        now: Optional[float] = None,
    ) -> CompositionResult:
        """Compose one request.  ``budget``/``now`` only matter to BCP
        (probing budget β, virtual clock); global-view strategies accept
        and ignore them so every caller can treat strategies uniformly."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


_REGISTRY: Dict[str, Type[CompositionStrategy]] = {}


def register_strategy(cls: Type[CompositionStrategy]) -> Type[CompositionStrategy]:
    """Class decorator: add a strategy to the by-name registry."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls.__name__} must define a non-empty `name`")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"strategy name {name!r} already registered by {existing.__name__}")
    _REGISTRY[name] = cls
    return cls


def strategy_names() -> List[str]:
    return sorted(_REGISTRY)


def get_strategy(name: str) -> Type[CompositionStrategy]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown composition strategy {name!r}; known: {', '.join(strategy_names())}"
        ) from None


def create_strategy(name: str, ctx: StrategyContext, **options) -> CompositionStrategy:
    return get_strategy(name)(ctx, **options)


def finalize_selection(
    request: CompositeRequest,
    selection: SelectionOutcome,
    pool: ResourcePool,
    probes: int,
    confirm: bool,
) -> CompositionResult:
    """Selection outcome → CompositionResult, with §4.3 admission.

    Every global-view composer ends here (the search strategies and the
    §6.1 baselines), with BCP's destination semantics: the
    winning graph's resources are firmly admitted (all-or-nothing) under
    a session token when ``confirm``; a shortfall turns success into an
    admission failure.
    """
    result = CompositionResult(request=request, success=False, probes_sent=probes)
    result.qualified = selection.qualified
    result.candidates_examined = selection.n_candidates
    if selection.best is None:
        result.failure_reason = "no qualified service graph"
        return result
    token = (request.request_id, "session")
    if confirm:
        if not admit_graph(selection.best.graph, pool, token):
            result.failure_reason = "admission failed at setup"
            return result
        result.session_tokens = [token]
    result.best = selection.best.graph
    result.best_qos = selection.best.qos
    result.best_cost = selection.best.cost
    result.success = True
    return result


# ----------------------------------------------------------------------
# BCP behind the common interface (the baselines are in core/baselines.py)
# ----------------------------------------------------------------------


@register_strategy
class BCPStrategy(CompositionStrategy):
    """The paper's bounded composition probing, via the shared engine.

    Delegates verbatim to the context's :class:`BCP` instance, so results
    are bit-identical to calling ``bcp.compose`` directly; the only
    addition is the ``ops_*`` profiling keys."""

    name = "bcp"
    requires_global_view = False

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        result = self.ctx.ensure_bcp().compose(
            request, budget=budget, confirm=confirm, now=now
        )
        counters = OpCounters()
        counters.incr("probes_sent", result.probes_sent)
        counters.incr("arrivals", result.candidates_examined)
        result.phases.update(counters.as_phases())
        return result
