"""The composition-strategy interface and its name registry.

Composition used to be hard-wired to BCP; the baselines of §6.1 lived in
``core/baselines.py`` behind ad-hoc constructors.  This module puts one
abstract interface in front of all of them — ``compose(request)`` on a
shared :class:`StrategyContext` — plus a name registry so the sim
harness and the benchmarks can select an algorithm by string
(``SpiderNet.use_composer(name)``).

Strategies declare ``requires_global_view``: BCP composes from purely
local state plus probing, so it runs in every substrate including the
live cluster, whose daemons share nothing but the wire; the
search/baseline strategies read the whole registry and resource pool
and therefore only run where that global view exists — the simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Tuple, Type

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
    "OptimalStrategy",
    "RandomStrategy",
    "StaticStrategy",
    "CentralizedStrategy",
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
        return {
            fn: self.registry.duplicates(fn)
            for fn in request.function_graph.functions
        }


class CompositionStrategy(ABC):
    """One composition algorithm bound to a :class:`StrategyContext`."""

    name: ClassVar[str]
    requires_global_view: ClassVar[bool] = True

    def __init__(self, ctx: StrategyContext) -> None:
        self.ctx = ctx

    @classmethod
    def from_context(cls, ctx: StrategyContext, **options) -> "CompositionStrategy":
        return cls(ctx, **options)

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
    return get_strategy(name).from_context(ctx, **options)


def finalize_selection(
    request: CompositeRequest,
    selection: SelectionOutcome,
    pool: ResourcePool,
    probes: int,
    confirm: bool,
) -> CompositionResult:
    """Selection outcome → CompositionResult, with §4.3 admission.

    Same semantics as BCP's destination step and the baselines: the
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
# adapters: BCP and the §6.1 baselines behind the common interface
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


class _BaselineStrategy(CompositionStrategy):
    """Shared adapter plumbing for the §6.1 baseline composers."""

    composer_kwargs: ClassVar[Dict[str, object]] = {}

    def __init__(self, ctx: StrategyContext, **options) -> None:
        super().__init__(ctx)
        self._composer = self._build_composer(ctx, **options)

    def _build_composer(self, ctx: StrategyContext, **options):
        raise NotImplementedError

    @staticmethod
    def _base_kwargs(ctx: StrategyContext) -> Dict[str, object]:
        return dict(
            ledger=ctx.ensure_ledger(),
            alive=ctx.alive_fn,
            cost_weights=ctx.cost_weights,
            max_patterns=ctx.max_patterns,
            objective=ctx.objective,
        )

    def compose(self, request, budget=None, confirm=True, now=None) -> CompositionResult:
        return self._composer.compose(request, confirm=confirm)


@register_strategy
class OptimalStrategy(_BaselineStrategy):
    """Unbounded flooding with lower-bound pruning (ground truth)."""

    name = "optimal"

    def _build_composer(self, ctx, **options):
        from ..baselines import OptimalComposer

        return OptimalComposer(
            ctx.overlay, ctx.pool, ctx.registry, **self._base_kwargs(ctx), **options
        )


@register_strategy
class RandomStrategy(_BaselineStrategy):
    """Uniformly random functionally-qualified choice."""

    name = "random"

    def _build_composer(self, ctx, **options):
        from ..baselines import RandomComposer

        options.setdefault("rng", ctx.rng)
        return RandomComposer(
            ctx.overlay, ctx.pool, ctx.registry, **self._base_kwargs(ctx), **options
        )


@register_strategy
class StaticStrategy(_BaselineStrategy):
    """Fixed pre-defined component per function (first deployed)."""

    name = "static"

    def _build_composer(self, ctx, **options):
        from ..baselines import StaticComposer

        options.setdefault("rng", ctx.rng)
        return StaticComposer(
            ctx.overlay, ctx.pool, ctx.registry, **self._base_kwargs(ctx), **options
        )


@register_strategy
class CentralizedStrategy(_BaselineStrategy):
    """Global-view selection over periodically refreshed cached state."""

    name = "centralized"

    def _build_composer(self, ctx, **options):
        from ..baselines import CentralizedComposer

        return CentralizedComposer(
            ctx.overlay, ctx.pool, ctx.registry, **self._base_kwargs(ctx), **options
        )

    def refresh(self) -> None:
        """Trigger one state-update round on the wrapped composer."""
        self._composer.refresh()
