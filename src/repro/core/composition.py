"""The SpiderNet facade: one object wiring every subsystem together.

``SpiderNet.build(...)`` assembles the full middleware stack of Fig. 2 —
overlay topology, resource pool, Pastry DHT, service discovery, BCP and
the session manager — from a handful of parameters, and is what the
examples and experiment drivers instantiate.  Components remain
individually accessible for tests and ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence


from ..dht.pastry import PastryNetwork
from ..discovery.registry import ServiceRegistry
from ..services.component import ComponentSpec
from ..sim.churn import ChurnProcess
from ..sim.metrics import MessageLedger
from ..sim.network import MessageNetwork
from ..sim.rng import as_generator
from ..sim.vtime import VirtualTimeLoop, advance
from ..topology.overlay import Overlay
from .bcp import BCP, BCPConfig, CompositionResult
from .request import CompositeRequest
from .resources import ResourcePool, ResourceVector
from .session import RecoveryConfig, ServiceSession, SessionManager

__all__ = ["SpiderNet", "default_peer_capacity"]


def default_peer_capacity(
    n_peers: int,
    rng=None,
    cpu_range: tuple[float, float] = (50.0, 150.0),
    memory_range: tuple[float, float] = (256.0, 1024.0),
) -> Dict[int, ResourceVector]:
    """Heterogeneous peer capacities (CPU share units, memory MB)."""
    rng = as_generator(rng)
    return {
        p: ResourceVector(
            {
                "cpu": float(rng.uniform(*cpu_range)),
                "memory": float(rng.uniform(*memory_range)),
            }
        )
        for p in range(n_peers)
    }


@dataclass
class SpiderNet:
    """A fully wired SpiderNet node-set over one overlay."""

    overlay: Overlay
    loop: VirtualTimeLoop
    network: MessageNetwork
    pool: ResourcePool
    dht: PastryNetwork
    registry: ServiceRegistry
    bcp: BCP
    sessions: SessionManager
    ledger: MessageLedger
    churn: Optional[ChurnProcess] = None
    # optional AdaptiveBudgetPolicy (repro.core.budget): when set,
    # compose() with budget=None derives the budget per request (§4.1
    # Step 1) and feeds the outcome back to the controller
    budget_policy: Optional[object] = None
    # optional CompositionStrategy (repro.core.strategies): when set,
    # compose() routes through it instead of calling BCP directly; None
    # keeps the direct BCP path bit-for-bit untouched
    composer: Optional[object] = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        overlay: Overlay,
        rng=None,
        bcp_config: Optional[BCPConfig] = None,
        recovery_config: Optional[RecoveryConfig] = None,
        peer_capacity: Optional[Dict[int, ResourceVector]] = None,
        peer_failure: Optional[Callable[[int], float]] = None,
        churn_rate: Optional[float] = None,
        churn_downtime: float = 30.0,
    ) -> "SpiderNet":
        """Assemble the middleware over a prebuilt overlay.

        ``churn_rate`` (fraction of peers failing per time unit) creates
        and wires a churn process; ``peer_failure`` is the failure
        estimate BCP/recovery rank with (defaults to the churn-implied
        per-session failure probability, or 1 % without churn).
        """
        rng = as_generator(rng)
        loop = VirtualTimeLoop()
        ledger = MessageLedger()
        network = MessageNetwork()
        for peer in overlay.peers():
            network.register(peer)
        if peer_capacity is None:
            peer_capacity = default_peer_capacity(overlay.n_peers, rng)
        pool = ResourcePool(overlay, peer_capacity)
        dht = PastryNetwork(overlay, rng=rng, ledger=ledger)
        dht.build()
        registry = ServiceRegistry(dht)
        if peer_failure is None:
            base = churn_rate if churn_rate is not None else 0.01
            peer_failure = lambda peer: base  # noqa: E731 - simple default
        bcp = BCP(
            overlay,
            pool,
            registry,
            config=bcp_config,
            ledger=ledger,
            peer_failure=peer_failure,
            alive=network.is_alive,
            rng=rng,
        )
        sessions = SessionManager(loop, bcp, config=recovery_config, alive=network.is_alive)
        churn = None
        if churn_rate is not None:
            churn = ChurnProcess(
                loop,
                network,
                fail_fraction=churn_rate,
                downtime=churn_downtime,
                rng=rng,
            )
            churn.on_departure(dht.node_departed)
            churn.on_arrival(dht.node_arrived)
            churn.on_departure(registry.peer_departed)
            churn.on_arrival(registry.peer_arrived)
            churn.on_departure(sessions.peer_departed)
        return cls(
            overlay=overlay,
            loop=loop,
            network=network,
            pool=pool,
            dht=dht,
            registry=registry,
            bcp=bcp,
            sessions=sessions,
            ledger=ledger,
            churn=churn,
        )

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def deploy(self, specs: Sequence[ComponentSpec]) -> None:
        """Register a batch of service components with discovery."""
        for spec in specs:
            self.registry.register(spec, now=self.loop.time())

    # ------------------------------------------------------------------
    # the headline operations
    # ------------------------------------------------------------------
    def compose(
        self, request: CompositeRequest, budget: Optional[int] = None, confirm: bool = False
    ) -> CompositionResult:
        """One-shot QoS-aware composition (no session kept by default).

        With a :class:`~repro.core.budget.AdaptiveBudgetPolicy` attached
        and ``budget=None``, the policy chooses the budget (priority,
        complexity, strictness, feedback) and learns from the outcome.
        """
        if budget is None and self.budget_policy is not None:
            budget = self.budget_policy.budget_for(request)
        if self.composer is not None:
            result = self.composer.compose(
                request, budget=budget, confirm=confirm, now=self.loop.time()
            )
        else:
            result = self.bcp.compose(
                request, budget=budget, confirm=confirm, now=self.loop.time()
            )
        if self.budget_policy is not None:
            self.budget_policy.record_outcome(result)
        return result

    def strategy_context(self):
        """A :class:`~repro.core.strategies.StrategyContext` over this stack."""
        from .strategies import StrategyContext

        return StrategyContext.from_spidernet(self)

    def use_composer(self, name: Optional[str], **options):
        """Select the composition strategy by registry name.

        ``use_composer("bcp")`` routes through the BCP strategy adapter
        (bit-identical results, plus ``ops_*`` profiling keys);
        ``use_composer(None)`` restores the direct BCP call.  Returns the
        installed strategy (or None).
        """
        if name is None:
            self.composer = None
            return None
        from .strategies import create_strategy

        self.composer = create_strategy(name, self.strategy_context(), **options)
        return self.composer

    def start_session(
        self, request: CompositeRequest, budget: Optional[int] = None
    ) -> Optional[ServiceSession]:
        """Compose, admit, and keep a failure-resilient session."""
        return self.sessions.establish(request, budget=budget)

    def start_churn(self) -> None:
        if self.churn is None:
            raise RuntimeError("SpiderNet was built without churn_rate")
        self.churn.start()

    def run(self, until: float) -> None:
        """Advance the virtual clock (sessions, churn, maintenance run)."""
        advance(self.loop, until)
