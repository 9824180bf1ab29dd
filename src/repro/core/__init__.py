"""SpiderNet's core: QoS model, composition problem, BCP, recovery, sessions."""

from .baselines import (
    CentralizedComposer,
    OptimalComposer,
    RandomComposer,
    SearchSpaceExceeded,
    StaticComposer,
    admit_graph,
    enumerate_candidates,
    optimal_probe_count,
)
from .bcp import (
    BCP,
    BCPConfig,
    CompositionResult,
    NextHopWeights,
    derive_next_functions,
)
from .budget import AdaptiveBudgetPolicy, BudgetPolicyConfig
from .composition import SpiderNet, default_peer_capacity
from .conditional import (
    ConditionalAnnotation,
    ConditionalRouter,
    branch_probabilities,
    conditional_link_bandwidths,
    expected_qos,
    select_by_expected_qos,
)
from .cost import CostWeights, psi_cost
from .function_graph import FunctionGraph, FunctionGraphError
from .probe import Probe
from .qos import (
    DEFAULT_METRICS,
    QoSRequirement,
    QoSVector,
    additive_to_loss,
    loss_to_additive,
)
from .quota import (
    QuotaPolicy,
    ReplicationProportionalQuota,
    UniformQuota,
    budget_for_fraction,
    split_budget,
)
from .recovery import backup_count, bottleneck_order, select_backups
from .render import describe_composition, render_function_graph, render_service_graph
from .request import CompositeRequest
from .resources import (
    DEFAULT_RESOURCE_TYPES,
    InsufficientResources,
    ResourcePool,
    ResourceVector,
)
from .selection import CandidateGraph, SelectionOutcome, merge_probes, select_composition
from .service_graph import ServiceGraph, ServiceLink
from .session import RecoveryConfig, ServiceSession, SessionManager, SessionState
from .strategies import (
    CompositionStrategy,
    DecompositionComposer,
    PrunedBacktrackingComposer,
    StrategyContext,
    UnknownStrategyError,
    create_strategy,
    get_strategy,
    register_strategy,
    search_compositions,
    strategy_names,
)

__all__ = [
    "AdaptiveBudgetPolicy",
    "BudgetPolicyConfig",
    "BCP",
    "BCPConfig",
    "CandidateGraph",
    "ConditionalAnnotation",
    "ConditionalRouter",
    "CentralizedComposer",
    "CompositeRequest",
    "CompositionResult",
    "CompositionStrategy",
    "CostWeights",
    "DecompositionComposer",
    "DEFAULT_METRICS",
    "DEFAULT_RESOURCE_TYPES",
    "FunctionGraph",
    "FunctionGraphError",
    "InsufficientResources",
    "NextHopWeights",
    "OptimalComposer",
    "Probe",
    "PrunedBacktrackingComposer",
    "SearchSpaceExceeded",
    "StrategyContext",
    "UnknownStrategyError",
    "QoSRequirement",
    "QoSVector",
    "QuotaPolicy",
    "RandomComposer",
    "RecoveryConfig",
    "ReplicationProportionalQuota",
    "ResourcePool",
    "ResourceVector",
    "SelectionOutcome",
    "ServiceGraph",
    "ServiceLink",
    "ServiceSession",
    "SessionManager",
    "SessionState",
    "SpiderNet",
    "StaticComposer",
    "UniformQuota",
    "additive_to_loss",
    "admit_graph",
    "backup_count",
    "branch_probabilities",
    "conditional_link_bandwidths",
    "bottleneck_order",
    "budget_for_fraction",
    "create_strategy",
    "default_peer_capacity",
    "get_strategy",
    "register_strategy",
    "search_compositions",
    "strategy_names",
    "describe_composition",
    "derive_next_functions",
    "expected_qos",
    "enumerate_candidates",
    "loss_to_additive",
    "merge_probes",
    "optimal_probe_count",
    "psi_cost",
    "render_function_graph",
    "render_service_graph",
    "select_backups",
    "select_by_expected_qos",
    "select_composition",
    "split_budget",
]
