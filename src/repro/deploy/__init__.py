"""Deployment: partition planning, secure inference sessions, profiling."""

from .inference import SecureInferenceSession
from .partition import DeploymentPlan, EnclaveBudget, enclave_budget, plan_deployment
from .profiler import InferenceProfile, model_compute_seconds
from .resilience import (
    DEGRADED_BACKBONE_ONLY,
    DEGRADED_QUEUE,
    EnclaveSupervisor,
    RecoveryPolicy,
)
from .scheduler import (
    BatchPolicy,
    MicroBatchScheduler,
    PipelineStats,
    SchedulerOverloaded,
    StripedLocks,
)
from .server import (
    InvalidQuery,
    QueryBudgetExceeded,
    ServerStats,
    VaultServer,
    zipf_workload,
)
from .updates import GraphUpdate, extend_adjacency, seal_graph_update

__all__ = [
    "BatchPolicy",
    "DEGRADED_BACKBONE_ONLY",
    "DEGRADED_QUEUE",
    "DeploymentPlan",
    "EnclaveBudget",
    "EnclaveSupervisor",
    "GraphUpdate",
    "InferenceProfile",
    "InvalidQuery",
    "MicroBatchScheduler",
    "RecoveryPolicy",
    "PipelineStats",
    "QueryBudgetExceeded",
    "SchedulerOverloaded",
    "SecureInferenceSession",
    "ServerStats",
    "StripedLocks",
    "VaultServer",
    "enclave_budget",
    "extend_adjacency",
    "model_compute_seconds",
    "plan_deployment",
    "seal_graph_update",
    "zipf_workload",
]
