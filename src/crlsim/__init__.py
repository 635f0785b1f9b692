"""Deterministic simulator and matching engine for leasing idle local compute
against priority, with an all-to-cloud offloading baseline."""

from .model import (
    Task,
    SourceNode,
    SourcePool,
    TaskQueue,
    WeightsConfig,
    compute_matching_priority,
    compute_settlement_amount,
)
from .matching import (
    Assignment,
    MatchResult,
    sort_tasks_by_priority,
    feasible,
    build_prefer_matrix,
    greedy_match,
    classify_unmatched,
    full_round,
)
from .settlement import PriorityLedger, SettlementRecord, apply_settlement
from .simulator import SimConfig, WorkloadConfig, SimState, generate_arrivals, step_crl, step_cloud, run
from .metrics import (
    SimReport,
    StepSample,
    AssignmentRecord,
    ComparisonSummary,
    idle_capacity,
    emit_report,
    load_report_csv,
    compare_reports,
)

__all__ = [
    "Task",
    "SourceNode",
    "SourcePool",
    "TaskQueue",
    "WeightsConfig",
    "compute_matching_priority",
    "compute_settlement_amount",
    "Assignment",
    "MatchResult",
    "sort_tasks_by_priority",
    "feasible",
    "build_prefer_matrix",
    "greedy_match",
    "classify_unmatched",
    "full_round",
    "PriorityLedger",
    "SettlementRecord",
    "apply_settlement",
    "SimConfig",
    "WorkloadConfig",
    "SimState",
    "generate_arrivals",
    "step_crl",
    "step_cloud",
    "run",
    "SimReport",
    "StepSample",
    "AssignmentRecord",
    "ComparisonSummary",
    "idle_capacity",
    "emit_report",
    "load_report_csv",
    "compare_reports",
]

__version__ = "0.1.0"
