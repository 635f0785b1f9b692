"""Discrete-time loop binding arrivals, matching, settlement and metrics,
plus the all-to-cloud baseline policy."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Task, SourceNode, SourcePool, WeightsConfig
from .matching import full_round, classify_unmatched
from .settlement import PriorityLedger, SettlementRecord, apply_settlement
from .metrics import SimReport, StepSample, AssignmentRecord, idle_capacity

POLICIES = ("crl", "cloud")


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival rates and uniform field ranges for the synthetic workload."""

    task_arrival_rate: float = 10.0
    source_arrival_rate: float = 30.0
    cycles_range: tuple[float, float] = (200.0, 3000.0)
    value_range: tuple[float, float] = (1.0, 10.0)
    deadline_range: tuple[float, float] = (5.0, 40.0)
    idle_range: tuple[float, float] = (40.0, 80.0)
    rate_range: tuple[float, float] = (5.0, 40.0)
    device_count: int = 30

    def __post_init__(self):
        if self.task_arrival_rate < 0 or self.source_arrival_rate < 0:
            raise ValueError("arrival rates must be >= 0")
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")
        for name in ("cycles_range", "value_range", "deadline_range", "idle_range", "rate_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: lower bound {lo} exceeds upper bound {hi}")
        for name in ("cycles_range", "deadline_range", "rate_range"):
            if getattr(self, name)[0] <= 0:
                raise ValueError(f"{name}: lower bound must be > 0")
        if self.value_range[0] < 0:
            raise ValueError("value_range: lower bound must be >= 0")
        if self.idle_range[0] < 0:
            raise ValueError("idle_range: lower bound must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    steps: int = 200
    step_seconds: float = 1.0
    rng_seed: int = 1
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    policy: str = "crl"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_seconds <= 0:
            raise ValueError(f"step_seconds must be > 0, got {self.step_seconds}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")


@dataclass
class SimState:
    """Mutable state threaded through the per-step loop of a single run."""

    config: SimConfig
    rng: np.random.Generator
    step: int = 0
    pending: list[Task] = field(default_factory=list)
    pool: SourcePool = field(default_factory=SourcePool)
    ledger: PriorityLedger = field(default_factory=PriorityLedger)
    samples: list[StepSample] = field(default_factory=list)
    settlement_records: list[SettlementRecord] = field(default_factory=list)
    assignment_records: list[AssignmentRecord] = field(default_factory=list)
    next_task_id: int = 0
    next_source_id: int = 0
    arrived_tasks: int = 0
    matched_tasks: int = 0
    migrated_tasks: int = 0
    migrated_value_cum: float = 0.0
    migrated_cycles_cum: float = 0.0


def generate_arrivals(
    workload: WorkloadConfig,
    rng: np.random.Generator,
    step: int,
    next_task_id: int = 0,
    next_source_id: int = 0,
) -> tuple[list[Task], list[SourceNode]]:
    """Draw one step's Poisson task and source arrivals.

    Identifiers continue from the supplied counters, so a fixed seed yields an
    identical arrival sequence regardless of how the arrivals get handled.
    """
    n_tasks = int(rng.poisson(workload.task_arrival_rate))
    n_sources = int(rng.poisson(workload.source_arrival_rate))
    tasks = []
    for k in range(n_tasks):
        tasks.append(
            Task(
                task_id=next_task_id + k,
                owner_id=int(rng.integers(0, workload.device_count)),
                deadline_s=float(rng.uniform(*workload.deadline_range)),
                cycles_required=float(rng.uniform(*workload.cycles_range)),
                value=float(rng.uniform(*workload.value_range)),
                arrival_step=step,
            )
        )
    sources = []
    for k in range(n_sources):
        sources.append(
            SourceNode(
                source_id=next_source_id + k,
                owner_id=int(rng.integers(0, workload.device_count)),
                idle_seconds=float(rng.uniform(*workload.idle_range)),
                cycles_per_second=float(rng.uniform(*workload.rate_range)),
            )
        )
    return tasks, sources


def _age_state(state: SimState) -> list[Task]:
    """Advance wall-clock by one step for carried-over tasks and sources.

    Returns pending tasks whose deadline expired while waiting; they can no
    longer be finished by any source and escalate straight to the cloud.
    """
    dt = state.config.step_seconds
    survivors: list[Task] = []
    expired: list[Task] = []
    for task in state.pending:
        aged = replace(task, deadline_s=task.deadline_s - dt)
        (expired if aged.deadline_s <= 0 else survivors).append(aged)
    state.pending = survivors
    state.pool.age(dt)
    return expired


def _escalate(state: SimState, tasks: list[Task]):
    for task in tasks:
        state.migrated_tasks += 1
        state.migrated_value_cum += task.value
        state.migrated_cycles_cum += task.cycles_required


def _record_sample(state: SimState, matched: int, deferred: int, migrated: int):
    state.samples.append(
        StepSample(
            step=state.step,
            policy=state.config.policy,
            idle_capacity=idle_capacity(state.pool),
            matched=matched,
            deferred=deferred,
            migrated=migrated,
            migrated_value_cum=state.migrated_value_cum,
            migrated_cycles_cum=state.migrated_cycles_cum,
        )
    )


def step_crl(state: SimState, config: SimConfig) -> SimState:
    """Run one leasing round: age, match, settle, consume, defer or escalate."""
    migrated_before = state.migrated_tasks

    new_tasks, new_sources = generate_arrivals(
        config.workload, state.rng, state.step, state.next_task_id, state.next_source_id
    )
    state.next_task_id += len(new_tasks)
    state.next_source_id += len(new_sources)
    state.arrived_tasks += len(new_tasks)

    expired = _age_state(state)
    _escalate(state, expired)
    state.pending.extend(new_tasks)
    state.pool.extend(new_sources)

    ordered, _, result = full_round(state.pending, state.pool, state.ledger, config.weights)
    task_by_id = {t.task_id: t for t in ordered}
    rows = state.pool.rows([a.source_id for a in result.assignments])
    chosen = [state.pool.node(row) for row in rows]

    records = apply_settlement(result, ordered, chosen, state.ledger, config.weights, step=state.step)
    state.settlement_records.extend(records)

    for a, src in zip(result.assignments, chosen):
        task = task_by_id[a.task_id]
        state.assignment_records.append(
            AssignmentRecord(
                step=state.step,
                task_id=a.task_id,
                source_id=a.source_id,
                busy_seconds=a.busy_seconds,
                task_cycles_required=task.cycles_required,
                task_deadline_s=task.deadline_s,
                source_idle_seconds=src.idle_seconds,
                source_cycles_per_second=src.cycles_per_second,
            )
        )
    state.matched_tasks += len(result.assignments)
    state.pool.consume(rows, [a.busy_seconds for a in result.assignments])

    unmatched_tasks = [task_by_id[tid] for tid in result.unmatched_task_ids]
    deferred, big = classify_unmatched(unmatched_tasks, config.weights, config.step_seconds)
    _escalate(state, big)
    state.pending = deferred

    _record_sample(
        state,
        matched=len(result.assignments),
        deferred=len(deferred),
        migrated=state.migrated_tasks - migrated_before,
    )
    state.step += 1
    return state


def step_cloud(state: SimState, config: SimConfig) -> SimState:
    """Baseline: every arriving task migrates to the cloud immediately.

    Sources are never leased, so the pool only ages; under a stationary
    workload its capacity settles to a roughly constant level.
    """
    migrated_before = state.migrated_tasks

    new_tasks, new_sources = generate_arrivals(
        config.workload, state.rng, state.step, state.next_task_id, state.next_source_id
    )
    state.next_task_id += len(new_tasks)
    state.next_source_id += len(new_sources)
    state.arrived_tasks += len(new_tasks)

    _age_state(state)
    state.pool.extend(new_sources)
    _escalate(state, new_tasks)

    _record_sample(state, matched=0, deferred=0, migrated=state.migrated_tasks - migrated_before)
    state.step += 1
    return state


def run(config: SimConfig) -> SimReport:
    """Execute a full run from a fresh state; deterministic for a fixed seed."""
    state = SimState(config=config, rng=np.random.default_rng(config.rng_seed))
    step_fn = step_crl if config.policy == "crl" else step_cloud
    for _ in range(config.steps):
        step_fn(state, config)
    return SimReport(
        policy=config.policy,
        seed=config.rng_seed,
        samples=state.samples,
        ledger_snapshot=state.ledger.snapshot(),
        settlement_records=state.settlement_records,
        assignment_records=state.assignment_records,
        arrived_tasks=state.arrived_tasks,
        matched_tasks=state.matched_tasks,
        migrated_tasks=state.migrated_tasks,
        pending_tasks=len(state.pending),
    )
