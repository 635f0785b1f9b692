"""One matching round: priority sort, feasibility-gated preference matrix,
greedy source assignment, and deferral / big-task classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Task, SourceNode, SourcePool, WeightsConfig, compute_matching_priority
from .settlement import PriorityLedger


@dataclass(frozen=True)
class Assignment:
    task_id: int
    source_id: int
    busy_seconds: float


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one greedy round: per-source leases plus leftovers."""

    assignments: list[Assignment]
    unmatched_task_ids: list[int]


def sort_tasks_by_priority(tasks, ledger: PriorityLedger, weights: WeightsConfig) -> list[Task]:
    """Descending matching-priority order, ties broken by ascending task_id."""
    return sorted(
        tasks,
        key=lambda t: (-compute_matching_priority(t, ledger.balance_of(t.owner_id), weights), t.task_id),
    )


def feasible(source: SourceNode, task: Task) -> bool:
    """True iff the source has enough total cycles and finishes before the deadline."""
    return (
        task.cycles_required <= source.cycles_per_second * source.idle_seconds
        and task.cycles_required / source.cycles_per_second <= task.deadline_s
    )


def build_prefer_matrix(sources, ordered_tasks: list[Task]) -> np.ndarray:
    """Build the m x n preference matrix over the pool and priority-sorted tasks.

    Row j is the pool's j-th source (ascending source_id), column i the i-th
    task.  A cell holds cycles_per_second / cycles_required where the source
    can finish the task within both its idle window and the task deadline
    (the test of ``feasible``), else 0.  ``sources`` is a SourcePool or
    SourceNodes.  Empty sources or tasks yield a degenerate matrix that
    matches nothing.
    """
    pool = SourcePool.of(sources)
    # Built task-major, one contiguous row per task as greedy_match scans it,
    # and returned as the m x n transpose of that.
    cycles = np.array([t.cycles_required for t in ordered_tasks], dtype=np.float64)[:, None]
    deadline = np.array([t.deadline_s for t in ordered_tasks], dtype=np.float64)[:, None]
    ok = cycles / pool.rate <= deadline
    ok &= cycles <= pool.rate * pool.idle
    return np.divide(pool.rate, cycles, out=np.zeros(ok.shape), where=ok).T


def greedy_match(matrix: np.ndarray, sources, ordered_tasks: list[Task]) -> MatchResult:
    """Assign each task, in priority order, its best still-free source.

    Each column takes the row of its largest positive value, and that row is
    zeroed for the later columns, so a source serves at most one task per
    round; ``matrix`` itself is never mutated.  ``argmax`` returns the first
    maximum, so ties on preference value go to the lowest source_id.  Tasks
    whose column holds no positive value over the free sources are unmatched.
    """
    pool = SourcePool.of(sources)
    if not len(pool):
        return MatchResult(assignments=[], unmatched_task_ids=[t.task_id for t in ordered_tasks])
    free = matrix.T.copy()  # one row per task
    assignments: list[Assignment] = []
    unmatched: list[int] = []
    for col, task in enumerate(ordered_tasks):
        row = int(free[col].argmax())
        if free[col, row] <= 0.0:
            unmatched.append(task.task_id)
            continue
        free[col + 1:, row] = 0.0
        assignments.append(
            Assignment(
                task_id=task.task_id,
                source_id=int(pool.ids[row]),
                busy_seconds=task.cycles_required / float(pool.rate[row]),
            )
        )
    return MatchResult(assignments=assignments, unmatched_task_ids=unmatched)


def classify_unmatched(
    unmatched: list[Task], weights: WeightsConfig, step_seconds: float = 0.0
) -> tuple[list[Task], list[Task]]:
    """Split this round's losers into deferred tasks and cloud-bound big tasks.

    Every task's rounds_deferred is incremented.  Tasks hitting the retry
    limit, and tasks whose deadline cannot survive another step's wait,
    escalate immediately; the rest re-enter the queue for the next round.
    """
    deferred: list[Task] = []
    big: list[Task] = []
    for task in unmatched:
        if task.rounds_deferred >= weights.max_rounds_w:
            raise ValueError(
                f"task {task.task_id}: rounds_deferred {task.rounds_deferred} "
                f"already at limit {weights.max_rounds_w}"
            )
        bumped = replace(task, rounds_deferred=task.rounds_deferred + 1)
        if bumped.rounds_deferred >= weights.max_rounds_w or bumped.deadline_s - step_seconds <= 0:
            big.append(bumped)
        else:
            deferred.append(bumped)
    return deferred, big


def full_round(
    tasks, sources, ledger: PriorityLedger, weights: WeightsConfig
) -> tuple[list[Task], np.ndarray, MatchResult]:
    """Convenience pipeline: sort, build the matrix, match greedily.

    ``sources`` is a SourcePool or SourceNodes in any order.
    """
    pool = SourcePool.of(sources)
    ordered = sort_tasks_by_priority(tasks, ledger, weights)
    matrix = build_prefer_matrix(pool, ordered)
    return ordered, matrix, greedy_match(matrix, pool, ordered)
