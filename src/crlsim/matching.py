"""One matching round: priority sort, feasibility-gated preference matrix,
greedy source assignment, and deferral / big-task classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Task, SourceNode, SourcePool, TaskQueue, WeightsConfig
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


def _as_given(tasks, queue: TaskQueue):
    """``queue`` in the form the caller gave its tasks: a TaskQueue, else a list of Tasks."""
    return queue if isinstance(tasks, TaskQueue) else queue.tasks()


def sort_tasks_by_priority(tasks, ledger: PriorityLedger, weights: WeightsConfig) -> TaskQueue | list[Task]:
    """Descending matching-priority order, ties broken by ascending task_id.

    The priority is ``compute_matching_priority``'s expression, evaluated
    column-wise with the same float operations.  ``tasks`` is a TaskQueue or
    Tasks; the result is of the same kind.
    """
    queue = TaskQueue.of(tasks)
    balances = np.array([ledger.balance_of(owner) for owner in queue.owners.tolist()], dtype=np.float64)
    priority = weights.gamma_t * (queue.value / queue.cycles) + weights.gamma_p * balances
    return _as_given(tasks, queue.take(np.lexsort((queue.ids, -priority))))


def feasible(source: SourceNode, task: Task) -> bool:
    """True iff the source has enough total cycles and finishes before the deadline."""
    return (
        task.cycles_required <= source.cycles_per_second * source.idle_seconds
        and task.cycles_required / source.cycles_per_second <= task.deadline_s
    )


def build_prefer_matrix(sources, ordered_tasks) -> np.ndarray:
    """Build the m x n preference matrix over the pool and priority-sorted tasks.

    Row j is the pool's j-th source (ascending source_id), column i the i-th
    task.  A cell holds cycles_per_second / cycles_required where the source
    can finish the task within both its idle window and the task deadline
    (the test of ``feasible``), else 0.  ``sources`` is a SourcePool or
    SourceNodes, ``ordered_tasks`` a TaskQueue or Tasks.  Empty sources or
    tasks yield a degenerate matrix that matches nothing.
    """
    pool = SourcePool.of(sources)
    queue = TaskQueue.of(ordered_tasks)
    # Built task-major, one contiguous row per task as greedy_match scans it,
    # and returned as the m x n transpose of that.
    prefer = np.zeros((len(queue), len(pool)))
    if not len(pool):
        return prefer.T
    capacity = pool.rate * pool.idle
    # Rounded division is monotonic, so a task the fastest source cannot
    # finish by its deadline misses it on every source; one that needs more
    # than the largest capacity fits nowhere.  Their rows stay all zero.
    live = (queue.cycles / pool.rate.max() <= queue.deadline) & (queue.cycles <= capacity.max())
    cycles = queue.cycles[live, None]
    ok = cycles / pool.rate <= queue.deadline[live, None]
    ok &= cycles <= capacity
    prefer[live] = np.divide(pool.rate, cycles, out=np.zeros(ok.shape), where=ok)
    return prefer.T


def greedy_match(matrix: np.ndarray, sources, ordered_tasks) -> MatchResult:
    """Assign each task, in priority order, its best still-free source.

    Each column takes the row of its largest positive value, and that row is
    zeroed for the later columns, so a source serves at most one task per
    round; ``matrix`` itself is never mutated.  ``argmax`` returns the first
    maximum, so ties on preference value go to the lowest source_id.  Tasks
    whose column holds no positive value over the free sources are unmatched.
    """
    pool = SourcePool.of(sources)
    queue = TaskQueue.of(ordered_tasks)
    task_ids = queue.ids.tolist()
    if not len(pool):
        return MatchResult(assignments=[], unmatched_task_ids=task_ids)
    by_task = matrix.T  # one row per task
    # Zeroing never makes a value positive, so only tasks with a positive
    # value somewhere can match; only their rows are copied and scanned.
    candidates = np.flatnonzero(by_task.max(axis=1) > 0.0)
    free = by_task[candidates]
    leases: dict[int, int] = {}  # task column -> source row, in priority order
    for k, col in enumerate(candidates.tolist()):
        row = int(free[k].argmax())
        if free[k, row] > 0.0:
            free[k + 1:, row] = 0.0
            leases[col] = row
    cycles = queue.cycles.tolist()
    return MatchResult(
        assignments=[
            Assignment(task_id=task_ids[col], source_id=int(pool.ids[row]), busy_seconds=cycles[col] / float(pool.rate[row]))
            for col, row in leases.items()
        ],
        unmatched_task_ids=[task_id for col, task_id in enumerate(task_ids) if col not in leases],
    )


def classify_unmatched(unmatched, weights: WeightsConfig, step_seconds: float = 0.0) -> tuple:
    """Split this round's losers into deferred tasks and cloud-bound big tasks.

    Every task's rounds_deferred is incremented.  Tasks hitting the retry
    limit, and tasks whose deadline cannot survive another step's wait,
    escalate immediately; the rest re-enter the queue for the next round.
    ``unmatched`` is a TaskQueue or Tasks; both parts keep its order and kind.
    """
    queue = TaskQueue.of(unmatched)
    over = np.flatnonzero(queue.deferred >= weights.max_rounds_w)
    if len(over):
        task = queue.task(over[0])
        raise ValueError(
            f"task {task.task_id}: rounds_deferred {task.rounds_deferred} "
            f"already at limit {weights.max_rounds_w}"
        )
    bumped = replace(queue, deferred=queue.deferred + 1)
    big = (bumped.deferred >= weights.max_rounds_w) | (bumped.deadline - step_seconds <= 0)
    return _as_given(unmatched, bumped.take(~big)), _as_given(unmatched, bumped.take(big))


def full_round(tasks, sources, ledger: PriorityLedger, weights: WeightsConfig) -> tuple:
    """Convenience pipeline: sort, build the matrix, match greedily.

    ``sources`` is a SourcePool or SourceNodes in any order; ``tasks`` is a
    TaskQueue or Tasks, and the priority-ordered tasks come back as the same
    kind.
    """
    pool = SourcePool.of(sources)
    ordered = sort_tasks_by_priority(TaskQueue.of(tasks), ledger, weights)
    matrix = build_prefer_matrix(pool, ordered)
    return _as_given(tasks, ordered), matrix, greedy_match(matrix, pool, ordered)
