"""One matching round: priority sort, feasibility-gated preference matrix,
greedy source assignment, and deferral / big-task classification."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Task, SourceNode, SourcePool, TaskQueue, WeightsConfig
from .settlement import PriorityLedger


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays elementwise
class MatchResult:
    """Outcome of one greedy round over a priority-ordered queue and a pool.

    ``assignments`` is a (k, 2) int array of (queue row, pool row) pairs in
    priority order; ``unmatched_task_ids`` holds the ids of the other tasks,
    in priority order.
    """

    assignments: np.ndarray
    unmatched_task_ids: list[int]


def sort_tasks_by_priority(queue: TaskQueue, ledger: PriorityLedger, weights: WeightsConfig) -> TaskQueue:
    """The queue in descending matching-priority order, ties broken by ascending task_id.

    The priority is ``compute_matching_priority``'s expression, evaluated
    column-wise with the same float operations.
    """
    balances = np.array([ledger.balance_of(owner) for owner in queue.owners.tolist()], dtype=np.float64)
    priority = weights.gamma_t * (queue.value / queue.cycles) + weights.gamma_p * balances
    return queue.take(np.lexsort((queue.ids, -priority)))


def feasible(source: SourceNode, task: Task) -> bool:
    """True iff the source has enough total cycles and finishes before the deadline."""
    return (
        task.cycles_required <= source.cycles_per_second * source.idle_seconds
        and task.cycles_required / source.cycles_per_second <= task.deadline_s
    )


def build_prefer_matrix(pool: SourcePool, queue: TaskQueue) -> np.ndarray:
    """Build the m x n preference matrix over the pool and priority-sorted tasks.

    Row j is the pool's j-th source (ascending source_id), column i the
    queue's i-th task.  A cell holds cycles_per_second / cycles_required
    where the source can finish the task within both its idle window and the
    task deadline (the test of ``feasible``), else 0.  An empty pool or
    queue yields a degenerate matrix that matches nothing.
    """
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


def greedy_match(matrix: np.ndarray, pool: SourcePool, queue: TaskQueue) -> MatchResult:
    """Assign each task, in priority order, its best still-free source.

    Each column takes the row of its largest positive value, and that row is
    zeroed for the later columns, so a source serves at most one task per
    round; ``matrix`` itself is never mutated.  ``argmax`` returns the first
    maximum, so ties on preference value go to the lowest source_id.  Tasks
    whose column holds no positive value over the free sources are unmatched.
    """
    by_task = matrix.T  # one row per task
    # Zeroing never makes a value positive, so only tasks with a positive
    # value somewhere can match; only their rows are copied and scanned.
    candidates = np.flatnonzero(by_task.max(axis=1, initial=0.0) > 0.0)
    free = by_task[candidates]
    pairs = []
    for k, col in enumerate(candidates.tolist()):
        row = int(free[k].argmax())
        if free[k, row] > 0.0:
            free[k + 1:, row] = 0.0
            pairs.append((col, row))
    assignments = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    unmatched = np.ones(len(queue), dtype=bool)
    unmatched[assignments[:, 0]] = False
    return MatchResult(assignments=assignments, unmatched_task_ids=queue.ids[unmatched].tolist())


def classify_unmatched(queue: TaskQueue, weights: WeightsConfig, step_seconds: float = 0.0) -> tuple[TaskQueue, TaskQueue]:
    """Split this round's losers into deferred tasks and cloud-bound big tasks.

    Every task's rounds_deferred is incremented.  Tasks hitting the retry
    limit, and tasks whose deadline cannot survive another step's wait,
    escalate immediately; the rest re-enter the queue for the next round.
    Both parts keep the queue's order.
    """
    over = np.flatnonzero(queue.deferred >= weights.max_rounds_w)
    if len(over):
        raise ValueError(
            f"task {queue.ids[over[0]]}: rounds_deferred {queue.deferred[over[0]]} "
            f"already at limit {weights.max_rounds_w}"
        )
    bumped = replace(queue, deferred=queue.deferred + 1)
    big = (bumped.deferred >= weights.max_rounds_w) | (bumped.deadline - step_seconds <= 0)
    return bumped.take(~big), bumped.take(big)


def full_round(queue: TaskQueue, pool: SourcePool, ledger: PriorityLedger, weights: WeightsConfig) -> tuple[TaskQueue, MatchResult]:
    """Sort the queue by priority and match it greedily to the pool.

    Returns the priority-ordered queue, whose rows the result's assignments
    index, and the match result.
    """
    ordered = sort_tasks_by_priority(queue, ledger, weights)
    return ordered, greedy_match(build_prefer_matrix(pool, ordered), pool, ordered)
