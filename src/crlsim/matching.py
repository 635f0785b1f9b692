"""One matching round: priority sort, a shortlist of the sources that can win,
ranked by rate, greedy source assignment over its feasibility mask, and
deferral / big-task classification."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import SourcePool, TaskQueue, WeightsConfig

_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # bit j of a task's word is column j


@dataclass(frozen=True, eq=False)  # a generated __eq__ would compare arrays elementwise
class MatchResult:
    """Outcome of one greedy round over a priority-ordered queue and a pool.

    ``assignments`` is a fresh, writable (k, 2) intp array of (queue row,
    pool row) pairs in priority order; ``unmatched_task_ids`` holds the ids
    of the other tasks, in priority order.
    """

    assignments: np.ndarray
    unmatched_task_ids: list[int]


def sort_tasks_by_priority(queue: TaskQueue, ledger: dict[int, float], weights: WeightsConfig) -> TaskQueue:
    """The queue in descending matching-priority order, ties broken by ascending task_id.

    The priority is gamma_t * (value / cycles) + gamma_p * the owner's
    balance in ``ledger`` (0 if absent), evaluated column-wise.
    """
    owners = queue.owners.tolist()
    balances = np.fromiter(map(ledger.get, owners, repeat(0.0)), dtype=np.float64, count=len(owners))
    priority = weights.gamma_t * (queue.value / queue.cycles) + weights.gamma_p * balances
    return queue.take(np.lexsort((queue.ids, -priority)))


def feasible_mask(pool: SourcePool, queue: TaskQueue) -> np.ndarray:
    """The n x m bool mask, task-major, of the sources that can serve each task.

    Cell (i, j) is set where the pool's j-th source can finish the queue's
    i-th task within both its idle window and the task deadline: ``cycles
    <= pool.capacity()`` and ``cycles / rate <= deadline``.
    """
    cycles = queue.cycles[:, None]
    ok = cycles / pool.rate <= queue.deadline[:, None]
    ok &= cycles <= pool.capacity()
    return ok


def build_prefer_matrix(pool: SourcePool, queue: TaskQueue) -> np.ndarray:
    """Build the m x n preference matrix over the pool and priority-sorted tasks.

    Row j is the pool's j-th source (ascending source_id), column i the
    queue's i-th task.  A cell holds cycles_per_second / cycles_required
    where ``feasible_mask`` sets it, else 0.  An empty pool or queue yields a
    degenerate matrix that matches nothing.

    ``run()`` no longer calls it.  For one task a cell ranks the sources as
    their rates do, ``greedy_match``'s rule, except where sources of
    different rates round to one quotient; the tests compare against it
    where no such tie occurs.
    """
    ok = feasible_mask(pool, queue)
    # A masked divide, not a multiply by the mask: an overflowing quotient
    # times a zero mask would be NaN.
    return np.divide(pool.rate, queue.cycles[:, None], out=np.zeros(ok.shape), where=ok).T


def greedy_match(mask: np.ndarray, pool: SourcePool, queue: TaskQueue) -> MatchResult:
    """Assign each task, in priority order, its fastest free feasible source.

    ``mask`` is the n x m ``feasible_mask`` of ``queue`` against a pool
    ranked by rate, descending, equal rates in ascending source_id, so the
    fastest free feasible source, equal rates to the lowest source_id, is the
    task's lowest free set bit.  ``pool`` is that ranked pool; the body does
    not read it, but perfbench's tracer counts its rows.  Each task's row of
    ``mask`` is one Python int, bit j for column j; past 64 columns, packing
    8 to a byte costs a fifth of ORing 64-column products.
    """
    if mask.shape[1] <= len(_BITS):
        words = (mask @ _BITS[:mask.shape[1]]).tolist()
    else:
        packed = np.packbits(mask, axis=1, bitorder="little")
        data, width = packed.tobytes(), packed.shape[1]
        words = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    taken = 0
    cols, rows = [], []
    for col, word in enumerate(words):
        word &= ~taken
        if word:
            bit = word & -word
            taken |= bit
            cols.append(col)
            rows.append(bit.bit_length() - 1)
    unmatched = queue.ids.tolist()
    for col in reversed(cols):  # ascending, so each deletion leaves the earlier rows in place
        del unmatched[col]
    return MatchResult(assignments=np.array((cols, rows), dtype=np.intp).T, unmatched_task_ids=unmatched)


def classify_unmatched(queue: TaskQueue, matched_rows: np.ndarray, weights: WeightsConfig, step_seconds: float) -> tuple[TaskQueue, TaskQueue]:
    """Split this round's losers into deferred tasks and cloud-bound big tasks.

    The losers are the rows of the round's ordered ``queue`` not in
    ``matched_rows``; ``queue`` itself is left as it is.  Every loser's
    rounds_deferred is incremented.  Losers hitting the retry limit, and those
    whose deadline cannot survive another step's wait, escalate immediately;
    the rest re-enter the queue for the next round with that wait taken off
    their deadline, the only place a deadline ages.  Both keep queue order.
    """
    lost = np.ones(len(queue), dtype=bool)
    lost[matched_rows] = False
    bumped = queue.deferred + 1
    if np.maximum.reduce(bumped, initial=0) > weights.max_rounds_w:
        over = (lost & (bumped > weights.max_rounds_w)).nonzero()[0]
        if len(over):
            raise ValueError(
                f"task {queue.ids[over[0]]}: rounds_deferred {queue.deferred[over[0]]} "
                f"already at limit {weights.max_rounds_w}"
            )
    ahead = queue.deadline - step_seconds
    big = (bumped >= weights.max_rounds_w) | (ahead <= 0.0)
    stay, go = (lost & ~big).nonzero()[0], (lost & big).nonzero()[0]
    ids, owners, deadline, cycles, value = queue.ids, queue.owners, queue.deadline, queue.cycles, queue.value
    return (TaskQueue(ids[stay], owners[stay], ahead[stay], cycles[stay], value[stay], bumped[stay]),
            TaskQueue(ids[go], owners[go], deadline[go], cycles[go], value[go], bumped[go]))


def contending_sources(pool: SourcePool, ordered: TaskQueue) -> np.ndarray:
    """The pool rows, ascending, of every source greedy matching may pick this round.

    A task is live if the fastest source meets its deadline and the largest
    capacity holds its cycles; rounded division is monotonic, so no source
    can serve any other task.  With ``k`` live tasks, ``cmax`` their largest
    cycles and ``r_k`` the k-th largest rate among the universal sources
    (those whose ``capacity()`` is at least ``cmax``), the rows kept are
    those with ``rate >= r_k``.

    Nothing dropped could win.  Only live tasks lease, so at most ``k - 1``
    leases precede any live task, and one of the ``k`` fastest universal
    sources is still free when it comes up.  That source holds the task's
    cycles, and it meets the task's deadline whenever a slower source does,
    as ``fl(c / r)`` never rises as ``r`` grows.  So the task's fastest free
    feasible source has a rate of at least ``r_k``, and every row of that
    rate is kept, its lowest source_id among them.

    All live rows are kept when fewer than ``k`` sources are universal.  No
    live task, as in an empty pool, gives no rows.  Dead rows are never kept
    (see ``SourcePool``); a dead ``fastest`` only marks more tasks live, and
    the argument holds for any superset of the live tasks.
    """
    rate, cycles, capacity = pool.rate, ordered.cycles, pool.capacity()
    fastest = np.maximum.reduce(rate, initial=-np.inf)
    live = ((cycles / fastest <= ordered.deadline) & (cycles <= np.maximum.reduce(capacity, initial=-np.inf))).nonzero()[0]
    k = len(live)
    if not k:
        return live
    cmax = np.maximum.reduce(cycles[live])
    universal = rate[capacity >= cmax]  # a fresh gather, so it may be partitioned in place
    bound = -np.inf  # every row, unless the argument above applies
    if len(universal) >= k:
        universal.partition(-k)
        bound = universal[-k]
    rows = (rate >= bound).nonzero()[0]
    return rows[capacity[rows] > 0.0]


def full_round(queue: TaskQueue, pool: SourcePool, ledger: dict[int, float], weights: WeightsConfig) -> tuple[TaskQueue, MatchResult]:
    """Sort the queue by priority and match it greedily to the pool.

    The match covers the ``contending_sources`` of the pool, which hold every
    source greedy matching over the whole pool would pick, ranked by rate as
    ``greedy_match`` takes them.  So each task, in priority order, leases
    its fastest free feasible source in the whole pool, equal rates to the
    lowest source_id.  Returns the priority-ordered queue, whose rows the
    result's assignments index, and the match result, whose assignments
    index the whole pool.
    """
    ordered = sort_tasks_by_priority(queue, ledger, weights)
    rows = contending_sources(pool, ordered)
    rows = rows[np.argsort(-pool.rate[rows], kind="stable")]
    short = pool.take(rows)
    result = greedy_match(feasible_mask(short, ordered), short, ordered)
    result.assignments[:, 1] = rows[result.assignments[:, 1]]  # a fresh array, from shortlist to pool rows
    return ordered, result
