"""Test-side bridges between Task/SourceNode records and crlsim's columns.

crlsim takes and returns TaskQueue/SourcePool columns and row indices; many
tests are written over lists of records and compare task and source ids.
"""

from crlsim.matching import full_round
from crlsim.model import SourceNode, SourcePool, Task, TaskQueue


def tasks_of(queue):
    """The queue's rows as Tasks, in row order."""
    columns = (queue.ids, queue.owners, queue.deadline, queue.cycles, queue.value, queue.arrival, queue.deferred)
    return [Task(*row) for row in zip(*(column.tolist() for column in columns))]


def nodes_of(pool):
    """The pool's rows as SourceNodes, in row order."""
    columns = (pool.ids, pool.owners, pool.idle, pool.rate)
    return [SourceNode(*row) for row in zip(*(column.tolist() for column in columns))]


def lease_ids(ordered, result, pool):
    """A match result's leases as (task_id, source_id) pairs, in priority order."""
    task_rows, rows = result.assignments.T
    return list(zip(ordered.ids[task_rows].tolist(), pool.ids[rows].tolist()))


def round_ids(tasks, sources, ledger, weights):
    """``full_round`` over lists of Tasks and SourceNodes, in ids.

    Returns the task ids in priority order, the leases as a dict task_id ->
    source_id, and the unmatched task ids in priority order.
    """
    pool = SourcePool.of(sources)
    ordered, result = full_round(TaskQueue.of(tasks), pool, ledger, weights)
    return ordered.ids.tolist(), dict(lease_ids(ordered, result, pool)), result.unmatched_task_ids
