"""Test-side bridges between Task/SourceNode records and crlsim's columns.

crlsim takes and returns TaskQueue/SourcePool columns and row indices; many
tests are written over lists of records and compare task and source ids.
"""

from crlsim.matching import full_round
from crlsim.model import SourceNode, SourcePool, Task, TaskQueue


def rows_of(table):
    """A TaskQueue's or SourcePool's rows as tuples, in row order.

    The columns follow the fields of Task or SourceNode, so each tuple holds
    one record's fields in order.
    """
    return list(zip(*(column.tolist() for column in vars(table).values())))


def tasks_of(queue):
    """The queue's rows as Tasks, in row order."""
    return [Task(*row) for row in rows_of(queue)]


def nodes_of(pool):
    """The pool's rows as SourceNodes, in row order."""
    return [SourceNode(*row) for row in rows_of(pool)]


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
