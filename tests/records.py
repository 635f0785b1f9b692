"""Test-side records of one task and one source, and bridges between them and
crlsim's columns.

crlsim takes and returns TaskQueue/SourcePool columns and row indices; many
tests are written over lists of records and compare task and source ids.
"""

from operator import attrgetter
from typing import NamedTuple

import numpy as np

from crlsim.matching import full_round
from crlsim.model import SourcePool, TaskQueue


class Task(NamedTuple):
    """One task: ``deadline_s`` is seconds left, ``rounds_deferred`` the
    matching rounds it already failed.  Its fields are a TaskQueue row's."""

    task_id: int
    owner_id: int
    deadline_s: float
    cycles_required: float
    value: float
    rounds_deferred: int = 0


class SourceNode(NamedTuple):
    """One source offering ``idle_seconds`` at ``cycles_per_second``.  Its
    fields are a SourcePool row's."""

    source_id: int
    owner_id: int
    idle_seconds: float
    cycles_per_second: float


def table_of(cls, rows):
    """A TaskQueue or SourcePool of the records ``rows``: field k of each
    row fills column k.  A queue keeps the given order, a pool is sorted by
    id."""
    rows = sorted(rows, key=attrgetter("source_id")) if cls is SourcePool else list(rows)
    empty = cls()
    return cls(*(np.array([row[k] for row in rows], dtype=getattr(empty, name).dtype)
                 for k, name in enumerate(empty.__dataclass_fields__)))


def rows_of(table):
    """A TaskQueue's or SourcePool's rows as tuples, in row order.

    The columns follow the fields of Task or SourceNode, so each tuple holds
    one record's fields in order.  They are read by dataclass field, as a
    table may hold other attributes too.
    """
    return list(zip(*(getattr(table, name).tolist() for name in table.__dataclass_fields__)))


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
    pool = table_of(SourcePool, sources)
    ordered, result = full_round(table_of(TaskQueue, tasks), pool, ledger, weights)
    return ordered.ids.tolist(), dict(lease_ids(ordered, result, pool)), result.unmatched_task_ids
