"""Test-side records of one task and one source, and bridges between them and
crlsim's columns; and the reference rendering of a JSON report and its reading.

crlsim takes and returns TaskQueue/SourcePool columns and row indices; many
tests are written over lists of records and compare task and source ids.
"""

import dataclasses
import json
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from crlsim.matching import full_round
from crlsim.metrics import AssignmentRecord, SimReport, StepSample
from crlsim.model import SourcePool, TaskQueue
from crlsim.settlement import SettlementRecord


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


REPORT_ROWS = (("samples", StepSample), ("settlement_records", SettlementRecord),
               ("assignment_records", AssignmentRecord))


def indented_dump(report):
    """The JSON report of ``report`` built the reference way: one ``json.dumps``
    per field on its own indented line, each record field a dict of its row
    type's columns read off its rows one by one."""
    def columns(row, records):
        rows = list(records)
        return {name: [getattr(r, name) for r in rows] for name in row._fields}

    payload = {
        "policy": report.policy,
        "seed": report.seed,
        "samples": columns(StepSample, report.samples),
        "ledger": {str(k): v for k, v in sorted(report.ledger_snapshot.items())},
        "settlement_records": columns(SettlementRecord, report.settlement_records),
        "assignment_records": columns(AssignmentRecord, report.assignment_records),
        "arrived_tasks": report.arrived_tasks,
        "matched_tasks": report.matched_tasks,
        "migrated_tasks": report.migrated_tasks,
        "pending_tasks": report.pending_tasks,
    }
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in payload.items()) + "\n}\n"


def read_back(text):
    """The report a JSON report ``text`` holds, each record field as a list of
    rows rebuilt from its columns and the ledger keyed by int."""
    data = json.loads(text)
    for key, row in REPORT_ROWS:
        assert list(data[key]) == list(row._fields), key
        data[key] = [row(*values) for values in zip(*data[key].values(), strict=True)]
    return SimReport(ledger_snapshot={int(k): v for k, v in data.pop("ledger").items()}, **data)


def as_read_back(report):
    """``report`` as ``read_back`` of its JSON should give it: its record fields
    as lists of rows and its ledger in ascending id order."""
    return dataclasses.replace(report, ledger_snapshot=dict(sorted(report.ledger_snapshot.items())),
                               **{key: list(getattr(report, key)) for key, _ in REPORT_ROWS})


def check_json_report(text, report):
    """``text`` is byte-equal to ``indented_dump(report)`` and reads back to every
    value, row and ledger entry of ``report``, compared by ``repr`` (which tells
    -0.0 from 0.0 and ``True`` from 1)."""
    assert text == indented_dump(report)
    assert repr(read_back(text)) == repr(as_read_back(report))
