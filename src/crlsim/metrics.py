"""Per-step report series, CSV/JSON emission, and report comparison."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_type_hints

import numpy as np

from .model import ColumnLog, SourcePool, _listed
from .settlement import SettlementRecord

class StepSample(NamedTuple):
    step: int
    policy: str
    idle_capacity: float
    matched: int
    deferred: int
    migrated: int
    migrated_value_cum: float
    migrated_cycles_cum: float


CSV_COLUMNS = list(StepSample._fields)
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
# csv writes a float, numpy's float64 among them, as float.__repr__, and any other value as str():
# %s gives the same text for each, since str equals float.__repr__ for both kinds of float.
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"


class AssignmentRecord(NamedTuple):
    """One lease with the match-time snapshot needed to audit feasibility."""

    step: int
    task_id: int
    source_id: int
    busy_seconds: float
    task_cycles_required: float
    task_deadline_s: float
    source_idle_seconds: float
    source_cycles_per_second: float


@dataclass
class SimReport:
    """Full outcome of one simulation run.

    The record fields hold lists of rows or ``ColumnLog``s of them; ``run``
    gives logs.
    """

    policy: str
    seed: int
    samples: list[StepSample] = field(default_factory=list)
    ledger_snapshot: dict[int, float] = field(default_factory=dict)
    settlement_records: ColumnLog | list[SettlementRecord] = field(default_factory=list)
    assignment_records: ColumnLog | list[AssignmentRecord] = field(default_factory=list)
    arrived_tasks: int = 0
    matched_tasks: int = 0
    migrated_tasks: int = 0
    pending_tasks: int = 0


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregates for two equal-length runs, and the share of steps where a's
    value is at most b's."""

    mean_idle_capacity_a: float
    mean_idle_capacity_b: float
    mean_migrated_value_cum_a: float
    mean_migrated_value_cum_b: float
    frac_idle_capacity_a_le_b: float
    frac_migrated_a_le_b: float


def idle_capacity(pool: SourcePool) -> float:
    """Total deliverable cycles left in the unassigned source pool, the sum of ``pool.capacity()``.

    The capacities are added left to right in ascending source_id order by
    ``cumsum``, as the builtin ``sum`` of CPython <= 3.11 adds them;
    ``np.sum`` adds pairwise and would change the last bits of the reports.
    Dead rows (``idle <= 0``) add ``+0.0``, which changes no partial sum.
    """
    if not len(pool.ids):
        return 0.0
    return float(np.maximum(pool.capacity(), 0.0).cumsum()[-1])


# The record fields of a report and the row type of each: whatever holds the
# rows, the JSON writes a record field as an object of that type's columns.
_RECORD_ROWS = {"samples": StepSample, "settlement_records": SettlementRecord, "assignment_records": AssignmentRecord}


def _write_columns(fh, row, records) -> None:
    """Write ``records``, a ``ColumnLog`` or a list of ``row``s, as a JSON object of
    ``row``'s columns: ``{"field": [...], ...}``, one ``json.dumps`` call per column,
    which keeps each call's temporaries to one column."""
    columns = records.columns if isinstance(records, ColumnLog) else list(zip(*records)) or [()] * len(row._fields)
    separator = "{"
    for name, column in zip(row._fields, columns, strict=True):
        fh.write(f'{separator}"{name}": {json.dumps(_listed(column))}')
        separator = ", "
    fh.write("}")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields: as is when it is
    alphanumeric, else as csv quotes it, by rules that vary between Python versions."""
    if text.isalnum():
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def emit_report(report: SimReport, format: str, destination) -> None:
    """Write the report as CSV (per-step series only) or JSON (everything).

    ``destination`` is a path or an open text file.  Emission is deterministic.
    The CSV has one row per step and ``StepSample``'s fields as columns,
    byte-identical to ``csv.writer(..., lineterminator="\\n")``'s rows.  The
    JSON object holds the report's fields in order, one per line: the ledger
    as ``"ledger"``, keyed by id strings in ascending id order, and each
    record field as an object of columns (``_write_columns``).  Every value
    is ``json.dumps``'s text, so ``json.loads`` gives back each value and row.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format: {format!r}")
    if not hasattr(destination, "write"):
        try:
            with open(destination, "w", encoding="utf-8", newline="") as fh:
                return emit_report(report, format, fh)
        except OSError as exc:
            raise OSError(f"cannot write report to {destination}: {exc}") from exc
    if format == "csv":
        rows = report.samples
        quoted = {p: text for p in {s.policy for s in rows} if (text := _csv_field(p)) != p}
        if quoted:
            rows = [s._replace(policy=quoted.get(s.policy, s.policy)) for s in rows]
        destination.write(_CSV_HEADER + "".join(map(_CSV_ROW.__mod__, rows)))
        return
    separator = "{"
    for f in fields(report):
        key, value = f.name, getattr(report, f.name)
        if key == "ledger_snapshot":
            key, value = "ledger", {str(k): v for k, v in sorted(value.items())}
        destination.write(f'{separator}\n  "{key}": ')
        if key in _RECORD_ROWS:
            _write_columns(destination, _RECORD_ROWS[key], value)
        else:
            destination.write(json.dumps(value))
        separator = ","
    destination.write("\n}\n")


def load_report_csv(path) -> list[StepSample]:
    """Parse a CSV report back into step samples (round-trip inverse of emit)."""
    parsers = get_type_hints(StepSample).values()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {header}")
        samples = []
        for row in filter(None, reader):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} fields, the header has {len(CSV_COLUMNS)}")
            try:
                samples.append(StepSample(*(parse(text) for parse, text in zip(parsers, row))))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return samples


def compare_reports(a: SimReport, b: SimReport) -> ComparisonSummary:
    """Means and sign summary of the per-step deltas (a - b) for two runs of equal length."""
    if len(a.samples) != len(b.samples):
        raise ValueError(f"step count mismatch: {len(a.samples)} vs {len(b.samples)}")
    n = len(a.samples)
    idle_delta = [sa.idle_capacity - sb.idle_capacity for sa, sb in zip(a.samples, b.samples)]
    mig_delta = [sa.migrated_value_cum - sb.migrated_value_cum for sa, sb in zip(a.samples, b.samples)]

    def mean(xs):
        # Left to right, as the builtin sum of CPython <= 3.11 adds; 3.12's compensates.
        total = 0
        for x in xs:
            total += x
        return total / len(xs) if xs else 0.0

    return ComparisonSummary(
        mean_idle_capacity_a=mean([s.idle_capacity for s in a.samples]),
        mean_idle_capacity_b=mean([s.idle_capacity for s in b.samples]),
        mean_migrated_value_cum_a=mean([s.migrated_value_cum for s in a.samples]),
        mean_migrated_value_cum_b=mean([s.migrated_value_cum for s in b.samples]),
        frac_idle_capacity_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in idle_delta]) if n else 1.0,
        frac_migrated_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in mig_delta]) if n else 1.0,
    )
