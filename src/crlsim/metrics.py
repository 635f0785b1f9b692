"""Per-step report series, CSV/JSON emission, and report comparison."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple, get_type_hints

import numpy as np

from .model import SourcePool
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
    """Full outcome of one simulation run."""

    policy: str
    seed: int
    samples: list[StepSample] = field(default_factory=list)
    ledger_snapshot: dict[int, float] = field(default_factory=dict)
    settlement_records: list[SettlementRecord] = field(default_factory=list)
    assignment_records: list[AssignmentRecord] = field(default_factory=list)
    arrived_tasks: int = 0
    matched_tasks: int = 0
    migrated_tasks: int = 0
    pending_tasks: int = 0


@dataclass(frozen=True)
class ComparisonSummary:
    """Per-step deltas (a - b) and aggregates for two equal-length runs."""

    idle_capacity_delta: list[float]
    migrated_value_cum_delta: list[float]
    mean_idle_capacity_a: float
    mean_idle_capacity_b: float
    mean_migrated_value_cum_a: float
    mean_migrated_value_cum_b: float
    frac_idle_capacity_a_le_b: float
    frac_migrated_a_le_b: float


def idle_capacity(pool: SourcePool) -> float:
    """Total deliverable cycles left in the unassigned source pool.

    The products are added left to right in ascending source_id order by
    ``np.cumsum``, as the builtin ``sum`` of CPython <= 3.11 adds them;
    ``np.sum`` adds pairwise and would change the last bits of the reports.
    An empty pool gives the int 0.
    """
    if not len(pool):
        return 0
    return float(np.cumsum(pool.rate * pool.idle)[-1])


REPORT_SLICE = 256  # records per C-encoder call, which bounds the temporary token list


def _write_records(fh, records: list) -> None:
    """Write a non-empty list of named-tuple rows as ``json.dump(..., indent=2)`` writes their
    ``_asdict()`` one level deep: from a template of the row type's ``_fields``, filled per
    ``REPORT_SLICE`` rows by one C-encoder call over the slice's flattened values."""
    names = records[0]._fields
    template = "\n    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in names) + "\n    }"
    for start in range(0, len(records), REPORT_SLICE):
        values = list(chain.from_iterable(records[start : start + REPORT_SLICE]))
        # Without indent, json takes its C encoder; no JSON token holds a raw newline, so "\n" splits them exactly.
        tokens = json.dumps(values, separators=("\n", ": "))[1:-1].split("\n")
        fh.write(("," if start else "[") + ",".join([template] * (len(values) // len(names))) % tuple(tokens))
    fh.write("\n  ]")


def emit_report(report: SimReport, format: str, destination) -> None:
    """Write the report as CSV (per-step series only) or JSON (everything).

    ``destination`` is a path or an open text file.  Emission is deterministic.
    The CSV has one row per step and ``StepSample``'s fields as columns; the
    JSON is byte-identical to ``json.dump(..., indent=2)`` of the report's
    fields with each row as its ``_asdict()``, its row lists filled from
    per-type templates by ``_write_records``.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format: {format!r}")
    if not hasattr(destination, "write"):
        try:
            with open(destination, "w", newline="") as fh:
                return emit_report(report, format, fh)
        except OSError as exc:
            raise OSError(f"cannot write report to {destination}: {exc}") from exc
    if format == "csv":
        writer = csv.writer(destination, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes a float as its repr(), which round-trips, and any other value as its str().
        writer.writerows(report.samples)
        return
    # The JSON object holds SimReport's fields in order; the ledger, keyed by sorted id strings, as "ledger".
    separator = "{"
    for f in fields(report):
        key, value = f.name, getattr(report, f.name)
        if key == "ledger_snapshot":
            key, value = "ledger", {str(k): v for k, v in sorted(value.items())}
        destination.write(f'{separator}\n  "{key}": ')
        if isinstance(value, list) and value:
            _write_records(destination, value)
        else:  # a scalar, [] or the ledger, one level deep: its lines after the first gain an indent
            destination.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        separator = ","
    destination.write("\n}\n")


def load_report_csv(path) -> list[StepSample]:
    """Parse a CSV report back into step samples (round-trip inverse of emit)."""
    parsers = get_type_hints(StepSample).values()
    with open(path, newline="") as fh:
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
    """Per-step deltas and sign summary for two runs of equal length."""
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
        idle_capacity_delta=idle_delta,
        migrated_value_cum_delta=mig_delta,
        mean_idle_capacity_a=mean([s.idle_capacity for s in a.samples]),
        mean_idle_capacity_b=mean([s.idle_capacity for s in b.samples]),
        mean_migrated_value_cum_a=mean([s.migrated_value_cum for s in a.samples]),
        mean_migrated_value_cum_b=mean([s.migrated_value_cum for s in b.samples]),
        frac_idle_capacity_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in idle_delta]) if n else 1.0,
        frac_migrated_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in mig_delta]) if n else 1.0,
    )
