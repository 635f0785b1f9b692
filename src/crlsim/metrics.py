"""Per-step report series, CSV/JSON emission, and report comparison."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .model import SourcePool
from .settlement import SettlementRecord

@dataclass(frozen=True)
class StepSample:
    step: int
    policy: str
    idle_capacity: float
    matched: int
    deferred: int
    migrated: int
    migrated_value_cum: float
    migrated_cycles_cum: float


CSV_COLUMNS = [f.name for f in fields(StepSample)]


@dataclass(frozen=True)
class AssignmentRecord:
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


def emit_report(report: SimReport, format: str, destination) -> None:
    """Write the report as CSV (per-step series only) or JSON (everything).

    ``destination`` is a path or an open text file.  Emission is
    deterministic: the same report always produces byte-identical output.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format: {format!r}")
    if hasattr(destination, "write"):
        _emit(report, format, destination)
        return
    try:
        with open(destination, "w", newline="") as fh:
            _emit(report, format, fh)
    except OSError as exc:
        raise OSError(f"cannot write report to {destination}: {exc}") from exc


def _emit(report: SimReport, format: str, fh) -> None:
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes a float as its repr(), which round-trips, and any other value as its str().
        writer.writerows(vars(s).values() for s in report.samples)
    else:
        # Every record field is a scalar, so each record's own field dict serves as its JSON object.
        payload = {
            "policy": report.policy,
            "seed": report.seed,
            "samples": [vars(s) for s in report.samples],
            "ledger": {str(k): v for k, v in sorted(report.ledger_snapshot.items())},
            "settlement_records": [vars(r) for r in report.settlement_records],
            "assignment_records": [vars(r) for r in report.assignment_records],
            "arrived_tasks": report.arrived_tasks,
            "matched_tasks": report.matched_tasks,
            "migrated_tasks": report.migrated_tasks,
            "pending_tasks": report.pending_tasks,
        }
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_report_csv(path) -> list[StepSample]:
    """Parse a CSV report back into step samples (round-trip inverse of emit)."""
    types = get_type_hints(StepSample)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {reader.fieldnames}")
        return [StepSample(**{name: parse(row[name]) for name, parse in types.items()}) for row in reader]


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
