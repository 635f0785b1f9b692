"""Output checks, simulated counts and the source-occupancy audit."""

from __future__ import annotations

import math


def report_counts(report) -> dict:
    """The simulated outcome of one run, as plain counts."""
    return {
        "arrived": report.arrived_tasks,
        "matched": report.matched_tasks,
        "migrated": report.migrated_tasks,
        "pending": report.pending_tasks,
        "leases": len(report.assignment_records),
        "settlement_records": len(report.settlement_records),
    }


def check_report(report, csv_path, load_report_csv) -> list[str]:
    """Invariants every run must satisfy; returns one message per failure."""
    failures = []
    if report.arrived_tasks != report.matched_tasks + report.migrated_tasks + report.pending_tasks:
        failures.append(
            f"task accounting: arrived {report.arrived_tasks} != matched {report.matched_tasks}"
            f" + migrated {report.migrated_tasks} + pending {report.pending_tasks}"
        )
    # The ledger starts empty and every transfer debits what it credits.
    moved = math.fsum(abs(r.amount) for r in report.settlement_records)
    total = math.fsum(report.ledger_snapshot.values())
    if abs(total) > 1e-9 * (1.0 + moved):
        failures.append(f"ledger not conserved: balances sum to {total!r} after moving {moved!r}")
    if load_report_csv(csv_path) != report.samples:
        failures.append("CSV report does not round-trip through load_report_csv")
    return failures


def audit_occupancy(report, step_seconds: float) -> dict:
    """Count leases the simulated schedule could not actually run.

    ``overlapping_leases``: a lease starting on a source that an earlier lease
    still occupies.  ``late_if_serial``: a lease that would finish after its
    task's deadline if the leases on each source ran one after another.
    """
    busy_until: dict[int, float] = {}
    serial_end: dict[int, float] = {}
    overlapping = late = 0
    for rec in report.assignment_records:
        start = rec.step * step_seconds
        end = start + rec.busy_seconds
        if busy_until.get(rec.source_id, -math.inf) > start:
            overlapping += 1
        busy_until[rec.source_id] = max(busy_until.get(rec.source_id, -math.inf), end)
        serial_finish = max(start, serial_end.get(rec.source_id, start)) + rec.busy_seconds
        serial_end[rec.source_id] = serial_finish
        if serial_finish > start + rec.task_deadline_s:
            late += 1
    return {"overlapping_leases": overlapping, "late_if_serial": late}
