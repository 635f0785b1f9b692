"""The invariants every run's report holds, stated once for every test that checks a whole run."""

from collections import Counter
import math


def report_violations(report) -> list[str]:
    """One message per identity ``report`` breaks, each led by the identity's
    name and a colon; ``[]`` when it holds them all.

    Accounting: there is at least one sample, sample k is step k, arrived =
    matched + migrated + pending, matched equals the lease records, the
    settlement records and the samples' matched sum, and migrated equals the
    samples' migrated sum.  Logs: row i of the lease log and of the
    settlement log share (step, task_id), step k has ``samples[k].matched``
    leases, and no task is leased twice.  Series: the cumulative migrated
    totals never decrease and idle capacity is never negative.  Ledger: the
    balances sum, by ``math.fsum``, to a finite value within 1e-9 of zero,
    relative to what settlement moved.  Leases: each
    holds ``cycles <= rate * idle``, ``cycles / rate <= deadline`` and
    ``busy == cycles / rate``, exactly.
    """
    failures = []
    samples = report.samples
    leases, settlements = list(report.assignment_records), list(report.settlement_records)
    matched, migrated = report.matched_tasks, report.migrated_tasks
    sampled_matched, sampled_migrated = sum(s.matched for s in samples), sum(s.migrated for s in samples)

    if not samples:
        failures.append("no samples: the report holds no step")
    if [s.step for s in samples] != list(range(len(samples))):
        failures.append("sample steps: sample k is not step k")
    if report.arrived_tasks != matched + migrated + report.pending_tasks:
        failures.append(f"accounting: arrived {report.arrived_tasks} != matched {matched}"
                        f" + migrated {migrated} + pending {report.pending_tasks}")
    if not matched == len(leases) == len(settlements) == sampled_matched:
        failures.append(f"matched: {matched} disagrees with {len(leases)} lease records, {len(settlements)}"
                        f" settlement records or the samples' {sampled_matched}")
    if migrated != sampled_migrated:
        failures.append(f"migrated: {migrated} != the samples' {sampled_migrated}")

    if [(r.step, r.task_id) for r in leases] != [(r.step, r.task_id) for r in settlements]:
        failures.append("logs: a lease and a settlement row differ in (step, task_id)")
    # Counter equality counts a missing step as zero leases.
    if Counter(r.step for r in leases) != Counter(dict(enumerate(s.matched for s in samples))):
        failures.append("leases per step: a step's lease records do not number its sample's matched")
    if len({r.task_id for r in leases}) != len(leases):
        failures.append("leased twice: a task has more than one lease record")

    for name in ("migrated_value_cum", "migrated_cycles_cum"):
        if any(getattr(b, name) < getattr(a, name) for a, b in zip(samples, samples[1:])):
            failures.append(f"cumulative: {name} decreases")
    if any(s.idle_capacity < 0 for s in samples):
        failures.append("idle_capacity: a sample's idle capacity is negative")

    # The ledger starts empty and every transfer debits what it credits.
    try:
        moved = math.fsum(abs(r.amount) for r in settlements)
        total = math.fsum(report.ledger_snapshot.values())
    except (OverflowError, ValueError) as error:
        failures.append(f"ledger: the balances or amounts do not sum ({error})")
    else:
        if not (math.isfinite(total) and abs(total) <= 1e-9 * (1.0 + moved)):
            failures.append(f"ledger: balances sum to {total!r} after moving {moved!r}")

    broken = Counter()
    for r in leases:
        cycles, rate = r.task_cycles_required, r.source_cycles_per_second
        broken["capacity: cycles > rate * idle"] += not cycles <= rate * r.source_idle_seconds
        broken["deadline: cycles / rate > deadline"] += not cycles / rate <= r.task_deadline_s
        broken["busy: busy_seconds != cycles / rate"] += r.busy_seconds != cycles / rate
    failures += [f"{rule} on {count} of {len(leases)} leases" for rule, count in broken.items() if count]
    return failures
