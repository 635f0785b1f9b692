"""report_violations against one real report, and copies of it each broken one way."""

import dataclasses
import math

import pytest

from crlsim.simulator import SimConfig, run

from audit import report_violations

REPORT = run(SimConfig(steps=30, rng_seed=1))


def bumped(report, name):
    return dataclasses.replace(report, **{name: getattr(report, name) + 1})


def with_samples(report, k, **fields):
    samples = list(report.samples)
    samples[k] = samples[k]._replace(**fields)
    return dataclasses.replace(report, samples=samples)


def with_last_lease(report, **fields):
    leases = list(report.assignment_records)
    leases[-1] = leases[-1]._replace(**fields)
    return dataclasses.replace(report, assignment_records=leases)


def with_last_settlement(report, **fields):
    settlements = list(report.settlement_records)
    settlements[-1] = settlements[-1]._replace(**fields)
    return dataclasses.replace(report, settlement_records=settlements)


def leased_twice(report):
    task_id = report.assignment_records[0].task_id
    return with_last_settlement(with_last_lease(report, task_id=task_id), task_id=task_id)


def lease_rule(report, field, value):
    return with_last_lease(report, **{field: value(report.assignment_records[-1])})


def decreased(report, name):
    return with_samples(report, -1, **{name: math.nextafter(getattr(report.samples[-2], name), -math.inf)})


# name -> (corruption, the identities it breaks)
CORRUPTIONS = {
    "matched+1": (lambda r: bumped(r, "matched_tasks"), {"accounting", "matched"}),
    "last lease dropped": (lambda r: dataclasses.replace(r, assignment_records=list(r.assignment_records)[:-1]),
                           {"matched", "logs", "leases per step"}),
    "sample step moved": (lambda r: with_samples(r, 3, step=4), {"sample steps"}),
    "no samples": (lambda r: dataclasses.replace(r, samples=[]), {"no samples", "matched", "migrated", "leases per step"}),
    "migrated+1": (lambda r: bumped(r, "migrated_tasks"), {"accounting", "migrated"}),
    "settlement step changed": (lambda r: with_last_settlement(r, step=r.settlement_records[-1].step - 1), {"logs"}),
    "task leased twice": (leased_twice, {"leased twice"}),
    "value total decreased": (lambda r: decreased(r, "migrated_value_cum"), {"cumulative"}),
    "cycles total decreased": (lambda r: decreased(r, "migrated_cycles_cum"), {"cumulative"}),
    "idle capacity negative": (lambda r: with_samples(r, 5, idle_capacity=-1.0), {"idle_capacity"}),
    "ledger unbalanced": (lambda r: dataclasses.replace(r, ledger_snapshot={0: 1.0}), {"ledger"}),
    "ledger infinite": (lambda r: dataclasses.replace(r, ledger_snapshot={0: math.inf, 1: -math.inf}), {"ledger"}),
    "ledger overflows": (lambda r: dataclasses.replace(r, ledger_snapshot={0: 1e308, 1: 1e308}), {"ledger"}),
    # fsum gives inf for both sums here, and inf <= 1e-9 * (1 + inf)
    "ledger and an amount infinite": (lambda r: with_last_settlement(dataclasses.replace(r, ledger_snapshot={0: math.inf}),
                                                                     amount=math.inf), {"ledger"}),
    "busy one ulp long": (lambda r: lease_rule(r, "busy_seconds", lambda lease: math.nextafter(lease.busy_seconds, math.inf)),
                          {"busy"}),
    "cycles beyond idle": (lambda r: lease_rule(r, "source_idle_seconds", lambda lease: lease.busy_seconds / 2), {"capacity"}),
    "finishes after deadline": (lambda r: lease_rule(r, "task_deadline_s", lambda lease: lease.busy_seconds / 2), {"deadline"}),
}


def test_real_report_breaks_nothing():
    assert REPORT.matched_tasks > 1 and REPORT.migrated_tasks > 0
    assert report_violations(REPORT) == []


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_each_corruption_is_named(name):
    corrupt, broken = CORRUPTIONS[name]
    violations = report_violations(corrupt(REPORT))
    assert {message.split(":")[0] for message in violations} == broken, violations
