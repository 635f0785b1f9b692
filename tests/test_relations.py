"""Relations and closed forms that any correct implementation of the model
keeps, whatever its golden digests, so they still judge a change that
re-pins them.
"""

import dataclasses
import math

import numpy as np
import pytest

from crlsim.simulator import ArrivalStream, SimConfig, WorkloadConfig, generate_arrivals, run

from scenarios import LEASE_HEAVY, random_configs


def in_time_units(config, f):
    """``config`` with every duration multiplied by ``f`` and every rate divided by it."""
    workload = config.workload
    return dataclasses.replace(config, step_seconds=config.step_seconds * f, workload=dataclasses.replace(
        workload,
        deadline_range=tuple(x * f for x in workload.deadline_range),
        idle_range=tuple(x * f for x in workload.idle_range),
        rate_range=tuple(x / f for x in workload.rate_range),
    ))


def leases(report):
    return [(lease.task_id, lease.source_id) for lease in report.assignment_records]


@pytest.mark.parametrize("f", [2.0, 0.25])
def test_time_unit_relation(f):
    # The model has no clock of its own: a lease fits when rate * idle covers
    # the cycles, and a deferred task loses step_seconds of its deadline.  So a
    # new time unit changes no decision, and with f a power of two every
    # product and quotient is exact: the samples, ledger and settlements stay
    # bit for bit, the same tasks lease the same sources, and each lease runs
    # exactly f times as long.
    configs = [SimConfig(), SimConfig(workload=LEASE_HEAVY), SimConfig(policy="cloud"), *random_configs(30)]
    for config in configs:
        report, scaled = run(config), run(in_time_units(config, f))
        assert list(map(repr, scaled.samples)) == list(map(repr, report.samples)), config
        assert repr(scaled.ledger_snapshot) == repr(report.ledger_snapshot), config
        assert list(map(repr, scaled.settlement_records)) == list(map(repr, report.settlement_records)), config
        assert leases(scaled) == leases(report), config
        assert [lease.busy_seconds for lease in scaled.assignment_records] == [
            lease.busy_seconds * f for lease in report.assignment_records], config


def test_nothing_to_lease_relation():
    # With no sources every crl round matches nothing, and with W = 1 every
    # loser escalates in the round it arrives, as under the cloud policy.  The
    # two policies fold the same tasks into the migrated totals, crl in
    # priority order and cloud in arrival order, so the totals agree to a
    # relative 1e-12 but need not be bit-equal.
    configs = [SimConfig(rng_seed=seed) for seed in (1, 2, 3)] + random_configs(30)
    for config in configs:
        config = dataclasses.replace(config, weights=dataclasses.replace(config.weights, max_rounds_w=1),
                                     workload=dataclasses.replace(config.workload, source_arrival_rate=0.0))
        crl = run(dataclasses.replace(config, policy="crl"))
        cloud = run(dataclasses.replace(config, policy="cloud"))
        outcomes = [[(s.matched, s.deferred, s.migrated) for s in report.samples] for report in (crl, cloud)]
        assert outcomes[0] == outcomes[1], config
        for a, b in zip(crl.samples, cloud.samples):
            assert math.isclose(a.migrated_value_cum, b.migrated_value_cum, rel_tol=1e-12, abs_tol=0.0), (config, a.step)


def test_share_of_big_tasks_is_the_closed_form():
    """"Filtrate the big task": a task whose cycles exceed rate_hi * deadline
    fits no source that can arrive.  At the defaults cycles ~ U(200, 3000),
    deadline D ~ U(5, 40) and rate_hi = 40, so rate_hi * D spans [200, 1600],
    inside the cycles range, and P(big | D) = (3000 - 40 D) / 2800 is linear
    in D.  So the share of big tasks is exactly

        P = (3000 - 40 E[D]) / 2800 = (3000 - 40 * 22.5) / 2800 = 0.75.

    Tolerance, set before this test was first run: the n arrivals of seeds
    1-10 (about 20,000) are independent draws, each big with probability P,
    so their pooled share has the binomial sd sqrt(P (1 - P) / n), about
    0.003.  The test allows 4 sd, about 0.012: a correct draw lands outside
    with chance below 1e-4.
    """
    workload = WorkloadConfig()
    (c_lo, c_hi), (d_lo, d_hi), rate_hi = workload.cycles_range, workload.deadline_range, workload.rate_range[1]
    assert c_lo <= rate_hi * d_lo and rate_hi * d_hi <= c_hi
    p = (c_hi - rate_hi * (d_lo + d_hi) / 2) / (c_hi - c_lo)
    assert p == 0.75
    big = n = 0
    for seed in range(1, 11):
        stream = ArrivalStream(workload, np.random.default_rng(seed), SimConfig().steps)
        for _ in range(SimConfig().steps):
            tasks, _ = generate_arrivals(stream)
            big += int(np.count_nonzero(tasks.cycles > rate_hi * tasks.deadline))
            n += len(tasks)
    sd = math.sqrt(p * (1 - p) / n)
    assert abs(big / n - p) <= 4 * sd, (big, n, sd)
