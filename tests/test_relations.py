"""Relations and closed forms that any correct implementation of the model
keeps, whatever its golden digests, so they still judge a change that
re-pins them.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from crlsim.simulator import ArrivalStream, SimConfig, SimState, WorkloadConfig, generate_arrivals, run, step_cloud

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
        stream = ArrivalStream(workload, seed, SimConfig().steps)
        for _ in range(SimConfig().steps):
            tasks, _ = generate_arrivals(stream)
            big += int(np.count_nonzero(tasks.cycles > rate_hi * tasks.deadline))
            n += len(tasks)
    sd = math.sqrt(p * (1 - p) / n)
    assert abs(big / n - p) <= 4 * sd, (big, n, sd)


# The cloud closed forms pool the steady-state means of these seeds' default
# cloud runs, and accept a pooled mean within T_29 standard errors of the form.
CLOUD_SEEDS = range(1, 31)
T_29 = 4.51


@functools.cache
def cloud_steady_means(seed):
    """The means over steps 100-199 of seed ``seed``'s default cloud run of
    its live pool (the sources left with idle time after the step) and of
    its idle capacity sample."""
    state = SimState(SimConfig(rng_seed=seed, policy="cloud"))
    live = []
    for _ in range(state.config.steps):
        step_cloud(state)
        live.append(len(state.pool))
    return float(np.mean(live[100:])), float(np.mean([sample.idle_capacity for sample in state.samples[100:]]))


def assert_pooled_mean(means, expected):
    """Tolerance, set before either cloud test was first run: the per-seed
    means m_1..m_30 are independent (each seed draws its own stream) and
    identically distributed around the closed form.  Each is a mean over
    100 steps of a sum over about 1800 sources, so nearly normal, and
    (mean(m) - form) / (sd(m) / sqrt(30)) follows Student's t with 29
    degrees of freedom.  Its two-sided 1e-4 quantile is 4.51, so a correct
    stream lands outside T_29 standard errors with chance below 1e-4.  The
    spread is the seeds' own, so the check needs no variance formula: the
    runs' autocorrelation (a source lives about 60 steps) is in it.
    """
    se = float(np.std(means, ddof=1)) / math.sqrt(len(means))
    assert abs(float(np.mean(means)) - expected) <= T_29 * se, (float(np.mean(means)), expected, se)


def test_cloud_live_pool_is_littles_law():
    """Under cloud no source is leased, so a source arriving with idle I
    stays ceil(I / step_seconds) steps: aging runs before the step's
    arrivals join, and drops a source once its idle time reaches 0.  By
    Little's law the live pool holds lambda_s * E[ceil(I)] sources once
    every source that can still be live arrived inside the run (from step
    79).  At the defaults I ~ U(40, 80), so ceil(I) is uniform on 41..80:

        lambda_s * E[ceil(I)] = 30 * 60.5 = 1815.
    """
    workload, config = WorkloadConfig(), SimConfig()
    (lo, hi), dt = workload.idle_range, config.step_seconds
    assert dt == 1.0 and lo == int(lo) and hi == int(hi)
    form = workload.source_arrival_rate * float(np.mean(np.arange(lo + 1, hi + 1)))
    assert form == 1815.0
    assert_pooled_mean([cloud_steady_means(seed)[0] for seed in CLOUD_SEEDS], form)


def test_cloud_idle_capacity_is_the_closed_form():
    """A live source j steps after arriving holds rate * (I - j) cycles, for
    j = 0 .. ceil(I) - 1, and its rate is independent of I.  So the steady
    idle capacity is lambda_s * E[r] * E[ceil(I) * I - ceil(I) (ceil(I) - 1) / 2].
    Given ceil(I) = k, I is uniform on (k - 1, k] with mean k - 1/2, so the
    last expectation is E[k (k - 1/2) - k (k - 1) / 2] = E[k^2] / 2 over
    k uniform on 41..80:

        30 * 22.5 * 3793.5 / 2 = 1280306.25.
    """
    workload, config = WorkloadConfig(), SimConfig()
    (lo, hi), dt = workload.idle_range, config.step_seconds
    assert dt == 1.0 and lo == int(lo) and hi == int(hi)
    k = np.arange(lo + 1, hi + 1)
    form = workload.source_arrival_rate * float(np.mean(workload.rate_range)) * float(np.mean(k * k)) / 2
    assert form == 1280306.25
    assert_pooled_mean([cloud_steady_means(seed)[1] for seed in CLOUD_SEEDS], form)
