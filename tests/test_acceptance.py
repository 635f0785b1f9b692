"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from crlsim.model import TaskQueue, WeightsConfig
from crlsim.settlement import apply_settlement
from crlsim.simulator import POLICIES, SimConfig, run
from crlsim.cli import main
from crlsim.metrics import load_report_csv

from audit import report_violations
from oracles import compute_matching_priority, compute_settlement_amount, oracle_round
from records import SourceNode, Task, round_ids, table_of
from scenarios import LEASE_HEAVY, random_configs

WEIGHTS = WeightsConfig()


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def _check_instance(tasks, sources, balances):
    _, got, unmatched = round_ids(tasks, sources, dict(balances), WEIGHTS)
    expected_assign, expected_unmatched = oracle_round(tasks, sources, balances, WEIGHTS)
    return got == expected_assign and unmatched == expected_unmatched


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    task_grid = list(itertools.product((1.0, 2.0), (1.0, 10.0), (1.0, 100.0)))  # value, cycles, deadline
    source_grid = list(itertools.product((1.0, 10.0), (1.0, 100.0)))            # cal, idle
    checked = 0

    # exhaustive over the small grid for n, m in {1, 2}
    for n, m in itertools.product((1, 2), repeat=2):
        for task_combo in itertools.product(task_grid, repeat=n):
            tasks = [
                Task(task_id=i, owner_id=i % 3, deadline_s=d, cycles_required=a, value=v)
                for i, (v, a, d) in enumerate(task_combo)
            ]
            for source_combo in itertools.product(source_grid, repeat=m):
                sources = [
                    SourceNode(source_id=j, owner_id=10 + j, idle_seconds=e, cycles_per_second=cal)
                    for j, (cal, e) in enumerate(source_combo)
                ]
                assert _check_instance(tasks, sources, {})
                checked += 1

    # 1000 seeded random instances with n, m <= 5
    rng = random.Random(20240801)
    for _ in range(1000):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        tasks = [
            Task(task_id=i, owner_id=rng.randint(0, 3),
                 deadline_s=rng.choice((1.0, 100.0, rng.uniform(1, 100))),
                 cycles_required=rng.choice((1.0, 10.0, rng.uniform(1, 50))),
                 value=rng.choice((1.0, 2.0, rng.uniform(0, 10))))
            for i in range(n)
        ]
        sources = [
            SourceNode(source_id=j, owner_id=10 + rng.randint(0, 3),
                       idle_seconds=rng.choice((1.0, 100.0, rng.uniform(0, 100))),
                       cycles_per_second=rng.choice((1.0, 10.0, rng.uniform(1, 50))))
            for j in range(m)
        ]
        balances = {d: rng.choice((0.0, rng.uniform(-5, 5))) for d in range(4)}
        assert _check_instance(tasks, sources, balances)
        checked += 1

    elapsed = time.monotonic() - start
    _report(1, elapsed < 10.0, f"({checked} instances, {elapsed:.2f}s)")


def test_criterion_2_priority_conservation():
    start = time.monotonic()
    rng = random.Random(7)
    ledger = {}
    worst = 0.0
    for _ in range(1000):
        k = rng.randint(0, 6)
        tasks = [
            Task(task_id=i, owner_id=rng.randrange(8), deadline_s=10.0,
                 cycles_required=rng.uniform(1, 100), value=rng.uniform(0, 10))
            for i in range(k)
        ]
        sources = [
            SourceNode(source_id=i, owner_id=rng.randrange(8), idle_seconds=10.0,
                       cycles_per_second=rng.uniform(1, 50))
            for i in range(k)
        ]
        # task i leases source i
        providers = np.array([s.owner_id for s in sources], dtype=np.int64)
        before = math.fsum(ledger.values())
        apply_settlement(table_of(TaskQueue, tasks), providers, ledger, WEIGHTS)
        worst = max(worst, abs(math.fsum(ledger.values()) - before))
        assert worst <= 1e-9
    elapsed = time.monotonic() - start
    _report(2, elapsed < 5.0, f"(max drift {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_feasibility_postcondition():
    # Every report invariant, feasible_mask's exact rule among them, with no
    # slack, on the default and lease-heavy runs and on the random scenarios at
    # three step lengths.
    configs = [SimConfig(steps=200, rng_seed=1, policy="crl"), SimConfig(steps=200, rng_seed=1, policy="crl", workload=LEASE_HEAVY),
               *(dataclasses.replace(cfg, step_seconds=t) for cfg in random_configs() for t in (0.3, 1.0, 2.5))]
    leases = 0
    for cfg in configs:
        report = run(cfg)
        assert report_violations(report) == [], cfg
        leases += len(report.assignment_records)
    assert leases, "no run produced an assignment"
    _report(3, True, f"({leases} assignments over {len(configs)} runs audited)")


def test_criterion_4_idle_capacity_trend():
    start = time.monotonic()
    crl = run(SimConfig(steps=200, rng_seed=1, policy="crl"))
    cloud = run(SimConfig(steps=200, rng_seed=1, policy="cloud"))

    for sa, sb in zip(crl.samples, cloud.samples):
        assert sa.idle_capacity <= sb.idle_capacity + 1e-6

    assert crl.matched_tasks >= 1
    mean_crl = sum(s.idle_capacity for s in crl.samples) / len(crl.samples)
    mean_cloud = sum(s.idle_capacity for s in cloud.samples) / len(cloud.samples)
    assert mean_crl < mean_cloud

    warm = [s.idle_capacity for s in cloud.samples[100:]]
    mean_warm = sum(warm) / len(warm)
    max_rel = max(abs(x - mean_warm) / mean_warm for x in warm)
    assert max_rel <= 0.10, f"cloud capacity deviates {max_rel:.1%} from its mean"

    elapsed = time.monotonic() - start
    _report(4, elapsed < 10.0,
            f"(mean idle crl={mean_crl:.0f} < cloud={mean_cloud:.0f}, flatness {max_rel:.1%}, {elapsed:.2f}s)")


def test_criterion_5_migration_trend_over_w():
    start = time.monotonic()
    cloud = run(SimConfig(steps=200, rng_seed=1, policy="cloud"))
    finals = []
    for w in (1, 2, 3, 5):
        cfg = SimConfig(steps=200, rng_seed=1, policy="crl", weights=WeightsConfig(max_rounds_w=w))
        crl = run(cfg)
        finals.append(crl.samples[-1].migrated_value_cum)
        for sa, sb in zip(crl.samples, cloud.samples):
            assert sa.migrated_value_cum <= sb.migrated_value_cum + 1e-9
    assert all(a >= b - 1e-9 for a, b in zip(finals, finals[1:])), finals
    elapsed = time.monotonic() - start
    _report(5, elapsed < 30.0, f"(finals {[round(f, 1) for f in finals]}, {elapsed:.2f}s)")


def test_criteria_4_and_5_over_seeds():
    # The paper's two whole-run claims, at criteria 4 and 5's tolerances, at
    # every step of seeds 1-10, so no one seed's arrivals decide them: crl's
    # migrated value and idle capacity stay at or below cloud's, and the
    # migrated value is non-increasing in W.  A shorter run's samples are the
    # first samples of a longer one, so this covers every shorter run of these
    # seeds too.  Cloud flatness is printed, not gated: seed 2 reads 17.1%
    # against criterion 4's 10%.
    start = time.monotonic()
    gaps = []
    for seed in range(1, 11):
        cloud = run(SimConfig(steps=200, rng_seed=seed, policy="cloud"))
        by_w = {w: run(SimConfig(steps=200, rng_seed=seed, policy="crl", weights=WeightsConfig(max_rounds_w=w)))
                for w in (1, 2, 3, 5)}
        for w, crl in by_w.items():
            for sa, sb in zip(crl.samples, cloud.samples):
                assert sa.migrated_value_cum <= sb.migrated_value_cum + 1e-9, (seed, w, sa.step)
        for step, by_step in enumerate(zip(*(crl.samples for crl in by_w.values()))):
            migrated = [s.migrated_value_cum for s in by_step]
            assert all(a >= b - 1e-9 for a, b in zip(migrated, migrated[1:])), (seed, step, migrated)
        finals = [crl.samples[-1].migrated_value_cum for crl in by_w.values()]

        crl = by_w[WeightsConfig().max_rounds_w]
        for sa, sb in zip(crl.samples, cloud.samples):
            assert sa.idle_capacity <= sb.idle_capacity + 1e-6, (seed, sa.step)
        mean_crl = sum(s.idle_capacity for s in crl.samples) / len(crl.samples)
        mean_cloud = sum(s.idle_capacity for s in cloud.samples) / len(cloud.samples)
        assert mean_crl < mean_cloud, seed
        gaps.append(1 - mean_crl / mean_cloud)

        warm = [s.idle_capacity for s in cloud.samples[100:]]
        mean_warm = sum(warm) / len(warm)
        flatness = max(abs(x - mean_warm) / mean_warm for x in warm)
        print(f"seed {seed}: idle gap {gaps[-1]:.1%}, cloud flatness {flatness:.1%}, "
              f"W finals {[round(f, 1) for f in finals]}")
    elapsed = time.monotonic() - start
    _report("4+5", True, f"(seeds 1-10, idle gap {min(gaps):.1%}-{max(gaps):.1%}, {elapsed:.2f}s)")


def test_criterion_6_byte_identical_cli_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["run", "--steps", "60", "--seed", "17"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    f1 = (out1 / "default_crl_seed17.csv").read_bytes()
    f2 = (out2 / "default_crl_seed17.csv").read_bytes()
    assert f1 == f2
    _report(6, True, f"({len(f1)} bytes each)")


def test_criterion_7_task_accounting():
    configs = [dataclasses.replace(cfg, policy=policy) for cfg in random_configs() for policy in POLICIES]
    for cfg in configs:
        assert report_violations(run(cfg)) == [], cfg
    _report(7, True, f"({len(configs)} random scenarios over both policies, exact)")


def test_criterion_8_formula_unit_values():
    halves = WeightsConfig(gamma_t=0.5, gamma_p=0.5, gamma_n=0.5, gamma_m=0.5, conversion_rate_r=1.0)

    t = Task(task_id=0, owner_id=0, deadline_s=10.0, cycles_required=1.0, value=2.0)
    assert compute_matching_priority(t, 2.0, halves) == pytest.approx(2.0, abs=1e-12)

    t = Task(task_id=0, owner_id=0, deadline_s=10.0, cycles_required=4.0, value=10.0)
    assert compute_matching_priority(t, 3.0, halves) == pytest.approx(2.75, abs=1e-12)

    # The settlement amounts come from the reference formula and from
    # apply_settlement on a one-row queue whose receiver holds the balance.
    w = WeightsConfig(gamma_n=1.0, gamma_m=0.0, conversion_rate_r=0.5)
    for weights, value, balance, expected in ((halves, 10.0, 4.0, 7.0), (w, 6.0, 2.0, 3.0)):
        t = Task(task_id=0, owner_id=0, deadline_s=10.0, cycles_required=1.0, value=value)
        assert compute_settlement_amount(t, balance, weights) == pytest.approx(expected, abs=1e-12)
        records = apply_settlement(table_of(TaskQueue, [t]), np.array([1]), {0: balance}, weights)
        assert records[0].amount == pytest.approx(expected, abs=1e-12)

    _report(8, True, "(2.0 / 2.75 / 7.0 / 3.0 at 1e-12)")
