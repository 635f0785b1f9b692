import dataclasses

import numpy as np
import pytest

from crlsim import simulator
from crlsim.model import Task, SourceNode, SourcePool, TaskQueue, WeightsConfig
from crlsim.simulator import (
    POISSON_LAM_MAX,
    SimConfig,
    WorkloadConfig,
    SimState,
    generate_arrivals,
    step_crl,
    step_cloud,
    run,
)

from oracles import oracle_arrivals
from records import nodes_of, rows_of, tasks_of

QUIET = WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0)


def make_state(config):
    return SimState(config=config, rng=np.random.default_rng(config.rng_seed))


def as_objects(arrivals):
    """The Task and SourceNode records that generate_arrivals' columns hold."""
    tasks, sources = arrivals
    return tasks_of(tasks), nodes_of(sources)


def as_rows(arrivals):
    """generate_arrivals' columns as the rows oracle_arrivals returns."""
    tasks, sources = arrivals
    return rows_of(tasks), rows_of(sources)


class FixedCounts:
    """A Generator whose Poisson draws return fixed counts and take no words."""

    def __init__(self, generator, *counts):
        self.generator = generator
        self.counts = iter(counts)

    def poisson(self, lam):
        return next(self.counts)

    def __getattr__(self, name):
        return getattr(self.generator, name)


class TestWorkloadConfig:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            WorkloadConfig(task_arrival_rate=-1.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            WorkloadConfig(cycles_range=(10.0, 1.0))

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            WorkloadConfig(cycles_range=(0.0, 10.0))

    @pytest.mark.parametrize("field", ["task_arrival_rate", "source_arrival_rate"])
    def test_rate_limit_is_numpys_poisson_limit(self, field):
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        WorkloadConfig(**{field: POISSON_LAM_MAX})
        above = float(np.nextafter(POISSON_LAM_MAX, np.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(above)
        with pytest.raises(ValueError, match=field):
            WorkloadConfig(**{field: above})


class TestSimConfig:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SimConfig(steps=0)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            SimConfig(policy="edge")


class TestGenerateArrivals:
    def test_zero_rates_yield_nothing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tasks, sources = as_objects(generate_arrivals(QUIET, rng))
            assert tasks == [] and sources == []

    def test_fixed_seed_reproducible(self):
        wl = WorkloadConfig()
        a = as_objects(generate_arrivals(wl, np.random.default_rng(42)))
        b = as_objects(generate_arrivals(wl, np.random.default_rng(42)))
        assert a == b

    def test_sample_mean_matches_poisson_rate(self):
        wl = WorkloadConfig(task_arrival_rate=3.0, source_arrival_rate=0.0)
        rng = np.random.default_rng(7)
        total = sum(len(generate_arrivals(wl, rng)[0]) for _ in range(10_000))
        assert 2.9 <= total / 10_000 <= 3.1

    def test_monotone_identifiers(self):
        wl = WorkloadConfig()
        rng = np.random.default_rng(1)
        next_t, next_s = 0, 0
        seen_t, seen_s = [], []
        for _ in range(10):
            tasks, sources = as_objects(generate_arrivals(wl, rng, next_t, next_s))
            seen_t += [t.task_id for t in tasks]
            seen_s += [s.source_id for s in sources]
            next_t += len(tasks)
            next_s += len(sources)
        assert seen_t == sorted(set(seen_t))
        assert seen_s == sorted(set(seen_s))

    def test_fields_within_ranges(self):
        wl = WorkloadConfig()
        rng = np.random.default_rng(3)
        tasks, sources = as_objects(generate_arrivals(wl, rng))
        for t in tasks:
            assert wl.cycles_range[0] <= t.cycles_required <= wl.cycles_range[1]
            assert wl.deadline_range[0] <= t.deadline_s <= wl.deadline_range[1]
            assert 0 <= t.owner_id < wl.device_count
        for s in sources:
            assert wl.idle_range[0] <= s.idle_seconds <= wl.idle_range[1]
            assert wl.rate_range[0] <= s.cycles_per_second <= wl.rate_range[1]


# name -> (workload, whether the exact replay may fall back to scalar draws)
REPLAY_SHAPES = {
    "default": (WorkloadConfig(), False),
    "lease-heavy": (WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0)), False),
    "one-device": (WorkloadConfig(source_arrival_rate=10.0, device_count=1), False),
    "low-rates": (WorkloadConfig(task_arrival_rate=0.3, source_arrival_rate=0.6, device_count=7), False),
    "no-tasks": (WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=2.0, device_count=2), False),
    # 2**32 mod n = 2**30: a quarter of the owner draws is rejected
    "rejections": (WorkloadConfig(task_arrival_rate=1.0, source_arrival_rate=1.0, device_count=3 * 2**30), True),
}


class TestArrivalReplay:
    @pytest.mark.parametrize("shape", sorted(REPLAY_SHAPES))
    def test_equals_scalar_draws_and_state(self, shape, monkeypatch):
        wl, may_fall_back = REPLAY_SHAPES[shape]
        fallbacks = []
        scalar = simulator._draw_objects
        monkeypatch.setattr(simulator, "_draw_objects", lambda *a: fallbacks.append(a) or scalar(*a))
        for seed in range(20):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            next_t, next_s = 0, 0
            for _ in range(200):
                tasks, sources = as_rows(generate_arrivals(wl, fast, next_t, next_s))
                assert (tasks, sources) == oracle_arrivals(wl, slow, next_t, next_s)
                assert fast.bit_generator.state == slow.bit_generator.state
                next_t += len(tasks)
                next_s += len(sources)
        if may_fall_back:
            assert 0 < len(fallbacks) < 20 * 200
        else:
            assert fallbacks == []

    def test_pinned_rejection_falls_back_to_scalar_draws(self):
        word = int(np.random.PCG64(1).advance(133644978).random_raw())
        low, high = word & 0xFFFFFFFF, word >> 32
        # Lemire's test rejects the low half, so integers(0, 30) takes the
        # high half and returns 18; a replay without the test would give 9.
        assert (low * 30) & 0xFFFFFFFF == 6 < (2**32 - 30) % 30 == 16
        assert ((low * 30) >> 32, (high * 30) >> 32) == (9, 18)
        assert int(np.random.Generator(np.random.PCG64(1).advance(133644978)).integers(0, 30)) == 18

        wl = WorkloadConfig(device_count=30)
        fast = np.random.Generator(np.random.PCG64(1).advance(133644978))
        slow = np.random.Generator(np.random.PCG64(1).advance(133644978))
        tasks, sources = generate_arrivals(wl, FixedCounts(fast, 1, 2))
        assert tasks.owners.tolist()[0] == 18
        assert as_rows((tasks, sources)) == oracle_arrivals(wl, FixedCounts(slow, 1, 2))
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.MT19937(3)),
        lambda: np.random.Generator(np.random.Philox(3)),
    ], ids=["mt19937", "philox"])
    def test_other_bit_generators_get_scalar_draws(self, make_rng):
        wl = WorkloadConfig()
        fast, slow = make_rng(), make_rng()
        for _ in range(50):
            assert as_rows(generate_arrivals(wl, fast)) == oracle_arrivals(wl, slow)
        assert fast.bit_generator.random_raw(4).tolist() == slow.bit_generator.random_raw(4).tolist()

    def test_device_count_beyond_32_bits_gets_scalar_draws(self):
        wl = WorkloadConfig(device_count=2**32 + 5)
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20):
            assert as_rows(generate_arrivals(wl, fast)) == oracle_arrivals(wl, slow)
        assert fast.bit_generator.state == slow.bit_generator.state


class TestStepCrl:
    def test_single_feasible_pair_matches_and_settles(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=1))
        state = make_state(config)
        state.pending = TaskQueue.of([Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=10.0)])
        state.pool = SourcePool.of([SourceNode(source_id=0, owner_id=2, idle_seconds=50.0, cycles_per_second=10.0)])
        step_crl(state, config)
        assert state.matched_tasks == 1
        assert state.migrated_tasks == 0
        # B = (0.5 * 10 + 0.5 * 0) * 1
        expected_b = 5.0
        assert state.settlement_records[0].amount == pytest.approx(expected_b)
        assert state.ledger.balance_of(2) == pytest.approx(expected_b)
        assert state.ledger.balance_of(1) == pytest.approx(-expected_b)
        # 100 cycles at 10/s consumes 10 of the 49 idle seconds left after aging
        assert state.pool.idle[0] == pytest.approx(39.0)
        assert state.assignment_records[0].busy_seconds == 10.0

    def test_no_sources_w1_escalates_immediately(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=1))
        state = make_state(config)
        state.pending = TaskQueue.of([Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=4.0)])
        step_crl(state, config)
        assert state.migrated_tasks == 1
        assert state.migrated_value_cum == pytest.approx(4.0)
        assert len(state.pending) == 0

    def test_no_sources_w3_defers_twice_then_escalates(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=3))
        state = make_state(config)
        state.pending = TaskQueue.of([Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=4.0)])
        step_crl(state, config)
        assert state.migrated_tasks == 0 and len(state.pending) == 1
        assert state.pending.deferred[0] == 1
        step_crl(state, config)
        assert state.migrated_tasks == 0 and state.pending.deferred[0] == 2
        step_crl(state, config)
        assert state.migrated_tasks == 1 and len(state.pending) == 0

    def test_expired_pending_task_escalates(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=5))
        state = make_state(config)
        state.pending = TaskQueue.of([Task(task_id=0, owner_id=1, deadline_s=1.5, cycles_required=100.0, value=4.0)])
        step_crl(state, config)  # unmatched; deadline lookahead escalates
        assert state.migrated_tasks == 1

    def test_empty_step_records_sample(self):
        config = SimConfig(workload=QUIET)
        state = make_state(config)
        step_crl(state, config)
        assert len(state.samples) == 1
        assert state.samples[0].idle_capacity == 0.0


class TestStepCloud:
    def test_all_arrivals_migrate(self):
        config = SimConfig(workload=WorkloadConfig(), policy="cloud")
        state = make_state(config)
        step_cloud(state, config)
        assert state.migrated_tasks == state.arrived_tasks
        assert state.matched_tasks == 0

    def test_zero_tasks_no_change(self):
        config = SimConfig(workload=QUIET, policy="cloud")
        state = make_state(config)
        step_cloud(state, config)
        assert state.migrated_tasks == 0
        assert state.samples[0].migrated_value_cum == 0.0

    def test_shared_seed_identical_arrival_stream(self):
        crl = run(SimConfig(steps=30, rng_seed=5, policy="crl"))
        cloud = run(SimConfig(steps=30, rng_seed=5, policy="cloud"))
        assert crl.arrived_tasks == cloud.arrived_tasks


class TestRun:
    def test_determinism(self):
        a = run(SimConfig(steps=100, rng_seed=11))
        b = run(SimConfig(steps=100, rng_seed=11))
        assert a == b

    def test_crl_migrates_no_more_than_cloud_each_step(self):
        crl = run(SimConfig(steps=100, rng_seed=2, policy="crl"))
        cloud = run(SimConfig(steps=100, rng_seed=2, policy="cloud"))
        for sa, sb in zip(crl.samples, cloud.samples):
            assert sa.migrated_value_cum <= sb.migrated_value_cum + 1e-9

    def test_crl_idle_capacity_never_above_cloud(self):
        crl = run(SimConfig(steps=100, rng_seed=3, policy="crl"))
        cloud = run(SimConfig(steps=100, rng_seed=3, policy="cloud"))
        for sa, sb in zip(crl.samples, cloud.samples):
            assert sa.idle_capacity <= sb.idle_capacity + 1e-6

    def test_lease_busy_seconds_are_cycles_over_rate(self):
        report = run(SimConfig(steps=60, rng_seed=6))
        assert report.assignment_records
        for r in report.assignment_records:
            assert r.busy_seconds == r.task_cycles_required / r.source_cycles_per_second

    def test_task_accounting_closed(self):
        for seed in range(5):
            report = run(SimConfig(steps=60, rng_seed=seed))
            assert report.arrived_tasks == report.matched_tasks + report.migrated_tasks + report.pending_tasks

    def test_migration_non_increasing_in_w(self):
        finals = []
        for w in (1, 2, 3, 5):
            cfg = SimConfig(steps=100, rng_seed=1, weights=WeightsConfig(max_rounds_w=w))
            finals.append(run(cfg).samples[-1].migrated_value_cum)
        assert all(a >= b - 1e-9 for a, b in zip(finals, finals[1:]))

    def test_cumulative_series_non_decreasing(self):
        report = run(SimConfig(steps=80, rng_seed=4))
        for prev, cur in zip(report.samples, report.samples[1:]):
            assert cur.migrated_value_cum >= prev.migrated_value_cum
            assert cur.migrated_cycles_cum >= prev.migrated_cycles_cum
            assert cur.idle_capacity >= 0.0
