import dataclasses
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from crlsim import simulator
from crlsim.metrics import AssignmentRecord, StepSample, emit_report
from crlsim.model import ColumnLog, SourcePool, TaskQueue, WeightsConfig
from crlsim.settlement import SettlementRecord
from crlsim.simulator import (
    POISSON_LAM_MAX,
    ArrivalStream,
    SimConfig,
    WorkloadConfig,
    SimState,
    generate_arrivals,
    step_crl,
    step_cloud,
    run,
)

from audit import report_violations
from oracles import arrival_generators, oracle_arrivals, oracle_run, oracle_settlements
from records import SourceNode, Task, rows_of, table_of
from scenarios import LEASE_HEAVY, random_configs

QUIET = WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0)


def as_rows(arrivals):
    """generate_arrivals' columns as the rows oracle_arrivals returns."""
    tasks, sources = arrivals
    return rows_of(tasks), rows_of(sources)


class TestWorkloadConfig:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            WorkloadConfig(cycles_range=(10.0, 1.0))

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

    def test_device_count_limit_is_numpys_integers_limit(self):
        # Owners are drawn from integers(0, device_count): 2**63 is the largest bound it takes.
        rng = np.random.default_rng(0)
        rng.integers(0, 2**63)
        run(SimConfig(steps=2, workload=WorkloadConfig(device_count=2**63)))
        with pytest.raises(ValueError):
            rng.integers(0, 2**63 + 1)
        for value in (0, 2**63 + 1, np.uint64(2**64 - 1)):
            with pytest.raises(ValueError, match=f"device_count must be >= 1 and <= {2**63}, got "):
                WorkloadConfig(device_count=value)

    @pytest.mark.parametrize("field, value, message", [
        ("cycles_range", 5, "cycles_range must be a \\[low, high\\] pair"),
        ("cycles_range", [1], "cycles_range must be a \\[low, high\\] pair"),
        ("rate_range", (1.0, "2"), "rate_range must be a \\[low, high\\] pair"),
        ("task_arrival_rate", "3", "task_arrival_rate must be a real number"),
        ("source_arrival_rate", True, "source_arrival_rate must be a real number"),
    ])
    def test_malformed_number_names_its_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            WorkloadConfig(**{field: value})


class TestSimConfig:
    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            SimConfig(policy="edge")

    def test_rejects_negative_seed(self):
        assert SimConfig(rng_seed=0).rng_seed == 0
        for seed in (-1, np.int64(-7)):
            with pytest.raises(ValueError, match="rng_seed must be >= 0"):
                SimConfig(rng_seed=seed)

    def test_int_fields_take_ints_only(self):
        config = SimConfig(steps=np.int32(3), rng_seed=np.uint64(7), workload=WorkloadConfig(device_count=np.int64(5)))
        assert (config.steps, config.rng_seed, config.workload.device_count) == (3, 7, 5)
        assert {type(config.steps), type(config.rng_seed), type(config.workload.device_count)} == {int}
        for make, value in ((lambda v: SimConfig(steps=v), True), (lambda v: SimConfig(rng_seed=v), 1.0),
                            (lambda v: WorkloadConfig(device_count=v), 2.5),
                            (lambda v: WeightsConfig(max_rounds_w=v), np.float64(3))):
            with pytest.raises(ValueError, match="must be an integer"):
                make(value)

    def test_numpy_int_fields_emit_as_ints(self):
        # A numpy scalar kept in a field would reach the report's seed and
        # json.dumps would reject it.
        config = SimConfig(steps=np.int64(3), rng_seed=np.uint64(7), weights=WeightsConfig(max_rounds_w=np.int8(2)))
        expected = SimConfig(steps=3, rng_seed=7, weights=WeightsConfig(max_rounds_w=2))
        taken, wanted = io.StringIO(), io.StringIO()
        emit_report(run(config), "json", taken)
        emit_report(run(expected), "json", wanted)
        assert taken.getvalue() == wanted.getvalue()
        assert json.dumps(dataclasses.asdict(config)) == json.dumps(dataclasses.asdict(expected))


    def test_numpy_float_fields_emit_as_floats(self):
        # A float32 weight kept in a field would make settlement compute in
        # float32, and json.dumps would reject the ledger and the config.
        config = SimConfig(steps=20, weights=WeightsConfig(gamma_n=np.float32(0.3)))
        expected = SimConfig(steps=20, weights=WeightsConfig(gamma_n=float(np.float32(0.3))))
        assert type(config.weights.gamma_n) is float
        taken, wanted = io.StringIO(), io.StringIO()
        emit_report(run(config), "json", taken)
        emit_report(run(expected), "json", wanted)
        assert taken.getvalue() == wanted.getvalue()
        assert json.dumps(dataclasses.asdict(config)) == json.dumps(dataclasses.asdict(expected))

    def test_integer_too_large_for_a_float_is_not_finite(self):
        with pytest.raises(ValueError, match="step_seconds must be finite"):
            SimConfig(step_seconds=10**400)
        with pytest.raises(ValueError, match="idle_range must be finite"):
            WorkloadConfig(idle_range=(40, 10**400))

    @pytest.mark.parametrize("make, message", [
        (lambda n: SimConfig(step_seconds=n), "step_seconds must be finite, got an integer of 16610 bits"),
        (lambda n: WorkloadConfig(device_count=n), "device_count must be >= 1 and <= 9223372036854775808, got an integer of 16610 bits"),
        (lambda n: WorkloadConfig(device_count=-n), "device_count must be >= 1 and .*, got a negative integer of 16610 bits"),
        (lambda n: WorkloadConfig(cycles_range=(1.0, n)), r"cycles_range must be finite, got \(1.0, an integer of 16610 bits\)"),
        (lambda n: WorkloadConfig(cycles_range=(1.0, 2.0, n)), r"cycles_range must be a \[low, high\] pair .*, got \(1.0, 2.0, an integer"),
    ], ids=["step_seconds", "device_count", "negative_device_count", "cycles_range", "three_bounds"])
    def test_integer_too_long_to_print_is_named_by_its_field(self, make, message):
        # Python will not print an int of more than 4300 digits in decimal.
        with pytest.raises(ValueError, match=message):
            make(10**5000)


CONFIGS = (SimConfig, WeightsConfig, WorkloadConfig)


def test_every_numeric_config_field_is_bounded():
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            assert isinstance(f.default, (int, float, tuple)) == ("bounds" in f.metadata), f.name


@pytest.mark.parametrize("cls, f", [
    pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
    for cls in CONFIGS for f in dataclasses.fields(cls) if "bounds" in f.metadata
])
def test_declared_bounds_are_enforced(cls, f):
    """Each closed end (or, at an open end, the nearest value inside it) is
    taken, and the nearest value outside each end is rejected naming the field;
    a range takes the value as either bound."""
    low, high, above = f.metadata["bounds"]
    if type(f.default) is int:
        def toward(x, direction):
            return x + direction
    else:
        def toward(x, direction):
            return float(np.nextafter(x, direction * np.inf))
    inside, outside = ([toward(low, 1)], [low]) if above else ([low], [toward(low, -1)])
    if high != np.inf:
        inside.append(high)
        outside.append(toward(high, 1))

    def placed(x):
        if type(f.default) is not tuple:
            return [x]
        lo, hi = f.default
        return [(x, max(x, hi)), (min(x, lo), x)]

    for value in (v for x in inside for v in placed(x)):
        assert getattr(cls(**{f.name: value}), f.name) == value
    for value in (v for x in outside for v in placed(x)):
        with pytest.raises(ValueError, match=f"^{f.name} must be "):
            cls(**{f.name: value})


class TestGenerateArrivals:
    def test_sample_mean_matches_poisson_rate(self):
        wl = WorkloadConfig(task_arrival_rate=3.0, source_arrival_rate=0.0)
        stream = ArrivalStream(wl, 7, 10_000)
        total = sum(len(generate_arrivals(stream)[0]) for _ in range(10_000))
        assert 2.9 <= total / 10_000 <= 3.1

    def test_fields_within_ranges(self):
        # Every drawn field lies in its closed [low, high] range and every owner in [0, device_count).
        drawn = 0
        for config in random_configs():
            wl = config.workload
            stream = ArrivalStream(wl, config.rng_seed, 200)
            for _ in range(200):
                tasks, sources = generate_arrivals(stream)
                for column, (low, high) in ((tasks.deadline, wl.deadline_range), (tasks.cycles, wl.cycles_range),
                                            (tasks.value, wl.value_range), (sources.idle, wl.idle_range),
                                            (sources.rate, wl.rate_range)):
                    assert ((low <= column) & (column <= high)).all(), (config, column.tolist(), low, high)
                for owners in (tasks.owners, sources.owners):
                    assert ((0 <= owners) & (owners < wl.device_count)).all(), (config, owners.tolist())
                drawn += len(tasks) + len(sources)
        assert drawn > 100_000


# name -> workload
STREAM_SHAPES = {
    "default": WorkloadConfig(),
    "lease-heavy": LEASE_HEAVY,
    "one-device": WorkloadConfig(source_arrival_rate=10.0, device_count=1),
    "low-rates": WorkloadConfig(task_arrival_rate=0.3, source_arrival_rate=0.6, device_count=7),
    "no-tasks": WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=2.0, device_count=2),
    "no-arrivals": WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0),
    # 2**32 mod n = 2**30: Lemire's test rejects a quarter of the 32-bit owner draws
    "rejections": WorkloadConfig(task_arrival_rate=1.0, source_arrival_rate=1.0, device_count=3 * 2**30),
    # owners beyond 32 bits take 64-bit draws
    "devices-2e32": WorkloadConfig(device_count=2**32 + 5),
}


def states_of(rngs):
    """The generators' bit generator states, which compare with ``==``."""
    return [rng.bit_generator.state for rng in rngs]


def draw_steps(stream, steps, ids=(0, 0)):
    """The next ``steps`` steps of ``stream`` as the rows oracle_arrivals
    returns, ids numbered on from ``ids``; checks each column's length and
    dtype on the way."""
    drawn, (next_t, next_s) = [], ids
    for _ in range(steps):
        tasks, sources = generate_arrivals(stream, next_t, next_s)
        for table, ints in ((tasks, ("ids", "owners", "deferred")), (sources, ("ids", "owners"))):
            for name in table.__dataclass_fields__:
                column = getattr(table, name)
                assert column.shape == (len(table.ids),), name
                assert column.dtype == (np.int64 if name in ints else np.float64), name
        assert not tasks.deferred.any()
        drawn.append(as_rows((tasks, sources)))
        next_t += len(tasks)
        next_s += len(sources)
    return drawn


def oracle_steps(workload, rngs, steps, ids=(0, 0)):
    """The next ``steps`` steps of ``oracle_arrivals`` on ``rngs``, ids numbered on from ``ids``."""
    drawn, (next_t, next_s) = [], ids
    for _ in range(steps):
        tasks, sources = oracle_arrivals(workload, rngs, next_t, next_s)
        drawn.append((tasks, sources))
        next_t += len(tasks)
        next_s += len(sources)
    return drawn


class TestArrivalReplay:
    """The stream, drawn in blocks, replays the scalar reference
    ``oracle_arrivals``: one draw per field on its column's generator."""

    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    def test_equals_scalar_draws_and_state(self, shape, monkeypatch):
        # Blocks of one step, of a few steps, of the default size and of the whole run.
        wl, steps = STREAM_SHAPES[shape], 120
        for seed in (0, 1):
            rngs = arrival_generators(seed)
            expected = oracle_steps(wl, rngs, steps, ids=(10, 20))
            assert any(tasks or sources for tasks, sources in expected) == (shape != "no-arrivals")
            for objects in (1, 7, 100, simulator.ARRIVAL_OBJECTS, 10**9):
                monkeypatch.setattr(simulator, "ARRIVAL_OBJECTS", objects)
                stream = ArrivalStream(wl, seed, steps)
                assert draw_steps(stream, steps, ids=(10, 20)) == expected, objects
                # The stream drew its steps and no more.
                assert states_of(stream.rngs) == states_of(rngs), objects

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 33])
    def test_run_draws_its_steps_and_no_more(self, steps, monkeypatch):
        # A block is 16 steps at the default rates, so the run ends inside a
        # block, at its end or one step into the next.  It draws the first
        # ``steps`` steps of a longer run's stream, and no step past them.
        monkeypatch.setattr(simulator, "ARRIVAL_OBJECTS", 16 * (10 + 30 + 1))
        workload = WorkloadConfig()
        longer = draw_steps(ArrivalStream(workload, 8, 40), 40)
        drawn, streams, draw = [], [], simulator.generate_arrivals

        def record(stream, *ids):
            arrivals = draw(stream, *ids)
            drawn.append(as_rows(arrivals))
            streams.append(stream)
            return arrivals

        monkeypatch.setattr(simulator, "generate_arrivals", record)
        report = run(SimConfig(steps=steps, rng_seed=8, policy="cloud", workload=workload))
        assert drawn == longer[:steps]
        assert report.arrived_tasks == sum(len(tasks) for tasks, _ in drawn)
        rngs = arrival_generators(8)
        assert oracle_steps(workload, rngs, steps) == drawn
        assert states_of(streams[-1].rngs) == states_of(rngs)

    @pytest.mark.parametrize("n_tasks, n_sources", [(0, 3), (4, 0), (0, 0), (4, 3)])
    def test_scalar_draws_give_the_replay_columns(self, n_tasks, n_sources):
        # Count generators that always draw the given counts: every step has
        # no tasks, no sources, both or neither, and the stream's columns
        # still equal the scalar oracle's rows.
        class FixedCounts:
            def __init__(self, n):
                self.n = n

            def poisson(self, lam, size=None):
                return self.n if size is None else np.full(size, self.n, dtype=np.int64)

        wl, steps = WorkloadConfig(), 5
        stream, rngs = ArrivalStream(wl, 5, steps), arrival_generators(5)
        stream.rngs[:2] = rngs[:2] = FixedCounts(n_tasks), FixedCounts(n_sources)
        tasks, sources = generate_arrivals(stream, 10, 20)
        for table, n, ints in ((tasks, n_tasks, ("ids", "owners", "deferred")), (sources, n_sources, ("ids", "owners"))):
            for name in table.__dataclass_fields__:
                column = getattr(table, name)
                assert column.shape == (n,), name
                assert column.dtype == (np.int64 if name in ints else np.float64), name
        assert tasks.ids.tolist() == list(range(10, 10 + n_tasks))
        assert sources.ids.tolist() == list(range(20, 20 + n_sources))
        assert not tasks.deferred.any()
        drawn = [as_rows((tasks, sources))] + draw_steps(stream, steps - 1, ids=(10 + n_tasks, 20 + n_sources))
        assert drawn == oracle_steps(wl, rngs, steps, ids=(10, 20))
        assert states_of(stream.rngs[2:]) == states_of(rngs[2:])

    def test_high_rate_run_holds_a_few_steps_of_words(self):
        # One step at these rates draws more than ARRIVAL_OBJECTS objects, so
        # each block is one step.  The run then holds a few arrays of a
        # step's length: the block's columns, about three steps of sources in
        # the pool (idle below 3 s) and one step of escalated tasks.  A block
        # of the whole run would hold twelve steps of columns.
        rate = 5e3
        step_bytes = 8 * (4 * rate + 3 * rate)  # owners and fields of a step's tasks and sources
        workload = WorkloadConfig(task_arrival_rate=rate, source_arrival_rate=rate, idle_range=(1.0, 3.0))
        assert simulator.ARRIVAL_OBJECTS // (2 * rate + 1) == 0
        run(SimConfig(steps=1, policy="cloud", workload=workload))  # allocations made once per process
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            report = run(SimConfig(steps=12, policy="cloud", workload=workload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.arrived_tasks > 11 * rate
        assert peak < 10 * step_bytes


class TestStepCrl:
    def test_single_feasible_pair_matches_and_settles(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=1))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=10.0)])
        state.pool = table_of(SourcePool, [SourceNode(source_id=0, owner_id=2, idle_seconds=50.0, cycles_per_second=10.0)])
        step_crl(state)
        report = state.report()
        assert report.matched_tasks == 1
        assert report.migrated_tasks == 0
        # B = (0.5 * 10 + 0.5 * 0) * 1
        expected_b = 5.0
        assert report.settlement_records[0].amount == pytest.approx(expected_b)
        assert state.ledger.get(2, 0.0) == pytest.approx(expected_b)
        assert state.ledger.get(1, 0.0) == pytest.approx(-expected_b)
        # 100 cycles at 10/s consumes 10 of the 49 idle seconds left after aging
        assert state.pool.idle[0] == pytest.approx(39.0)
        assert report.assignment_records[0].busy_seconds == 10.0

    def test_no_sources_w1_escalates_immediately(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=1))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=4.0)])
        step_crl(state)
        assert state.report().migrated_tasks == 1
        assert state.samples[-1].migrated_value_cum == pytest.approx(4.0)
        assert len(state.pending) == 0

    def test_no_sources_w3_defers_twice_then_escalates(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=3))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=4.0)])
        step_crl(state)
        assert state.report().migrated_tasks == 0 and len(state.pending) == 1
        assert state.pending.deferred[0] == 1
        step_crl(state)
        assert state.report().migrated_tasks == 0 and state.pending.deferred[0] == 2
        step_crl(state)
        assert state.report().migrated_tasks == 1 and len(state.pending) == 0

    def test_expired_pending_task_escalates(self):
        # A task put into pending by hand with no time left cannot lease, and
        # the deadline lookahead escalates it in that step's round.
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=5))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=0.0, cycles_required=10.0, value=4.0)])
        state.pool = table_of(SourcePool, [SourceNode(source_id=0, owner_id=2, idle_seconds=50.0, cycles_per_second=100.0)])
        step_crl(state)
        assert (state.samples[0].matched, state.samples[0].deferred, state.samples[0].migrated) == (0, 0, 1)
        assert state.samples[-1].migrated_value_cum == 4.0 and len(state.pending) == 0

    @pytest.mark.parametrize("deadline", [1.5, 2.0])
    def test_pending_deadline_counts_from_the_next_match(self, deadline):
        # A pending deadline is the time left at the next match: the step's
        # aging leaves it alone, so a 1.5 s task at 2 s steps still takes the
        # source that finishes it in 0.1 s.
        config = SimConfig(workload=QUIET, step_seconds=2.0, weights=WeightsConfig(max_rounds_w=5))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=deadline, cycles_required=10.0, value=4.0)])
        state.pool = table_of(SourcePool, [SourceNode(source_id=0, owner_id=2, idle_seconds=50.0, cycles_per_second=100.0)])
        step_crl(state)
        assert (state.samples[0].matched, state.samples[0].deferred, state.samples[0].migrated) == (1, 0, 0)
        report = state.report()
        assert report.matched_tasks == 1 and report.migrated_tasks == 0 and len(state.pending) == 0
        lease = report.assignment_records[0]
        assert (lease.task_id, lease.source_id, lease.busy_seconds, lease.task_deadline_s) == (0, 0, 0.1, deadline)

    def test_dead_arrivals_take_source_ids(self, monkeypatch):
        # Sources with no idle time arrive dead, and still use up their ids.
        arrived, draw = [], simulator.generate_arrivals

        def arrivals(*args):
            tasks, sources = draw(*args)
            arrived.append(len(sources.ids))
            return tasks, sources

        monkeypatch.setattr(simulator, "generate_arrivals", arrivals)
        state = SimState(SimConfig(workload=WorkloadConfig(idle_range=(0.0, 0.0))))
        for _ in range(5):
            step_crl(state)
            assert state.next_source_id == sum(arrived)
            # Age compacted the earlier dead rows away, so the window holds this step's arrivals.
            assert state.pool.ids.tolist() == list(range(sum(arrived[:-1]), sum(arrived)))
        assert sum(arrived) > 100 and state.report().matched_tasks == 0

    def test_empty_step_records_sample(self):
        config = SimConfig(workload=QUIET)
        state = SimState(config)
        step_crl(state)
        assert len(state.samples) == 1
        assert state.samples[0].idle_capacity == 0.0


class TestStepCloud:
    def test_all_arrivals_migrate(self):
        config = SimConfig(workload=WorkloadConfig(), policy="cloud")
        state = SimState(config)
        step_cloud(state)
        report = state.report()
        assert report.migrated_tasks == state.arrived_tasks
        assert report.matched_tasks == 0

    def test_zero_tasks_no_change(self):
        config = SimConfig(workload=QUIET, policy="cloud")
        state = SimState(config)
        step_cloud(state)
        assert state.report().migrated_tasks == 0
        assert state.samples[0].migrated_value_cum == 0.0

    def test_shared_seed_identical_arrival_stream(self):
        crl = run(SimConfig(steps=30, rng_seed=5, policy="crl"))
        cloud = run(SimConfig(steps=30, rng_seed=5, policy="cloud"))
        assert crl.arrived_tasks == cloud.arrived_tasks


class TestEscalate:
    # From 2**53 a lone 1.0 rounds away and a run of them does not, so the
    # running totals hold only if each task is added, in queue order, by itself.
    VALUES = [1.0, 1.0, 1.0, 2.0, 0.5, 1.0, 7.25, 1.0, 2.0]
    CYCLES = [0.3, 1e16, 0.7, -1e16, 0.1, 2.0**-30, 1.0, 5.0, 1e-3]

    def stepped(self, values, cycles, migrated, value_cum, cycles_cum):
        """A cloud step's state after one sample with the given totals, the tasks pending."""
        state = SimState(SimConfig(workload=QUIET, policy="cloud"))
        state.samples.append(StepSample(0, "cloud", 0.0, 0, 0, migrated, value_cum, cycles_cum))
        n = len(values)
        state.pending = TaskQueue(np.arange(n), np.zeros(n, dtype=np.int64), np.full(n, 9.0),
                                  np.array(cycles, dtype=float), np.array(values, dtype=float), np.zeros(n, dtype=np.int64))
        return step_cloud(state)

    def test_folds_each_task_into_the_running_totals_in_queue_order(self):
        state = self.stepped(self.VALUES, self.CYCLES, 7, 2.0**53, 1.0)
        value_cum, cycles_cum = 2.0**53, 1.0
        for value, cycles in zip(self.VALUES, self.CYCLES):
            value_cum += value
            cycles_cum += cycles
        sample = state.samples[-1]
        assert (sample.step, sample.matched, sample.deferred, sample.migrated) == (1, 0, 0, len(self.VALUES))
        assert state.report().migrated_tasks == 7 + len(self.VALUES)
        assert sample.migrated_value_cum.hex() == value_cum.hex()
        assert sample.migrated_cycles_cum.hex() == cycles_cum.hex()
        # The fold differs from a column sum and from the reverse order, so either would fail here.
        assert value_cum != 2.0**53 + sum(self.VALUES) and value_cum != 2.0**53 + float(np.sum(self.VALUES))
        reverse = 2.0**53
        for value in reversed(self.VALUES):
            reverse += value
        assert value_cum != reverse

    def test_empty_queue_carries_the_totals(self):
        state = self.stepped([], [], 3, 0.1, 0.2)
        assert state.samples[-1][-3:] == (0, 0.1, 0.2)
        assert state.report().migrated_tasks == 3


class TestRun:
    def test_mid_run_report_stays_as_taken(self):
        config = SimConfig(steps=10, rng_seed=1)
        state, stopped = SimState(config), SimState(config)
        for _ in range(3):
            step_crl(state)
            step_crl(stopped)
        report = state.report()
        for _ in range(3):
            step_crl(state)
        assert len(state.samples) == 6 and state.report().matched_tasks > report.matched_tasks
        assert report == stopped.report() and len(report.samples) == 3
        for format in ("csv", "json"):
            taken, expected = io.StringIO(), io.StringIO()
            emit_report(report, format, taken)
            emit_report(stopped.report(), format, expected)
            assert taken.getvalue() == expected.getvalue()

    def test_lease_deadlines_age_one_step_per_wait(self):
        # A lease's match-time deadline is the task's drawn deadline less
        # step_seconds for each step it waited, taken off one step at a time.
        leases = 0
        for config in random_configs():
            rngs, arrived = arrival_generators(config.rng_seed), {}
            for step in range(config.steps):
                tasks, _ = oracle_arrivals(config.workload, rngs, len(arrived))
                arrived.update((row[0], (step, row[2])) for row in tasks)
            for step_seconds in (0.1, 0.3, 0.7, 1.0, 2.5):
                report = run(dataclasses.replace(config, step_seconds=step_seconds))
                for lease in report.assignment_records:
                    step, deadline = arrived[lease.task_id]
                    for _ in range(lease.step - step):
                        deadline -= step_seconds
                    assert repr(lease.task_deadline_s) == repr(deadline), (config, step_seconds, lease)
                leases += len(report.assignment_records)
        assert leases > 1000

    @pytest.mark.parametrize("workload", [WorkloadConfig(), LEASE_HEAVY], ids=["default", "lease-heavy"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_settlement_log_equals_oracle(self, workload, seed):
        config = SimConfig(steps=30, rng_seed=seed, workload=workload)
        report = run(config)
        rows, balances = oracle_settlements(config, report.assignment_records)
        assert len(rows) > 10
        # repr tells a numpy scalar or -0.0 from the plain float or int the rows must hold
        assert list(map(repr, report.settlement_records)) == list(map(repr, rows))
        assert list(map(repr, sorted(report.ledger_snapshot.items()))) == list(map(repr, sorted(balances.items())))

    @pytest.mark.parametrize("policy", ["crl", "cloud"])
    def test_reports_equal_the_whole_run_oracle(self, policy):
        # Every other random scenario keeps the naive oracle rounds within about a second.
        for config in random_configs()[::2] + [SimConfig(steps=30)]:
            config = dataclasses.replace(config, policy=policy)
            report, expected = run(config), oracle_run(config)
            for format in ("csv", "json"):
                taken, wanted = io.StringIO(), io.StringIO()
                emit_report(report, format, taken)
                emit_report(expected, format, wanted)
                assert taken.getvalue() == wanted.getvalue(), (config, format)

    def test_run_builds_no_rows(self, monkeypatch):
        built = []
        for row in (SettlementRecord, AssignmentRecord):
            def counting(cls, *args, _new=row.__new__, **kwargs):
                built.append(cls)
                return _new(cls, *args, **kwargs)
            monkeypatch.setattr(row, "__new__", counting)
        report = run(SimConfig(steps=30, rng_seed=1, workload=LEASE_HEAVY))
        assert built == []
        assert isinstance(report.settlement_records, ColumnLog)
        assert isinstance(report.assignment_records, ColumnLog)
        n = len(report.assignment_records)
        assert n == len(report.settlement_records) == report.matched_tasks > 0
        assert len(list(report.assignment_records)) == n and built == [AssignmentRecord] * n

    def test_task_accounting_closed(self):
        # The default scenario on seeds 0-4 under both policies, on seed 6 and
        # on seed 4 at 80 steps, then runs it does not reach: x16 sources whose
        # idle range starts at 0, the dense matrix, an inexact 2.5 s step and
        # arrivals among 2**32 devices.  Every crl run leases.
        configs = [SimConfig(steps=60, rng_seed=seed, policy=policy)
                   for seed, policy in itertools.product(range(5), ("crl", "cloud"))]
        configs += [
            SimConfig(steps=60, rng_seed=6),
            SimConfig(steps=80, rng_seed=4),
            SimConfig(steps=60, rng_seed=1, workload=WorkloadConfig(source_arrival_rate=480.0, idle_range=(0.0, 80.0))),
            SimConfig(steps=60, rng_seed=1, workload=LEASE_HEAVY),
            SimConfig(steps=60, rng_seed=1, step_seconds=2.5),
            SimConfig(steps=20, rng_seed=1, workload=WorkloadConfig(device_count=2**32)),
        ]
        for config in configs:
            report = run(config)
            assert report_violations(report) == [], config
            assert bool(report.assignment_records) == (config.policy == "crl"), config
