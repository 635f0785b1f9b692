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
    ARRIVAL_WORDS,
    POISSON_LAM_MAX,
    _STEP_WORDS,
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
from oracles import oracle_arrivals, oracle_run, oracle_settlements
from records import SourceNode, Task, nodes_of, rows_of, table_of, tasks_of
from scenarios import LEASE_HEAVY, random_configs

QUIET = WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0)


def as_objects(arrivals):
    """The Task and SourceNode records that generate_arrivals' columns hold."""
    tasks, sources = arrivals
    return tasks_of(tasks), nodes_of(sources)


def as_rows(arrivals):
    """generate_arrivals' columns as the rows oracle_arrivals returns."""
    tasks, sources = arrivals
    return rows_of(tasks), rows_of(sources)


class FixedCounts:
    """A Generator whose Poisson draws return fixed counts in turn, over and
    over, and take no words."""

    def __init__(self, generator, *counts):
        self.generator = generator
        self.counts = itertools.cycle(counts)

    def poisson(self, lam):
        return next(self.counts)

    def __getattr__(self, name):
        return getattr(self.generator, name)


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
        stream = ArrivalStream(wl, np.random.default_rng(7), 10_000)
        total = sum(len(generate_arrivals(stream)[0]) for _ in range(10_000))
        assert 2.9 <= total / 10_000 <= 3.1

    def test_fields_within_ranges(self):
        wl = WorkloadConfig()
        tasks, sources = as_objects(generate_arrivals(ArrivalStream(wl, np.random.default_rng(3))))
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
    "lease-heavy": (LEASE_HEAVY, False),
    "one-device": (WorkloadConfig(source_arrival_rate=10.0, device_count=1), False),
    "low-rates": (WorkloadConfig(task_arrival_rate=0.3, source_arrival_rate=0.6, device_count=7), False),
    "no-tasks": (WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=2.0, device_count=2), False),
    # each block is ARRIVAL_WORDS // _STEP_WORDS empty steps
    "no-arrivals": (WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0), False),
    # 2**32 mod n = 2**30: a quarter of the owner draws is rejected
    "rejections": (WorkloadConfig(task_arrival_rate=1.0, source_arrival_rate=1.0, device_count=3 * 2**30), True),
}


def state_of(rng):
    """The bit generator's state with its arrays as lists, so that states compare."""
    return json.loads(json.dumps(rng.bit_generator.state, default=lambda value: value.tolist()))


def check_stream(wl, fast, slow, steps):
    """Draw ``steps`` steps of ``ArrivalStream(wl, fast, steps)`` and compare
    each with the scalar oracle's on ``slow``, and the generator states at
    every block end, where the stream has no drawn step left to hand out.

    Returns each step's rows and the indices of the steps that end a block.
    """
    stream = ArrivalStream(wl, fast, steps)
    next_t, next_s, rows, ends = 0, 0, [], []
    for step in range(steps):
        tasks, sources = as_rows(generate_arrivals(stream, next_t, next_s))
        assert (tasks, sources) == oracle_arrivals(wl, slow, next_t, next_s)
        if not stream.buffered:
            assert state_of(fast) == state_of(slow)
            ends.append(step)
        rows.append((tasks, sources))
        next_t += len(tasks)
        next_s += len(sources)
    assert ends[-1] == steps - 1
    return rows, ends


def count_fallbacks(monkeypatch):
    """Record the (n_tasks, n_sources) of every ``_draw_scalars`` call."""
    fallbacks = []
    scalar = simulator._draw_scalars
    monkeypatch.setattr(simulator, "_draw_scalars", lambda *a: fallbacks.append(a[2:]) or scalar(*a))
    return fallbacks


def step_words(counts, devices=30, cached=0):
    """The raw words each step of ``counts`` (n_tasks, n_sources) takes: three
    uniforms per task and two per source, and its owners' fresh words.  Owners
    take the 32-bit halves of fresh words two by two, so the first m objects
    of the stream take (m + 1 - cached) // 2 of them, where ``cached`` is 1 if
    the generator's cache held a half at the start; one device takes none."""
    words, objects, fresh = [], 0, 0
    for n_tasks, n_sources in counts:
        objects += n_tasks + n_sources
        fresh_by_now = (objects + 1 - cached) // 2 if devices > 1 else 0
        words.append(3 * n_tasks + 2 * n_sources + fresh_by_now - fresh)
        fresh = fresh_by_now
    return words


def block_ends(words, budget):
    """The steps that end a block when each block takes steps until it holds
    ``budget`` words or more, a step counting its raw ``words`` and
    ``_STEP_WORDS``; the last step ends the last block."""
    ends, held = [], 0
    for step, taken in enumerate(words):
        held += taken + _STEP_WORDS
        if held >= budget or step == len(words) - 1:
            ends.append(step)
            held = 0
    return ends


def counts_of(rows):
    return [(len(tasks), len(sources)) for tasks, sources in rows]


# The first word of PCG64(1) advanced this far has a low half that Lemire's
# test rejects for integers(0, 30).
REJECTED_WORD_AT = 133644978


class TestArrivalReplay:
    @pytest.mark.parametrize("shape", sorted(REPLAY_SHAPES))
    def test_equals_scalar_draws_and_state(self, shape, monkeypatch):
        wl, may_fall_back = REPLAY_SHAPES[shape]
        fallbacks = count_fallbacks(monkeypatch)
        # The run's budget, and one that ends a block every few steps in every shape.
        for budget, seeds in ((ARRIVAL_WORDS, 20), (512, 5)):
            monkeypatch.setattr(simulator, "ARRIVAL_WORDS", budget)
            blocks = 0
            for seed in range(seeds):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                seen = len(fallbacks)
                rows, ends = check_stream(wl, fast, slow, 200)
                words = step_words(counts_of(rows), wl.device_count)
                # A block ends at the first step that brings it to the budget,
                # or earlier at a step drawn by _draw_scalars.
                cut_short = 0
                for start, end in zip([0] + [e + 1 for e in ends], ends):
                    rule = start + block_ends(words[start:], budget)[0]
                    assert end <= rule
                    cut_short += end < rule
                assert cut_short <= len(fallbacks) - seen
                blocks += len(ends)
            assert blocks >= seeds * (200 // 8 if budget == 512 else 2)
        if may_fall_back:
            assert 0 < len(fallbacks) < 25 * 200
        else:
            assert fallbacks == []

    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 33])
    def test_run_draws_its_steps_and_no_more(self, steps, monkeypatch):
        drawn, streams, ends = [], [], []
        draw = simulator.generate_arrivals

        def record(stream, *ids):
            arrivals = draw(stream, *ids)
            if not stream.buffered:
                ends.append(len(drawn))
            drawn.append(as_rows(arrivals))
            streams.append(stream)
            return arrivals

        monkeypatch.setattr(simulator, "generate_arrivals", record)
        config = SimConfig(steps=steps, rng_seed=8, policy="cloud")
        oracle = np.random.default_rng(8)
        words = step_words([tuple(map(len, oracle_arrivals(config.workload, oracle))) for _ in range(max(steps, 16))])
        # A budget the first 16 steps just reach, so that a block ends at step 15.
        budget = sum(words[:16]) + 16 * _STEP_WORDS
        monkeypatch.setattr(simulator, "ARRIVAL_WORDS", budget)
        report = run(config)
        slow = np.random.default_rng(8)
        next_t = next_s = 0
        for tasks, sources in drawn:
            assert (tasks, sources) == oracle_arrivals(config.workload, slow, next_t, next_s)
            next_t += len(tasks)
            next_s += len(sources)
        assert len(drawn) == steps and report.arrived_tasks == next_t
        assert ends == block_ends(words[:steps], budget)
        assert (15 in ends) == (steps >= 16) and len(ends) >= steps // 16
        # The run drew nothing past its last step.
        assert streams[-1].rng.bit_generator.state == slow.bit_generator.state

    def test_block_starting_with_the_cache_set(self, monkeypatch):
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        fast.integers(0, 30)
        slow.integers(0, 30)
        assert fast.bit_generator.state["has_uint32"] == 1
        monkeypatch.setattr(simulator, "ARRIVAL_WORDS", 1000)
        rows, ends = check_stream(WorkloadConfig(), fast, slow, 33)
        assert ends == block_ends(step_words(counts_of(rows), cached=1), 1000)
        assert len(ends) >= 3

    def test_pinned_rejection_falls_back_to_scalar_draws(self):
        word = int(np.random.PCG64(1).advance(REJECTED_WORD_AT).random_raw())
        low, high = word & 0xFFFFFFFF, word >> 32
        # Lemire's test rejects the low half, so integers(0, 30) takes the
        # high half and returns 18; a replay without the test would give 9.
        assert (low * 30) & 0xFFFFFFFF == 6 < (2**32 - 30) % 30 == 16
        assert ((low * 30) >> 32, (high * 30) >> 32) == (9, 18)
        assert int(np.random.Generator(np.random.PCG64(1).advance(REJECTED_WORD_AT)).integers(0, 30)) == 18

        wl = WorkloadConfig(device_count=30)
        fast = np.random.Generator(np.random.PCG64(1).advance(REJECTED_WORD_AT))
        slow = np.random.Generator(np.random.PCG64(1).advance(REJECTED_WORD_AT))
        tasks, sources = generate_arrivals(ArrivalStream(wl, FixedCounts(fast, 1, 2)))
        assert tasks.owners.tolist()[0] == 18
        assert as_rows((tasks, sources)) == oracle_arrivals(wl, FixedCounts(slow, 1, 2))
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_rejection_mid_block_falls_back_for_that_step_only(self, monkeypatch):
        # One task and two sources a step: each pair of steps takes 9 + 8
        # words (the three owners take two fresh words, then one, as the
        # cache alternates) and leaves the cache unset.  So step 6 starts at
        # the pinned word, and its task's owner draw is rejected.
        wl = WorkloadConfig(device_count=30)
        fallbacks = count_fallbacks(monkeypatch)
        fast, slow = (FixedCounts(np.random.Generator(np.random.PCG64(1).advance(REJECTED_WORD_AT - 3 * 17)), 1, 2)
                      for _ in range(2))
        # After step 6, two blocks of steps of 8.5 words on average, and a short one.
        steps = 7 + 2 * ARRIVAL_WORDS // (8 + _STEP_WORDS)
        rows, ends = check_stream(wl, fast, slow, steps)
        assert fallbacks == [(1, 2)]
        assert rows[6][0][0][1] == 18
        # Step 6 ends its block; step 7 starts the next with the cache set,
        # as the scalar draws of step 6's three owners left it.
        assert ends == [6] + [7 + end for end in block_ends(step_words([(1, 2)] * (steps - 7), cached=1), ARRIVAL_WORDS)]
        assert len(ends) == 4

    def test_high_rate_run_holds_a_few_steps_of_words(self):
        # One step at these rates draws 6e4 + 4e4 uniform words and 2e4 owner
        # words, more than ARRIVAL_WORDS, so each replay block is one step.
        # The run then holds a few arrays of a step's length: the block's
        # words and columns, about three steps of sources in the pool (idle
        # below 3 s) and one step of escalated values.
        rate = 2e4
        step_bytes = 8 * (3 * rate + 2 * rate + (rate + rate) / 2)
        workload = WorkloadConfig(task_arrival_rate=rate, source_arrival_rate=rate, idle_range=(1.0, 3.0))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            report = run(SimConfig(steps=20, policy="cloud", workload=workload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.arrived_tasks > 19 * rate
        assert peak < 10 * step_bytes

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.MT19937(3)),
        lambda: np.random.Generator(np.random.Philox(3)),
    ], ids=["mt19937", "philox"])
    def test_other_bit_generators_get_scalar_draws(self, make_rng, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        fast, slow = make_rng(), make_rng()
        _, ends = check_stream(WorkloadConfig(), fast, slow, 50)
        assert ends == list(range(50)) and len(fallbacks) == 50
        assert fast.bit_generator.random_raw(4).tolist() == slow.bit_generator.random_raw(4).tolist()

    @pytest.mark.parametrize("n_tasks, n_sources", [(0, 3), (4, 0), (0, 0), (4, 3)])
    def test_scalar_draws_give_the_replay_columns(self, n_tasks, n_sources):
        rng = FixedCounts(np.random.Generator(np.random.Philox(5)), n_tasks, n_sources)
        tasks, sources = generate_arrivals(ArrivalStream(WorkloadConfig(), rng), 10, 20)
        for table, n, ints in ((tasks, n_tasks, ("ids", "owners", "deferred")), (sources, n_sources, ("ids", "owners"))):
            for name in table.__dataclass_fields__:
                column = getattr(table, name)
                assert column.shape == (n,), name
                assert column.dtype == (np.int64 if name in ints else np.float64), name
        assert tasks.ids.tolist() == list(range(10, 10 + n_tasks))
        assert sources.ids.tolist() == list(range(20, 20 + n_sources))
        assert not tasks.deferred.any()

    def test_device_count_beyond_32_bits_gets_scalar_draws(self, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        wl = WorkloadConfig(device_count=2**32 + 5)
        fast, slow = np.random.default_rng(4), np.random.default_rng(4)
        check_stream(wl, fast, slow, 20)
        assert len(fallbacks) == 20


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
            rng, arrived = np.random.default_rng(config.rng_seed), {}
            for step in range(config.steps):
                tasks, _ = oracle_arrivals(config.workload, rng, len(arrived))
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
