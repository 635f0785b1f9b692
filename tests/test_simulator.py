import dataclasses
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from crlsim import simulator
from crlsim.metrics import AssignmentRecord, emit_report
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

from oracles import oracle_arrivals, oracle_settlements
from records import SourceNode, Task, nodes_of, rows_of, table_of, tasks_of
from scenarios import random_configs

QUIET = WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0)
LEASE_HEAVY = WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0))


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

    def test_device_count_limit_is_numpys_integers_limit(self):
        # Owners are drawn from integers(0, device_count): 2**63 is the largest bound it takes.
        rng = np.random.default_rng(0)
        rng.integers(0, 2**63)
        run(SimConfig(steps=2, workload=WorkloadConfig(device_count=2**63)))
        with pytest.raises(ValueError):
            rng.integers(0, 2**63 + 1)
        for value in (0, 2**63 + 1, np.uint64(2**64 - 1)):
            with pytest.raises(ValueError, match="device_count must be in \\[1, 2\\*\\*63\\]"):
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
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            SimConfig(steps=0)

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
        for make, value in ((lambda v: SimConfig(steps=v), True), (lambda v: SimConfig(rng_seed=v), 1.0),
                            (lambda v: WorkloadConfig(device_count=v), 2.5),
                            (lambda v: WeightsConfig(max_rounds_w=v), np.float64(3))):
            with pytest.raises(ValueError, match="must be an integer"):
                make(value)


class TestGenerateArrivals:
    def test_zero_rates_yield_nothing(self):
        stream = ArrivalStream(QUIET, np.random.default_rng(0), 20)
        for _ in range(20):
            tasks, sources = as_objects(generate_arrivals(stream))
            assert tasks == [] and sources == []

    def test_fixed_seed_reproducible(self):
        wl = WorkloadConfig()
        a = as_objects(generate_arrivals(ArrivalStream(wl, np.random.default_rng(42))))
        b = as_objects(generate_arrivals(ArrivalStream(wl, np.random.default_rng(42))))
        assert a == b

    def test_sample_mean_matches_poisson_rate(self):
        wl = WorkloadConfig(task_arrival_rate=3.0, source_arrival_rate=0.0)
        stream = ArrivalStream(wl, np.random.default_rng(7), 10_000)
        total = sum(len(generate_arrivals(stream)[0]) for _ in range(10_000))
        assert 2.9 <= total / 10_000 <= 3.1

    def test_monotone_identifiers(self):
        wl = WorkloadConfig()
        stream = ArrivalStream(wl, np.random.default_rng(1), 10)
        next_t, next_s = 0, 0
        seen_t, seen_s = [], []
        for _ in range(10):
            tasks, sources = as_objects(generate_arrivals(stream, next_t, next_s))
            seen_t += [t.task_id for t in tasks]
            seen_s += [s.source_id for s in sources]
            next_t += len(tasks)
            next_s += len(sources)
        assert seen_t == sorted(set(seen_t))
        assert seen_s == sorted(set(seen_s))

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
    "lease-heavy": (WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0)), False),
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


def record_aging(monkeypatch):
    """Record (pending tasks aged, ids of those that expired) per ``_age_state`` call."""
    calls = []
    age = simulator._age_state

    def recording(state):
        aged = len(state.pending)
        expired = age(state)
        calls.append((aged, expired.ids.tolist()))
        return expired

    monkeypatch.setattr(simulator, "_age_state", recording)
    return calls


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
        assert state.matched_tasks == 1
        assert state.migrated_tasks == 0
        report = state.report()
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
        assert state.migrated_tasks == 1
        assert state.migrated_value_cum == pytest.approx(4.0)
        assert len(state.pending) == 0

    def test_no_sources_w3_defers_twice_then_escalates(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=3))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=50.0, cycles_required=100.0, value=4.0)])
        step_crl(state)
        assert state.migrated_tasks == 0 and len(state.pending) == 1
        assert state.pending.deferred[0] == 1
        step_crl(state)
        assert state.migrated_tasks == 0 and state.pending.deferred[0] == 2
        step_crl(state)
        assert state.migrated_tasks == 1 and len(state.pending) == 0

    def test_expired_pending_task_escalates(self):
        config = SimConfig(workload=QUIET, weights=WeightsConfig(max_rounds_w=5))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=1.5, cycles_required=100.0, value=4.0)])
        step_crl(state)  # unmatched; deadline lookahead escalates
        assert state.migrated_tasks == 1

    @pytest.mark.parametrize("deadline", [1.5, 2.0])
    def test_task_past_its_deadline_escalates_at_aging(self, deadline, monkeypatch):
        # Only a task put into pending by hand can reach aging with a deadline
        # <= step_seconds; it leaves at aging, so the round never sees it,
        # though the pool's source could have served it.
        config = SimConfig(workload=QUIET, step_seconds=2.0, weights=WeightsConfig(max_rounds_w=5))
        state = SimState(config)
        state.pending = table_of(TaskQueue, [Task(task_id=0, owner_id=1, deadline_s=deadline, cycles_required=10.0, value=4.0)])
        state.pool = table_of(SourcePool, [SourceNode(source_id=0, owner_id=2, idle_seconds=50.0, cycles_per_second=100.0)])
        aging = record_aging(monkeypatch)
        step_crl(state)
        assert aging == [(1, [0])]
        assert state.migrated_tasks == 1 and state.migrated_value_cum == 4.0
        assert (state.samples[0].matched, state.samples[0].deferred, state.samples[0].migrated) == (0, 0, 1)
        assert state.matched_tasks == 0 and len(state.pending) == 0

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
        assert state.migrated_tasks == state.arrived_tasks
        assert state.matched_tasks == 0

    def test_zero_tasks_no_change(self):
        config = SimConfig(workload=QUIET, policy="cloud")
        state = SimState(config)
        step_cloud(state)
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

    def test_mid_run_report_stays_as_taken(self):
        config = SimConfig(steps=10, rng_seed=1)
        state, stopped = SimState(config), SimState(config)
        for _ in range(3):
            step_crl(state)
            step_crl(stopped)
        report = state.report()
        for _ in range(3):
            step_crl(state)
        assert len(state.samples) == 6 and state.matched_tasks > report.matched_tasks
        assert report == stopped.report() and len(report.samples) == 3
        for format in ("csv", "json"):
            taken, expected = io.StringIO(), io.StringIO()
            emit_report(report, format, taken)
            emit_report(stopped.report(), format, expected)
            assert taken.getvalue() == expected.getvalue()

    def test_no_task_expires_in_the_queue(self, monkeypatch):
        # A round escalates every loser whose deadline the next aging would
        # take to 0 or below, with the same float expression, so under run()
        # aging expires nothing, whatever the step length.
        aging = record_aging(monkeypatch)
        for k, config in enumerate(random_configs()):
            step_seconds = (0.1, 0.3, 0.7, 1.0, 2.5)[k % 5]
            for policy in ("crl", "cloud"):
                run(dataclasses.replace(config, step_seconds=step_seconds, policy=policy))
        assert [ids for _, ids in aging if ids] == []
        assert sum(aged for aged, _ in aging) > 1000

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
