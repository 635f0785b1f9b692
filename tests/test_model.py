import random

import numpy as np
import pytest

from crlsim.model import DEAD_SHARE, ColumnLog, SourcePool, TaskQueue, WeightsConfig
from crlsim.settlement import SettlementRecord
from crlsim.simulator import SimConfig, SimState, WorkloadConfig, step_crl

from oracles import compute_matching_priority, compute_settlement_amount
from records import SourceNode, Task, nodes_of, table_of, tasks_of


def make_task(task_id=0, owner=0, deadline=10.0, cycles=1.0, value=1.0, **kw):
    return Task(task_id=task_id, owner_id=owner, deadline_s=deadline,
                cycles_required=cycles, value=value, **kw)


HALVES = WeightsConfig(gamma_t=0.5, gamma_p=0.5, gamma_n=0.5, gamma_m=0.5, conversion_rate_r=1.0)


def make_pool(*idle):
    return table_of(SourcePool, [SourceNode(source_id=i, owner_id=10 + i, idle_seconds=e, cycles_per_second=2.0)
                                 for i, e in enumerate(idle)])


class TestSourcePool:
    def test_of_sorts_by_id_and_nodes_round_trip(self):
        nodes = [SourceNode(source_id=sid, owner_id=sid + 1, idle_seconds=1.5 * sid, cycles_per_second=2.0)
                 for sid in (7, 2, 5)]
        pool = table_of(SourcePool, nodes)
        assert pool.ids.tolist() == [2, 5, 7]
        assert nodes_of(pool) == sorted(nodes, key=lambda s: s.source_id)
        assert len(SourcePool()) == 0 and len(table_of(SourcePool, [])) == 0

    def test_age_drops_sources_left_with_no_time(self):
        pool = make_pool(0.5, 1.0, 3.0)
        pool.age(1.0)
        assert pool.ids.tolist() == [2]
        assert pool.idle.tolist() == [2.0]

    def test_consume_drops_only_exhausted_chosen_rows(self):
        pool = make_pool(0.0, 4.0, 5.0, 6.0)
        pool.consume(np.array([1, 3]), np.array([4.0, 1.5]))
        # Consume writes idle in place and moves no row.  The leased source 1
        # is left with no time and source 0 had none, so len counts neither.
        assert pool.ids.tolist() == [0, 1, 2, 3]
        assert pool.idle.tolist() == [0.0, 0.0, 5.0, 4.5]
        assert len(pool) == 2
        live = pool.take(pool.idle > 0.0)
        assert live.ids.tolist() == [2, 3] and live.idle.tolist() == [5.0, 4.5] and live.owners.tolist() == [12, 13]
        pool.age(0.0)
        assert len(pool) == 2 and pool.ids.tolist() == [2, 3]

    def test_age_keeps_dead_rows_in_order_and_compacts_past_the_share(self):
        assert 2 / 11 <= DEAD_SHARE < 3 / 12  # the shares of dead rows below
        pool = make_pool(1.0, 9.0, 1.0, 5.0, 6.0, 7.0, 8.0, 10.0, 11.0, 12.0, 13.0)
        pool.age(1.0)
        # Sources 0 and 2 die: two dead rows of eleven stay where they are,
        # and an arrival goes after them.
        assert pool.ids.tolist() == list(range(11)) and len(pool) == 9
        assert pool.idle.tolist()[:4] == [0.0, 8.0, 0.0, 4.0]
        pool.extend(make_pool(20.0))
        assert pool.ids.tolist() == list(range(11)) + [0] and len(pool) == 10
        pool.age(4.0)
        # Source 3 dies too: three dead rows of twelve, so one compaction
        # gathers the live ones in id order.
        assert len(pool) == 9 and pool.ids.tolist() == [1, 4, 5, 6, 7, 8, 9, 10, 0]
        assert pool.idle.tolist() == [4.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 16.0]
        assert pool.owners.tolist() == [11, 14, 15, 16, 17, 18, 19, 20, 10]

    def test_extend_appends_in_id_order(self):
        pool = make_pool(1.0)
        pool.extend(table_of(SourcePool, [SourceNode(source_id=4, owner_id=0, idle_seconds=2.0, cycles_per_second=3.0)]))
        assert pool.ids.tolist() == [0, 4]
        assert pool.rate.tolist() == [2.0, 3.0]

    def test_consume_after_extend_leaves_the_arrivals_alone(self):
        # An empty pool adopts the arrivals' columns, so consume must not write them in place.
        new = make_pool(5.0)
        pool = SourcePool()
        pool.extend(new)
        pool.consume(np.array([0]), np.array([1.0]))
        assert pool.idle.tolist() == [4.0]
        assert new.idle.tolist() == [5.0]


class TestTaskQueue:
    def test_of_keeps_order_and_tasks_round_trip(self):
        tasks = [make_task(task_id=tid, owner=tid + 1, deadline=2.5 * tid, cycles=3.0, value=0.5,
                           rounds_deferred=tid % 2) for tid in (7, 2, 5)]
        queue = table_of(TaskQueue, tasks)
        assert queue.ids.tolist() == [7, 2, 5]
        assert tasks_of(queue) == tasks
        assert len(TaskQueue()) == 0 and len(table_of(TaskQueue, [])) == 0 and tasks_of(TaskQueue()) == []

    def test_take_by_mask_and_by_rows(self):
        queue = table_of(TaskQueue, [make_task(task_id=tid) for tid in range(4)])
        assert queue.take(queue.ids % 2 == 1).ids.tolist() == [1, 3]
        assert queue.take([3, 0]).ids.tolist() == [3, 0]
        assert len(queue) == 4

    def test_extend_appends_after_current_rows(self):
        queue = table_of(TaskQueue, [make_task(task_id=9)])
        queue.extend(table_of(TaskQueue, [make_task(task_id=3, cycles=2.0)]))
        assert queue.ids.tolist() == [9, 3]
        assert queue.cycles.tolist() == [1.0, 2.0]


class TestWeightsInvariants:
    @pytest.mark.parametrize("field,value", [
        ("gamma_t", -0.1), ("gamma_p", 1.5), ("gamma_n", 2.0), ("gamma_m", -1.0),
        ("conversion_rate_r", 0.0), ("max_rounds_w", 0),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            WeightsConfig(**{field: value})


class TestMatchingPriority:
    def test_zero_case(self):
        t = make_task(value=0.0, cycles=5.0)
        assert compute_matching_priority(t, 0.0, HALVES) == 0.0

    def test_monotone_in_value_and_balance(self):
        rng = random.Random(7)
        for _ in range(200):
            w = WeightsConfig(gamma_t=rng.random(), gamma_p=rng.random())
            cycles = rng.uniform(0.1, 100)
            value = rng.uniform(0, 50)
            bal = rng.uniform(-10, 10)
            base = compute_matching_priority(make_task(value=value, cycles=cycles), bal, w)
            more_value = compute_matching_priority(make_task(value=value + 1, cycles=cycles), bal, w)
            more_bal = compute_matching_priority(make_task(value=value, cycles=cycles), bal + 1, w)
            assert more_value >= base
            assert more_bal >= base

    def test_scale_free_in_value_cycles(self):
        rng = random.Random(11)
        for _ in range(100):
            value = rng.uniform(0.1, 10)
            cycles = rng.uniform(0.1, 10)
            k = rng.uniform(0.5, 4)
            bal = rng.uniform(-5, 5)
            a = compute_matching_priority(make_task(value=value, cycles=cycles), bal, HALVES)
            b = compute_matching_priority(make_task(value=k * value, cycles=k * cycles), bal, HALVES)
            assert b == pytest.approx(a, rel=1e-12)

    def test_pure_bitwise_identical(self):
        t = make_task(value=3.7, cycles=1.3)
        assert compute_matching_priority(t, 0.9, HALVES) == compute_matching_priority(t, 0.9, HALVES)


class TestSettlementAmount:
    def test_zero_case(self):
        t = make_task(value=0.0)
        assert compute_settlement_amount(t, 0.0, HALVES) == 0.0

    def test_linear_and_homogeneous_in_rate(self):
        rng = random.Random(3)
        for _ in range(100):
            v1, v2 = rng.uniform(0, 10), rng.uniform(0, 10)
            b1, b2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            r = rng.uniform(0.1, 5)
            w = WeightsConfig(gamma_n=0.3, gamma_m=0.7, conversion_rate_r=r)
            both = compute_settlement_amount(make_task(value=v1 + v2), b1 + b2, w)
            parts = compute_settlement_amount(make_task(value=v1), b1, w) + compute_settlement_amount(
                make_task(value=v2), b2, w
            )
            assert both == pytest.approx(parts, rel=1e-9, abs=1e-12)
            w2 = WeightsConfig(gamma_n=0.3, gamma_m=0.7, conversion_rate_r=2 * r)
            assert compute_settlement_amount(make_task(value=v1), b1, w2) == pytest.approx(
                2 * compute_settlement_amount(make_task(value=v1), b1, w), rel=1e-12
            )


class TestColumnLog:
    ROWS = [SettlementRecord(7, 1, 2, 0.5, 3), SettlementRecord(8, 2, 1, -0.0, 3, True)]

    def log(self):
        return ColumnLog(SettlementRecord, ([7, 8], [1, 2], [2, 1], [0.5, -0.0], [3, 3], [False, True]))

    def test_reads_as_its_rows(self):
        log = self.log()
        assert len(log) == 2
        assert repr(list(log)) == repr(self.ROWS)
        assert repr((log[0], log[-1])) == repr(tuple(self.ROWS))
        assert log[1:] == self.ROWS[1:] and log[1].floored
        assert log == self.ROWS and log == ColumnLog(SettlementRecord, zip(*self.ROWS))
        assert log != self.ROWS[:1] and log != [self.ROWS[1], self.ROWS[0]]
        assert (log == (1,)) is False  # neither a list nor a log

    DTYPES = [np.dtype(t) for t in (np.int64, np.int64, np.int64, np.float64, np.int64, bool)]

    def chunk(self, *rows):
        return tuple(np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows) if rows else [()] * 6, self.DTYPES))

    def test_join_concatenates_typed_arrays_and_reads_python_rows(self):
        empty = self.chunk()
        for chunks in ([self.chunk(self.ROWS[0]), empty, self.chunk(self.ROWS[1])], [empty, self.chunk(*self.ROWS), empty]):
            log = ColumnLog.join(SettlementRecord, chunks)
            assert [column.dtype for column in log.columns] == self.DTYPES
            assert log == self.ROWS and list(log) == self.ROWS
            # repr tells -0.0 from 0.0 and 1 from 1.0 or True, which == does not
            assert repr(list(log)) == repr(self.ROWS)
            assert repr((log[0], log[-1], log[1:])) == repr((self.ROWS[0], self.ROWS[-1], self.ROWS[1:]))
            types = [[type(value) for value in row] for row in (*log, log[0], log[-1])]
            assert types == [[int, int, int, float, int, bool]] * 4
        empty = ColumnLog.join(SettlementRecord, [empty, empty])
        assert [column.dtype for column in empty.columns] == self.DTYPES and empty == []

    def test_simulated_logs_keep_their_dtypes(self):
        # Rounds that lease nothing append typed empty chunks too; with no sources no round leases.
        for workload in (WorkloadConfig(), WorkloadConfig(source_arrival_rate=0.0)):
            state = SimState(SimConfig(steps=40, rng_seed=3, workload=workload))
            for _ in range(40):
                step_crl(state)
            assert any(len(chunk[0]) == 0 for chunk in state.settlement_log)
            report = state.report()
            assert [column.dtype for column in report.settlement_records.columns] == self.DTYPES
            assert [column.dtype for column in report.assignment_records.columns] == self.DTYPES[:3] + [np.dtype(np.float64)] * 5
        assert len(report.settlement_records) == 0

    def test_join_of_no_chunks_is_empty(self):
        log = ColumnLog.join(SettlementRecord, [])
        assert len(log) == 0 and list(log) == [] and log == []
