"""The source pool holds its columns in buffers it owns and writes them in
place.  These tests step a run next to a pool that copies every change and
check that the two agree step by step, and that no other array shares the
pool's memory or is written by it."""

import dataclasses
import io

import numpy as np

from crlsim import simulator
from crlsim.matching import contending_sources
from crlsim.metrics import emit_report
from crlsim.model import DEAD_SHARE, SourcePool
from crlsim.simulator import SimConfig, SimState, WorkloadConfig, step_cloud, step_crl

from oracles import CopyingPool
from records import lease_ids
from scenarios import random_configs

# Source rate x16: a pool of thousands of sources, which grows its buffers
# several times; idle times from 0 make sources die from the first step on,
# so dead rows pile up between the live ones and age compacts them.
X16 = WorkloadConfig(source_arrival_rate=480.0, idle_range=(0.0, 20.0))


def edge_configs():
    """Idle times from 0, steps at least as long as any idle time, and a short x16 run."""
    base = SimConfig(steps=25, rng_seed=7)
    return [
        dataclasses.replace(base, workload=WorkloadConfig(idle_range=(0.0, 30.0))),
        dataclasses.replace(base, step_seconds=2.5, workload=WorkloadConfig(idle_range=(0.0, 2.0))),
        dataclasses.replace(base, step_seconds=80.0),
        dataclasses.replace(base, step_seconds=2.5, policy="cloud", workload=WorkloadConfig(idle_range=(0.0, 20.0))),
        SimConfig(steps=25, rng_seed=1, workload=X16),
    ]


def step_beside_copying_pool(config, monkeypatch):
    """Run ``config`` step by step while a CopyingPool ages, takes the same
    arrivals and serves the same leases.  Checks each round's leases and
    shortlist, that new buffers hold twice the rows packed into them, and
    after every step the live rows, ``len``, the window's dead rows and the
    sampled idle capacity.  Returns how many times the pool packed its window
    into new buffers and how many times it compacted it."""
    ref = CopyingPool()
    draw, match = simulator.generate_arrivals, simulator.full_round
    packs = {"grown": 0, "compacted": 0}

    def arrivals(*args):
        tasks, sources = draw(*args)
        ref.age(config.step_seconds)
        ref.extend(sources)
        return tasks, sources

    def full_round(queue, pool, ledger, weights):
        ref_pool = ref.table()
        ref_ordered, ref_result = match(queue, ref_pool, dict(ledger), weights)
        ordered, result = match(queue, pool, ledger, weights)
        assert lease_ids(ordered, result, pool) == lease_ids(ref_ordered, ref_result, ref_pool)
        # Over a pool with no dead row the shortlist is the exact rule.  A
        # dead row counts only in the fastest rate, and a faster one can only
        # widen the shortlist.
        short = pool.ids[contending_sources(pool, ordered)].tolist()
        ref_short = ref_pool.ids[contending_sources(ref_pool, ref_ordered)].tolist()
        if len(pool.ids) and pool.rate.max() > ref_pool.rate.max(initial=0.0):
            assert set(ref_short) <= set(short)
        else:
            assert short == ref_short
        task_rows, rows = ref_result.assignments.T
        ref.consume(rows, ref_ordered.cycles[task_rows] / ref_pool.rate[rows])
        return ordered, result

    def pack(pool, keep, rows, _pack=SourcePool._pack):
        buffers = pool._buffers
        _pack(pool, keep, rows)
        if pool._buffers is not buffers:
            packs["grown"] += 1
            assert len(pool._buffers[0]) >= 2 * rows  # doubling, so extend seldom grows them again
        packs["compacted"] += isinstance(keep, np.ndarray)

    monkeypatch.setattr(simulator, "generate_arrivals", arrivals)
    monkeypatch.setattr(simulator, "full_round", full_round)
    monkeypatch.setattr(SourcePool, "_pack", pack)
    state = SimState(config)
    step = step_crl if config.policy == "crl" else step_cloud
    for _ in range(config.steps):
        step(state)
        pool = state.pool
        live = pool.take(pool.idle > 0.0)
        for column, ref_column in zip(live._columns(live), ref.columns):
            assert column.dtype == ref_column.dtype and np.array_equal(column, ref_column)
        assert len(pool) == len(ref)
        # Age leaves at most DEAD_SHARE of the window dead, and the round kills only the rows it leased.
        assert len(pool.ids) - len(pool) <= DEAD_SHARE * len(pool.ids) + state.samples[-1].matched
        assert repr(state.samples[-1].idle_capacity) == repr(ref.idle_capacity())
    monkeypatch.undo()
    return packs


def test_pool_steps_as_a_copying_pool(monkeypatch):
    packs = [step_beside_copying_pool(config, monkeypatch) for config in random_configs() + edge_configs()]
    x16 = packs[-1]
    assert x16["grown"] >= 3 and x16["compacted"] >= 1


def shares_memory(array, pool):
    """Whether ``array`` shares memory with any buffer ``pool`` owns."""
    return any(np.shares_memory(array, buffer) for buffer in pool._buffers)


def test_pool_memory_is_its_own(monkeypatch):
    arrived = []
    draw = simulator.generate_arrivals
    monkeypatch.setattr(simulator, "generate_arrivals", lambda *args: arrived.append(draw(*args)) or arrived[-1])
    state = SimState(SimConfig(steps=80, rng_seed=2, workload=X16))
    for _ in range(30):
        step_crl(state)
    report = state.report()
    taken = [io.StringIO(), io.StringIO()]
    for out, format in zip(taken, ("csv", "json")):
        emit_report(report, format, out)
    for _ in range(50):
        step_crl(state)
        pool = state.pool
        tasks, sources = arrived[-1]
        for table in (tasks, sources, pool.take(pool.idle > 0.0), pool.take(np.arange(len(pool.ids)))):
            assert not any(shares_memory(column, pool) for column in table._columns(table))
        assert not any(shares_memory(column, pool) for column in state.lease_log[-1] + state.settlement_log[-1])
    chunks = [column for chunk in state.lease_log + state.settlement_log for column in chunk]
    assert not any(shares_memory(column, state.pool) for column in chunks)
    later = state.report()
    taken_columns = report.assignment_records.columns + report.settlement_records.columns
    for column in later.assignment_records.columns + later.settlement_records.columns:
        assert not shares_memory(column, state.pool)
        assert not any(np.shares_memory(column, other) for other in chunks + list(taken_columns))
    for column in taken_columns:
        assert not any(np.shares_memory(column, chunk) for chunk in chunks)
    for out, format in zip(taken, ("csv", "json")):
        again = io.StringIO()
        emit_report(report, format, again)
        assert again.getvalue() == out.getvalue()


def test_pool_never_writes_the_columns_it_was_given():
    # Read-only columns: a write in place would raise.
    given = [np.arange(4), np.arange(10, 14), np.array([1.0, 5.0, 0.5, 6.0]), np.full(4, 2.0)]
    arrivals = [np.arange(4, 6), np.arange(14, 16), np.array([3.0, 4.0]), np.full(2, 2.0)]
    for column in given + arrivals:
        column.flags.writeable = False
    SourcePool(*given).age(1.0)
    SourcePool(*given).extend(SourcePool(*arrivals))
    pool = SourcePool(*given)
    pool.consume(np.array([1]), np.array([1.0]))
    pool.age(1.0)
    pool.extend(SourcePool(*arrivals))
    pool.consume(np.array([0, 2]), np.array([1.0, 1.0]))
    assert pool.ids.tolist() == [1, 3, 4, 5] and pool.idle.tolist() == [2.0, 5.0, 2.0, 4.0]
    assert len(pool) == 4
    assert not any(shares_memory(column, pool) for column in given + arrivals)
    # The shared empty columns of a new pool are copied on the first write too.
    empty = SourcePool()
    empty.extend(SourcePool(*arrivals))
    empty.age(1.0)
    assert SourcePool().idle.tolist() == [] and empty.idle.tolist() == [2.0, 3.0]
