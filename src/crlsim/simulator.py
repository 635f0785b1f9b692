"""Discrete-time loop binding arrivals, matching, settlement and metrics,
plus the all-to-cloud baseline policy."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ColumnLog, SourcePool, TaskQueue, WeightsConfig, bounded, check_config
from .matching import full_round, classify_unmatched
from .settlement import SettlementRecord, apply_settlement
from .metrics import SimReport, StepSample, AssignmentRecord, idle_capacity

POLICIES = ("crl", "cloud")

# The largest mean Generator.poisson accepts; above it numpy raises "lam value
# too large".  numpy derives it from the C long range with this expression.
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival rates and uniform (low, high) field ranges for the synthetic workload."""

    task_arrival_rate: float = bounded(10.0, 0.0, POISSON_LAM_MAX)
    source_arrival_rate: float = bounded(30.0, 0.0, POISSON_LAM_MAX)
    cycles_range: tuple[float, float] = bounded((200.0, 3000.0), 0.0, above=True)
    value_range: tuple[float, float] = bounded((1.0, 10.0), 0.0)
    deadline_range: tuple[float, float] = bounded((5.0, 40.0), 0.0, above=True)
    idle_range: tuple[float, float] = bounded((40.0, 80.0), 0.0)
    rate_range: tuple[float, float] = bounded((5.0, 40.0), 0.0, above=True)
    # Owners are drawn with numpy's integers(0, device_count), which takes no bound above 2**63.
    device_count: int = bounded(30, 1, 2**63)

    def __post_init__(self):
        check_config(self)


@dataclass(frozen=True)
class SimConfig:
    steps: int = bounded(200, 1)
    step_seconds: float = bounded(1.0, 0.0, above=True)
    rng_seed: int = bounded(1, 0)
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    policy: str = "crl"

    def __post_init__(self):
        check_config(self)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")


# Objects after which a block of arrival steps takes no further step: a block
# takes max(1, ARRIVAL_OBJECTS // (task rate + source rate + 1)) steps.
ARRIVAL_OBJECTS = 4096


class ArrivalStream:
    """The arrival draws of a run of ``steps`` steps, handed out step by step.

    Nine generators spawned from ``seed`` draw one column each: the task
    count, the source count, the task owner, deadline, cycles and value,
    and the source owner, idle time and rate.  A block of steps draws each
    count column with one call, then each field column with one call over
    the block's objects.  Each column has its own generator, so the draws
    do not depend on where a block ends.  A block takes at most
    ``ARRIVAL_OBJECTS`` objects' worth of steps at the mean rates, at least
    one step, and never a step past ``steps``.
    """

    def __init__(self, workload: WorkloadConfig, seed: int, steps: int = 1):
        self.workload = workload
        self.steps_left = steps
        self.rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(9)]
        self.block = []  # per kind: owners, field rows and each step's end, after a leading 0
        self.step = self.block_steps = 0

    def draw(self):
        """The next step's task owners, the tasks' (deadline, cycles, value)
        rows, source owners and the sources' (idle, rate) rows."""
        if self.step == self.block_steps:
            self._draw_block()
        k = self.step
        self.step += 1
        drawn = []
        for owners, rows, ends in self.block:
            drawn += owners[ends[k]:ends[k + 1]], rows[:, ends[k]:ends[k + 1]]
        return drawn

    def _draw_block(self):
        workload = self.workload
        rates = workload.task_arrival_rate, workload.source_arrival_rate
        steps = min(max(self.steps_left, 1), max(1, int(ARRIVAL_OBJECTS // (sum(rates) + 1))))
        self.steps_left -= steps
        self.step, self.block_steps, self.block = 0, steps, []
        # Per kind, tasks then sources: its field ranges, and its owner and field generators.
        kinds = (((workload.deadline_range, workload.cycles_range, workload.value_range), self.rngs[2:6]),
                 ((workload.idle_range, workload.rate_range), self.rngs[6:]))
        for count_rng, rate, (ranges, (owner_rng, *field_rngs)) in zip(self.rngs[:2], rates, kinds):
            ends = [0, *np.cumsum(count_rng.poisson(rate, steps)).tolist()]
            owners = owner_rng.integers(0, workload.device_count, ends[-1])
            rows = np.array([rng.uniform(low, high, ends[-1]) for rng, (low, high) in zip(field_rngs, ranges)])
            self.block.append((owners, rows, ends))


_SETTLED_STEP = SettlementRecord._fields.index("step")
_NO_TASKS = TaskQueue._columns(TaskQueue())  # shared, as a TaskQueue never writes a column in place


@dataclass
class SimState:
    """Mutable state threaded through the per-step loop of a single run.

    ``arrivals`` draws the run's arrivals from ``config.rng_seed``, never a
    step past ``config.steps``.  ``ledger`` maps a device to its
    priority balance.  ``settlement_log`` and ``lease_log`` hold one tuple of
    numpy columns per lease round, in the field order of ``SettlementRecord``
    and ``AssignmentRecord``; a round's two tuples may share an array, and
    ``report`` joins each log into new arrays.  ``samples`` holds one sample
    per step taken and is the run's only tally: the step is its index, and
    ``report`` sums its matched and migrated counts.
    """

    config: SimConfig
    pending: TaskQueue = field(default_factory=TaskQueue)
    pool: SourcePool = field(default_factory=SourcePool)
    ledger: dict[int, float] = field(default_factory=dict)
    samples: list[StepSample] = field(default_factory=list)
    settlement_log: list[tuple] = field(default_factory=list)
    lease_log: list[tuple] = field(default_factory=list)
    next_source_id: int = 0
    arrived_tasks: int = 0
    arrivals: ArrivalStream = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.arrivals = ArrivalStream(self.config.workload, self.config.rng_seed, self.config.steps)

    def report(self) -> SimReport:
        """The run so far as a report; later steps leave it as it is."""
        return SimReport(
            policy=self.config.policy,
            seed=self.config.rng_seed,
            samples=list(self.samples),
            ledger_snapshot=dict(self.ledger),
            settlement_records=ColumnLog.join(SettlementRecord, self.settlement_log),
            assignment_records=ColumnLog.join(AssignmentRecord, self.lease_log),
            arrived_tasks=self.arrived_tasks,
            matched_tasks=sum(sample.matched for sample in self.samples),
            migrated_tasks=sum(sample.migrated for sample in self.samples),
            pending_tasks=len(self.pending),
        )


def generate_arrivals(
    stream: ArrivalStream,
    next_task_id: int = 0,
    next_source_id: int = 0,
) -> tuple[TaskQueue, SourcePool]:
    """The next step of ``stream``: its Poisson task and source arrivals.

    Identifiers continue from the supplied counters, so a fixed seed yields an
    identical arrival sequence regardless of how the arrivals get handled.
    """
    task_owners, task_rows, source_owners, source_rows = stream.draw()
    n_tasks, n_sources = len(task_owners), len(source_owners)
    # The rows are the float columns in table order, between the owners and deferred.  They
    # are indexed, not star-unpacked: iterating a 2-D array costs more than indexing its rows.
    tasks = TaskQueue(np.arange(next_task_id, next_task_id + n_tasks, dtype=np.int64), task_owners,
                      task_rows[0], task_rows[1], task_rows[2], np.zeros(n_tasks, dtype=np.int64))
    sources = SourcePool(np.arange(next_source_id, next_source_id + n_sources, dtype=np.int64), source_owners,
                         source_rows[0], source_rows[1])
    return tasks, sources


def _age_state(state: SimState) -> tuple:
    """Advance wall-clock by one step for the pooled sources; the round that
    deferred a task has already aged its deadline.

    Returns ``()``: perfbench's tracer counts its length as expired tasks,
    and Tier-1's golden pins require the aging layer to be counted.
    """
    state.pool.age(state.config.step_seconds)
    return ()


def _step(state: SimState, policy_round) -> SimState:
    """One step: arrivals, pool aging, the policy's round, then the step's sample.

    ``policy_round(state)`` empties or replaces ``state.pending``, deadlines
    aged to the next match, and returns how many it matched and the queue it
    sends to the cloud; what stays in ``state.pending`` is deferred.  The
    sample carries the migration totals on, one escalated task at a time.
    """
    new_tasks, new_sources = generate_arrivals(state.arrivals, state.arrived_tasks, state.next_source_id)
    state.next_source_id += len(new_sources.ids)  # dead arrivals take ids too
    state.arrived_tasks += len(new_tasks)

    _age_state(state)
    state.pending.extend(new_tasks)
    state.pool.extend(new_sources)

    matched, escalated = policy_round(state)
    samples = state.samples
    # The totals, StepSample's last two fields, take one float add per task in queue order: the reports pin every bit.
    value_cum, cycles_cum = samples[-1][-2:] if samples else (0.0, 0.0)
    for value, cycles in zip(escalated.value.tolist(), escalated.cycles.tolist()):
        value_cum += value
        cycles_cum += cycles
    # StepSample's fields in order, passed by position: keywords cost twice as much.
    samples.append(StepSample(len(samples), state.config.policy, idle_capacity(state.pool), matched,
                              len(state.pending), len(escalated), value_cum, cycles_cum))
    return state


def _lease_round(state: SimState) -> tuple[int, TaskQueue]:
    pool, config = state.pool, state.config
    ordered, result = full_round(state.pending, pool, state.ledger, config.weights)
    task_rows, rows = result.assignments[:, 0], result.assignments[:, 1]
    leased = ordered.take(task_rows)
    rate = pool.rate[rows]
    busy = leased.cycles / rate

    settled = apply_settlement(leased, pool.owners[rows], state.ledger, config.weights, step=len(state.samples)).columns
    state.settlement_log.append(settled)
    steps = settled[_SETTLED_STEP]
    # AssignmentRecord's columns, read before consume moves the idle times.
    state.lease_log.append((steps, leased.ids, pool.ids[rows], busy, leased.cycles, leased.deadline, pool.idle[rows], rate))
    pool.consume(rows, busy)

    state.pending, escalated = classify_unmatched(ordered, task_rows, config.weights, config.step_seconds)
    return len(leased), escalated


def _cloud_round(state: SimState) -> tuple[int, TaskQueue]:
    # Pending held nothing before this step's arrivals, so they escalate in
    # arrival order.
    escalated, state.pending = state.pending, TaskQueue(*_NO_TASKS)
    return 0, escalated


def step_crl(state: SimState) -> SimState:
    """Run one leasing round: age the pool, match, settle, consume, defer (aging the deadline) or escalate."""
    return _step(state, _lease_round)


def step_cloud(state: SimState) -> SimState:
    """Baseline: every arriving task migrates to the cloud immediately.

    Sources are never leased, so the pool only ages; under a stationary
    workload its capacity settles to a roughly constant level.
    """
    return _step(state, _cloud_round)


def run(config: SimConfig) -> SimReport:
    """Execute a full run from a fresh state; deterministic for a fixed seed."""
    state = SimState(config)
    step_fn = step_crl if config.policy == "crl" else step_cloud
    for _ in range(config.steps):
        step_fn(state)
    return state.report()
