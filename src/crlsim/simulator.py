"""Discrete-time loop binding arrivals, matching, settlement and metrics,
plus the all-to-cloud baseline policy."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .model import Task, SourceNode, SourcePool, TaskQueue, WeightsConfig, check_config_numbers
from .matching import full_round, classify_unmatched
from .settlement import PriorityLedger, SettlementRecord, apply_settlement
from .metrics import SimReport, StepSample, AssignmentRecord, idle_capacity

POLICIES = ("crl", "cloud")

# The largest mean Generator.poisson accepts; above it numpy raises "lam value
# too large".  numpy derives it from the C long range with this expression.
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival rates and uniform (low, high) field ranges for the synthetic workload."""

    task_arrival_rate: float = 10.0
    source_arrival_rate: float = 30.0
    cycles_range: tuple[float, float] = (200.0, 3000.0)
    value_range: tuple[float, float] = (1.0, 10.0)
    deadline_range: tuple[float, float] = (5.0, 40.0)
    idle_range: tuple[float, float] = (40.0, 80.0)
    rate_range: tuple[float, float] = (5.0, 40.0)
    device_count: int = 30

    def __post_init__(self):
        check_config_numbers(self)
        for name in ("task_arrival_rate", "source_arrival_rate"):
            rate = getattr(self, name)
            if not 0 <= rate <= POISSON_LAM_MAX:
                raise ValueError(f"{name} must be in [0, {POISSON_LAM_MAX!r}], got {rate}")
        if self.device_count < 1:
            raise ValueError("device_count must be >= 1")
        for f in fields(self):
            if isinstance(f.default, tuple):
                lo, hi = getattr(self, f.name)
                if lo > hi:
                    raise ValueError(f"{f.name}: lower bound {lo} exceeds upper bound {hi}")
                if lo <= 0 and f.name in ("cycles_range", "deadline_range", "rate_range"):
                    raise ValueError(f"{f.name}: lower bound must be > 0")
                if lo < 0:
                    raise ValueError(f"{f.name}: lower bound must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    steps: int = 200
    step_seconds: float = 1.0
    rng_seed: int = 1
    weights: WeightsConfig = field(default_factory=WeightsConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    policy: str = "crl"

    def __post_init__(self):
        check_config_numbers(self)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.step_seconds <= 0:
            raise ValueError(f"step_seconds must be > 0, got {self.step_seconds}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")


@dataclass
class SimState:
    """Mutable state threaded through the per-step loop of a single run."""

    config: SimConfig
    rng: np.random.Generator
    step: int = 0
    pending: TaskQueue = field(default_factory=TaskQueue)
    pool: SourcePool = field(default_factory=SourcePool)
    ledger: PriorityLedger = field(default_factory=PriorityLedger)
    samples: list[StepSample] = field(default_factory=list)
    settlement_records: list[SettlementRecord] = field(default_factory=list)
    assignment_records: list[AssignmentRecord] = field(default_factory=list)
    next_task_id: int = 0
    next_source_id: int = 0
    arrived_tasks: int = 0
    matched_tasks: int = 0
    migrated_tasks: int = 0
    migrated_value_cum: float = 0.0
    migrated_cycles_cum: float = 0.0


def generate_arrivals(
    workload: WorkloadConfig,
    rng: np.random.Generator,
    next_task_id: int = 0,
    next_source_id: int = 0,
) -> tuple[TaskQueue, SourcePool]:
    """Draw one step's Poisson task and source arrivals.

    Identifiers continue from the supplied counters, so a fixed seed yields an
    identical arrival sequence regardless of how the arrivals get handled.
    ``_draw_objects`` defines the random stream; on a PCG64 generator
    ``_replay_pcg64`` reproduces it bit for bit, generator state included,
    from one block of raw words.
    """
    n_tasks = int(rng.poisson(workload.task_arrival_rate))
    n_sources = int(rng.poisson(workload.source_arrival_rate))
    drawn = _replay_pcg64(workload, rng.bit_generator, n_tasks, n_sources)
    if drawn is None:
        return _draw_objects(workload, rng, n_tasks, n_sources, next_task_id, next_source_id)
    task_owners, (deadline, cycles, value), source_owners, (idle, rate) = drawn
    tasks = TaskQueue(
        ids=np.arange(next_task_id, next_task_id + n_tasks, dtype=np.int64),
        owners=task_owners,
        deadline=deadline,
        cycles=cycles,
        value=value,
        deferred=np.zeros(n_tasks, dtype=np.int64),
    )
    sources = SourcePool(
        ids=np.arange(next_source_id, next_source_id + n_sources, dtype=np.int64),
        owners=source_owners,
        idle=idle,
        rate=rate,
    )
    return tasks, sources


def _draw_objects(workload, rng, n_tasks, n_sources, next_task_id, next_source_id):
    """The arrival stream: one scalar draw per field, task by task, then source by source."""
    tasks = []
    for k in range(n_tasks):
        tasks.append(
            Task(
                task_id=next_task_id + k,
                owner_id=int(rng.integers(0, workload.device_count)),
                deadline_s=float(rng.uniform(*workload.deadline_range)),
                cycles_required=float(rng.uniform(*workload.cycles_range)),
                value=float(rng.uniform(*workload.value_range)),
            )
        )
    sources = []
    for k in range(n_sources):
        sources.append(
            SourceNode(
                source_id=next_source_id + k,
                owner_id=int(rng.integers(0, workload.device_count)),
                idle_seconds=float(rng.uniform(*workload.idle_range)),
                cycles_per_second=float(rng.uniform(*workload.rate_range)),
            )
        )
    return TaskQueue.of(tasks), SourcePool.of(sources)


# Offsets back from the end of an object's block of words to its uniforms.
_TASK_UNIFORMS = np.array([[3], [2], [1]])
_SOURCE_UNIFORMS = np.array([[2], [1]])


def _replay_pcg64(workload, bitgen, n_tasks, n_sources):
    """The columns ``_draw_objects`` would draw, from raw PCG64 words; None if it cannot.

    Returns the task owners, the tasks' (deadline, cycles, value) rows, the
    source owners and the sources' (idle, rate) rows, and leaves ``bitgen``
    in the state the scalar draws would have left it in.  It follows numpy's
    Generator: ``uniform(lo, hi)`` takes one 64-bit word ``w`` and gives ``lo
    + (hi - lo) * ((w >> 11) * 2**-53)``.  ``integers(0, n)`` takes one 32-bit
    half: the cached high half of an earlier word if there is one, else the
    low half of a fresh word whose high half it caches; ``uniform`` leaves
    that cache alone.  The half ``x`` gives ``(x * n) >> 32``, unless Lemire's
    test ``(x * n) mod 2**32 < 2**32 mod n`` rejects it and draws again;
    ``n == 1`` draws nothing.  A rejection (probability below n / 2**32 per
    draw), another bit generator or ``n >= 2**32`` gives None, with the state
    as it was.  ``WorkloadConfig`` keeps every bound finite and every low >=
    0, so every width ``hi - lo`` is finite too.
    """
    n = workload.device_count
    if type(bitgen) is not np.random.PCG64 or n >= 2**32:
        return None
    bounds = np.array([workload.deadline_range, workload.cycles_range, workload.value_range,
                       workload.idle_range, workload.rate_range], dtype=np.float64)
    lows, widths = bounds[:, :1], bounds[:, 1:] - bounds[:, :1]
    saved = bitgen.state
    n_objects = n_tasks + n_sources
    draws_ints = n > 1 and n_objects > 0
    cached = saved["has_uint32"] if draws_ints else 0

    # Object k (tasks first) takes a block of words: its int's fresh word, if
    # any, then one word per uniform.  Ints alternate between a fresh word and
    # the half it cached, so objects cached, cached + 2, ... take fresh words.
    block = np.repeat((3, 2), (n_tasks, n_sources))
    if draws_ints:
        block[cached::2] += 1
    end = block.cumsum()
    words = bitgen.random_raw(int(end[-1]) if n_objects else 0)
    unit = (words >> np.uint64(11)) * 2.0**-53
    task_cols = lows[:3] + widths[:3] * unit[end[:n_tasks] - _TASK_UNIFORMS]
    source_cols = lows[3:] + widths[3:] * unit[end[n_tasks:] - _SOURCE_UNIFORMS]
    if not draws_ints:
        owners = np.zeros(n_objects, dtype=np.int64)
        return owners[:n_tasks], task_cols, owners[n_tasks:], source_cols

    # The 32-bit halves in the order next_uint32 hands them out: the cached
    # one, then low and high half of each fresh word.
    fresh = words[(end - block)[cached::2]].astype("<u8", copy=False).view("<u4")
    halves = np.concatenate(([saved["uinteger"]], fresh)) if cached else fresh
    scaled = halves[:n_objects].astype(np.uint64) * np.uint64(n)
    if ((scaled & np.uint64(0xFFFFFFFF)) < np.uint64((2**32 - n) % n)).any():
        bitgen.state = saved
        return None
    state = bitgen.state
    state["has_uint32"] = len(halves) - n_objects
    state["uinteger"] = int(halves[-1])
    bitgen.state = state
    owners = (scaled >> np.uint64(32)).astype(np.int64)
    return owners[:n_tasks], task_cols, owners[n_tasks:], source_cols


def _age_state(state: SimState) -> TaskQueue:
    """Advance wall-clock by one step for carried-over tasks and sources.

    Returns pending tasks whose deadline expired while waiting; they can no
    longer be finished by any source and escalate straight to the cloud.
    """
    dt = state.config.step_seconds
    state.pool.age(dt)
    return state.pending.age(dt)


def _escalate(state: SimState, tasks: TaskQueue):
    # One float add at a time, in queue order: the reports pin every bit.
    state.migrated_tasks += len(tasks)
    for value, cycles in zip(tasks.value.tolist(), tasks.cycles.tolist()):
        state.migrated_value_cum += value
        state.migrated_cycles_cum += cycles


def _step(state: SimState, config: SimConfig, policy_round) -> SimState:
    """One step: arrivals, aging, the policy's round, then the step's sample.

    ``policy_round(state, config)`` empties or replaces ``state.pending`` and
    returns how many tasks it matched and how many it deferred.
    """
    migrated_before = state.migrated_tasks

    new_tasks, new_sources = generate_arrivals(
        config.workload, state.rng, state.next_task_id, state.next_source_id
    )
    state.next_task_id += len(new_tasks)
    state.next_source_id += len(new_sources)
    state.arrived_tasks += len(new_tasks)

    _escalate(state, _age_state(state))
    state.pending.extend(new_tasks)
    state.pool.extend(new_sources)

    matched, deferred = policy_round(state, config)
    state.samples.append(
        StepSample(
            step=state.step,
            policy=state.config.policy,
            idle_capacity=idle_capacity(state.pool),
            matched=matched,
            deferred=deferred,
            migrated=state.migrated_tasks - migrated_before,
            migrated_value_cum=state.migrated_value_cum,
            migrated_cycles_cum=state.migrated_cycles_cum,
        )
    )
    state.step += 1
    return state


def _lease_round(state: SimState, config: SimConfig) -> tuple[int, int]:
    pool = state.pool
    ordered, result = full_round(state.pending, pool, state.ledger, config.weights)
    task_rows, rows = result.assignments.T
    leased = ordered.take(task_rows)
    busy = leased.cycles / pool.rate[rows]

    records = apply_settlement(leased, pool.owners[rows], state.ledger, config.weights, step=state.step)
    state.settlement_records.extend(records)
    # Columns in AssignmentRecord's field order, read before consume moves the idle times.
    lease_columns = (leased.ids, pool.ids[rows], busy, leased.cycles, leased.deadline, pool.idle[rows], pool.rate[rows])
    state.assignment_records.extend(
        AssignmentRecord(state.step, *lease) for lease in zip(*(column.tolist() for column in lease_columns))
    )
    state.matched_tasks += len(leased)
    pool.consume(rows, busy)

    left = np.ones(len(ordered), dtype=bool)
    left[task_rows] = False
    deferred, big = classify_unmatched(ordered.take(left), config.weights, config.step_seconds)
    _escalate(state, big)
    state.pending = deferred
    return len(leased), len(deferred)


def _cloud_round(state: SimState, config: SimConfig) -> tuple[int, int]:
    # Pending held nothing before this step's arrivals, so they escalate in
    # arrival order.
    _escalate(state, state.pending)
    state.pending = TaskQueue()
    return 0, 0


def step_crl(state: SimState, config: SimConfig) -> SimState:
    """Run one leasing round: age, match, settle, consume, defer or escalate."""
    return _step(state, config, _lease_round)


def step_cloud(state: SimState, config: SimConfig) -> SimState:
    """Baseline: every arriving task migrates to the cloud immediately.

    Sources are never leased, so the pool only ages; under a stationary
    workload its capacity settles to a roughly constant level.
    """
    return _step(state, config, _cloud_round)


def run(config: SimConfig) -> SimReport:
    """Execute a full run from a fresh state; deterministic for a fixed seed."""
    state = SimState(config=config, rng=np.random.default_rng(config.rng_seed))
    step_fn = step_crl if config.policy == "crl" else step_cloud
    for _ in range(config.steps):
        step_fn(state, config)
    return SimReport(
        policy=config.policy,
        seed=config.rng_seed,
        samples=state.samples,
        ledger_snapshot=state.ledger.snapshot(),
        settlement_records=state.settlement_records,
        assignment_records=state.assignment_records,
        arrived_tasks=state.arrived_tasks,
        matched_tasks=state.matched_tasks,
        migrated_tasks=state.migrated_tasks,
        pending_tasks=len(state.pending),
    )
