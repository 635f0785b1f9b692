"""Discrete-time loop binding arrivals, matching, settlement and metrics,
plus the all-to-cloud baseline policy."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

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


# Words after which a replay block takes no further step: each step's raw words,
# and _STEP_WORDS for its counts, raw array and column views (about 530 bytes).
ARRIVAL_WORDS = 12288
_STEP_WORDS = 64
# Offsets back from the end of an object's words to its uniforms.
_TASK_UNIFORMS = np.array([[3], [2], [1]])
_SOURCE_UNIFORMS = np.array([[2], [1]])


class ArrivalStream:
    """The arrival draws of one run, handed out step by step.

    ``_draw_scalars`` defines the stream.  On a PCG64 generator with
    ``device_count < 2**32``, ``_replay`` draws a block of steps at once, bit
    for bit the same, never past ``steps`` steps in all and holding at most
    ``ARRIVAL_WORDS`` words plus one step's: about 71 steps at the default
    rates, 10 at 16 times the source rate, 192 with no arrivals.  When no
    drawn step is left to hand out the generator is where the scalar draws
    would have left it; in between it is ahead, so the stream must be its
    only user.  Other bit generators, and owner ranges of ``2**32`` or more,
    take ``_draw_scalars`` every step.
    """

    def __init__(self, workload: WorkloadConfig, rng: np.random.Generator, steps: int = 1):
        self.workload = workload
        self.rng = rng
        self.steps_left = steps
        self.buffered = []  # drawn steps not yet handed out, the next one last
        bounds = np.array([workload.deadline_range, workload.cycles_range, workload.value_range,
                           workload.idle_range, workload.rate_range], dtype=np.float64)
        lows, widths = bounds[:, :1], bounds[:, 1:] - bounds[:, :1]
        # Tasks', then sources' (lows, widths, uniform offsets), one row per float column.
        self.uniforms = ((lows[:3], widths[:3], _TASK_UNIFORMS), (lows[3:], widths[3:], _SOURCE_UNIFORMS))

    def draw(self):
        """The next step's task owners, the tasks' (deadline, cycles, value)
        rows, source owners and the sources' (idle, rate) rows."""
        if not self.buffered:
            bitgen = self.rng.bit_generator
            if type(bitgen) is np.random.PCG64 and self.workload.device_count < 2**32:
                self.buffered = self._replay(bitgen, max(self.steps_left, 1))[::-1]
            else:
                self.buffered = [_draw_scalars(self.workload, self.rng, *self._counts())]
            self.steps_left -= len(self.buffered)
        return self.buffered.pop()

    def _counts(self):
        rng, workload = self.rng, self.workload
        return int(rng.poisson(workload.task_arrival_rate)), int(rng.poisson(workload.source_arrival_rate))

    def _replay(self, bitgen, limit):
        """A block of up to ``limit`` steps from raw PCG64 words, as ``_draw_scalars`` would draw them.

        It follows numpy's Generator: ``uniform(lo, hi)`` takes one 64-bit
        word ``w`` and gives ``lo + (hi - lo) * ((w >> 11) * 2**-53)``, and
        ``poisson`` takes whole words too.  ``integers(0, n)`` takes one
        32-bit half: the cached high half of an earlier word if there is one,
        else the low half of a fresh word whose high half it caches.  Only
        ``integers`` reads or writes that cache; ``random_raw`` leaves it
        alone.  So each step draws its two counts, then with ``random_raw``
        exactly the words its scalar draws would take, the cache's parity
        carried from step to step, until the block holds ``ARRIVAL_WORDS``
        words; the owners of the whole block take the halves in one sequence;
        and the cache is written back once.  None of this depends on where a
        block ends.  The half ``x`` gives ``(x * n) >> 32``, unless Lemire's
        test ``(x * n) mod 2**32 < 2**32 mod n`` rejects it and draws again;
        ``n == 1`` draws nothing.  On a rejection (probability below n / 2**32
        per owner) the steps before it are drawn again, and that step by
        ``_draw_scalars``, which ends the block.  ``WorkloadConfig`` keeps
        every bound finite and every low >= 0, so every width is finite too.
        """
        n, raw = self.workload.device_count, bitgen.random_raw
        saved = bitgen.state
        # Object k of the block (each step's tasks, then its sources) takes
        # taken[k] words: its owner's fresh word, if any, then one word per
        # uniform.  Owners alternate between a fresh word and the half it
        # cached, so with the cache set at the start objects 1, 3, ... take
        # fresh words, else objects 0, 2, ...
        cached = saved["has_uint32"] if n > 1 else 0
        parity, counts, words, held = cached, [], [], 0
        while held < ARRIVAL_WORDS and len(words) < limit:
            n_tasks, n_sources = self._counts()
            fresh = (n_tasks + n_sources + 1 - parity) >> 1 if n > 1 else 0
            words.append(raw(3 * n_tasks + 2 * n_sources + fresh))
            held += len(words[-1]) + _STEP_WORDS
            parity ^= (n_tasks + n_sources) & 1
            counts += n_tasks, n_sources
        words = np.concatenate(words)
        taken = np.repeat((3, 2) * (len(counts) // 2), counts)
        is_task = taken == 3
        if n > 1:
            taken[cached::2] += 1
        end = taken.cumsum()
        if n > 1:
            # The 32-bit halves in the order next_uint32 hands them out: the cached
            # one, then low and high half of each fresh word; the cache keeps the last.
            halves = words[(end - taken)[cached::2]].astype("<u8", copy=False).view("<u4")
            halves = np.concatenate((np.array([saved["uinteger"]], dtype=np.uint64), halves))
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = parity, int(halves[-1])
            scaled = halves[1 - cached:1 - cached + len(taken)]
            scaled *= np.uint64(n)
            rejected = scaled.astype(np.uint32) < np.uint32((2**32 - n) % n)
            if rejected.any():
                # Replay the steps before the rejected one again, then draw that one.
                step = int(np.searchsorted(np.cumsum(counts)[1::2], rejected.argmax(), "right"))
                bitgen.state = saved
                steps = self._replay(bitgen, step) if step else []
                return steps + [_draw_scalars(self.workload, self.rng, *self._counts())]
            bitgen.state = state
            scaled >>= np.uint64(32)
            owners = scaled.view(np.int64)
        else:
            owners = np.zeros(len(taken), dtype=np.int64)
        # The owners are drawn, so the words become uniforms in place.
        words >>= np.uint64(11)
        unit = np.multiply(words, 2.0**-53, out=words.view(np.float64))
        cols = []
        for rows, (lows, widths, offsets) in zip((is_task, ~is_task), self.uniforms):
            col = unit[end[rows] - offsets]
            col *= widths
            col += lows
            cols.append(col)
        # A step's tasks t:t_end and sources s:s_end are objects t + s:t_end + s and t_end + s:t_end + s_end.
        (task_cols, source_cols), steps, t, s = cols, [], 0, 0
        for t_end, s_end in zip(accumulate(counts[0::2]), accumulate(counts[1::2])):
            steps.append((owners[t + s:t_end + s], task_cols[:, t:t_end], owners[t_end + s:t_end + s_end], source_cols[:, s:s_end]))
            t, s = t_end, s_end
        return steps


_SETTLED_STEP = SettlementRecord._fields.index("step")
_NO_TASKS = TaskQueue._columns(TaskQueue())  # shared, as a TaskQueue never writes a column in place


@dataclass
class SimState:
    """Mutable state threaded through the per-step loop of a single run.

    ``arrivals`` alone draws from a generator seeded with ``config.rng_seed``,
    at most ``config.steps`` steps ahead.  ``ledger`` maps a device to its
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
        self.arrivals = ArrivalStream(self.config.workload, np.random.default_rng(self.config.rng_seed), self.config.steps)

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


def _draw_scalars(workload, rng, n_tasks, n_sources):
    """The arrival stream: one scalar draw per field, task by task, then source by source.

    Each object draws its owner, then one uniform per float field in column
    order.  Returns the columns of one step of ``ArrivalStream.draw``.
    """
    drawn = []
    for count, ranges in ((n_tasks, (workload.deadline_range, workload.cycles_range, workload.value_range)),
                          (n_sources, (workload.idle_range, workload.rate_range))):
        owners, rows = np.empty(count, dtype=np.int64), np.empty((len(ranges), count))
        for k in range(count):
            owners[k] = rng.integers(0, workload.device_count)
            for row, bounds in zip(rows, ranges):
                row[k] = rng.uniform(*bounds)
        drawn += owners, rows
    return drawn


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
