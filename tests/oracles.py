"""Independent straight-line references for the scalar formulas, one
matching round and its greedy pass over a preference matrix, the split of
its losers, one step's arrivals, a run's settlements, the source pool and a
whole run.

The round's preference for a feasible source is its rate, so each task takes
its fastest free feasible source, equal rates to the lowest source_id.  The
paper's preference value, rate / cycles, orders one task's sources the same
way except where different rates round to one quotient.

Deliberately naive: one record at a time, explicit matrices, bubble sort,
row zeroing, one scalar formula call per lease, a pool that copies its
columns on every change.  Kept free of any code from crlsim.matching and
crlsim.simulator so they can serve as oracles for them.
"""

from itertools import groupby
from operator import attrgetter

import numpy as np

from crlsim.metrics import AssignmentRecord, SimReport, StepSample
from crlsim.model import SourcePool
from crlsim.settlement import SettlementRecord

from records import SourceNode, Task


def compute_matching_priority(task, owner_priority, weights):
    """Composite priority ordering tasks each round.

    Combines the task's value per required cycle with the accumulated balance
    of its owner: gamma_t * (value / cycles) + gamma_p * balance.
    """
    return weights.gamma_t * (task.value / task.cycles_required) + weights.gamma_p * owner_priority


def compute_settlement_amount(task, owner_priority, weights):
    """Priority amount the receiver owes the provider for one completed lease.

    (gamma_n * value + gamma_m * receiver balance) * conversion_rate_r.
    """
    return (weights.gamma_n * task.value + weights.gamma_m * owner_priority) * weights.conversion_rate_r


def feasible(source, task):
    """True iff the source has enough total cycles and finishes before the deadline."""
    return (
        task.cycles_required <= source.cycles_per_second * source.idle_seconds
        and task.cycles_required / source.cycles_per_second <= task.deadline_s
    )


def oracle_round(tasks, sources, balances, weights):
    """Run one full round the literal way.

    tasks/sources are given in ascending id order; ``balances`` maps owner_id
    to priority balance.  A cell of the preference matrix holds the source's
    rate where it can serve the task, else 0.  Returns (assignments dict
    task_id -> source_id, unmatched task_ids in processing order).
    """
    # column vectors [D, A, V, P, N, priority]
    cols = []
    for t in tasks:
        prio = balances.get(t.owner_id, 0.0)
        p = weights.gamma_t * (t.value / t.cycles_required) + weights.gamma_p * prio
        cols.append([t.deadline_s, t.cycles_required, t.value, p, t.task_id, prio])

    # bubble sort columns by P descending; strict comparison keeps ties stable
    n = len(cols)
    for _ in range(n):
        for k in range(n - 1):
            if cols[k][3] < cols[k + 1][3]:
                cols[k], cols[k + 1] = cols[k + 1], cols[k]

    src_rows = [[s.idle_seconds, s.cycles_per_second, s.source_id] for s in sources]

    prefer = []
    for e, cal, _ in src_rows:
        row = []
        for d, a, _, _, _, _ in cols:
            if a <= cal * e and a / cal <= d:
                row.append(cal)
            else:
                row.append(0.0)
        prefer.append(row)

    pairs, lost = oracle_greedy(prefer, n)
    assignments = {int(cols[i][4]): src_rows[j][2] for i, j in pairs}
    return assignments, [int(cols[i][4]) for i in lost]


def oracle_greedy(prefer, n):
    """Match the n columns of the preference matrix ``prefer`` (a list of
    rows, one per source; column i is the i-th task in priority order) the
    literal way.

    Each column in turn takes the first row of its largest positive value,
    and that row is zeroed for the later columns.  Returns the (column, row)
    pairs in column order and the columns left unmatched, in order.
    """
    prefer = [list(row) for row in prefer]
    pairs, lost = [], []
    for i in range(n):
        best_j = -1
        best = 0.0
        for j in range(len(prefer)):
            if prefer[j][i] > best:
                best = prefer[j][i]
                best_j = j
        if best_j < 0:
            lost.append(i)
            continue
        pairs.append((i, best_j))
        for i2 in range(n):
            prefer[best_j][i2] = 0.0
    return pairs, lost


def oracle_classify(tasks, matched_rows, max_rounds_w, step_seconds):
    """Split a round's losers the literal way, one task at a time.

    ``tasks`` are the round's ordered Tasks and ``matched_rows`` the rows
    that leased.  Every other task fails one more round; it escalates if that
    brings rounds_deferred to ``max_rounds_w`` or if its deadline minus
    ``step_seconds`` is <= 0, else it is deferred with that step taken off
    its deadline.  Returns the deferred and the escalated Tasks, each in
    queue order, with rounds_deferred bumped.
    """
    deferred, escalated = [], []
    for row, t in enumerate(tasks):
        if row in matched_rows:
            continue
        t = t._replace(rounds_deferred=t.rounds_deferred + 1)
        if t.rounds_deferred >= max_rounds_w or t.deadline_s - step_seconds <= 0:
            escalated.append(t)
        else:
            deferred.append(t._replace(deadline_s=t.deadline_s - step_seconds))
    return deferred, escalated


def oracle_arrivals(workload, rng, next_task_id=0, next_source_id=0):
    """One step's arrivals drawn the literal way, one scalar call per field.

    Returns (task rows, source rows): per task (task_id, owner_id, deadline_s,
    cycles_required, value, rounds_deferred), per source
    (source_id, owner_id, idle_seconds, cycles_per_second).  Tuple items are
    evaluated left to right, which is the draw order.
    """
    n_tasks = int(rng.poisson(workload.task_arrival_rate))
    n_sources = int(rng.poisson(workload.source_arrival_rate))
    n = workload.device_count
    tasks = [
        (next_task_id + k, int(rng.integers(0, n)), float(rng.uniform(*workload.deadline_range)),
         float(rng.uniform(*workload.cycles_range)), float(rng.uniform(*workload.value_range)), 0)
        for k in range(n_tasks)
    ]
    sources = [
        (next_source_id + k, int(rng.integers(0, n)), float(rng.uniform(*workload.idle_range)),
         float(rng.uniform(*workload.rate_range)))
        for k in range(n_sources)
    ]
    return tasks, sources


def oracle_settlements(config, leases):
    """The settlement rows of a run of ``config`` whose leases, in lease order,
    are ``leases`` (rows with ``step``, ``task_id`` and ``source_id``).

    The run's arrivals are drawn again with ``oracle_arrivals`` to find each
    task's owner and value and each source's owner.  Each step's leases
    settle as one batch over a dict ledger: every amount is
    ``compute_settlement_amount`` of the task and its owner's balance before
    the batch, floored at 0; then each device's debits and credits, summed in
    lease order, are added to its balance.  Returns the rows and the ledger.
    """
    rng = np.random.default_rng(config.rng_seed)
    tasks, source_owner = {}, {}
    for _ in range(config.steps):
        new_tasks, new_sources = oracle_arrivals(config.workload, rng, len(tasks), len(source_owner))
        tasks.update((row[0], Task(*row)) for row in new_tasks)
        source_owner.update((row[0], row[1]) for row in new_sources)
    balances, rows = {}, []
    for step, batch in groupby(leases, key=attrgetter("step")):
        batch = [(tasks[lease.task_id], source_owner[lease.source_id]) for lease in batch]
        rows += oracle_settle(batch, balances, config.weights, step)
    return rows, balances


def oracle_settle(batch, balances, weights, step):
    """Settle one step's ``batch`` of (Task, provider device) pairs, in lease
    order, against the dict ``balances``; return its SettlementRecords.

    Every amount is ``compute_settlement_amount`` of the task and its owner's
    balance before the batch, floored at 0; then each device's debits and
    credits, summed in lease order, are added to its balance.
    """
    rows, deltas = [], {}
    for task, provider in batch:
        receiver = task.owner_id
        raw = compute_settlement_amount(task, balances.get(receiver, 0.0), weights)
        amount = 0.0 if raw < 0.0 else raw
        rows.append(SettlementRecord(task.task_id, receiver, provider, amount, step, raw < 0.0))
        deltas[receiver] = deltas.get(receiver, 0.0) - amount
        deltas[provider] = deltas.get(provider, 0.0) + amount
    for device, delta in deltas.items():
        balances[device] = balances.get(device, 0.0) + delta
    return rows


def oracle_run(config):
    """A whole run of ``config`` the literal way, as a SimReport of lists of rows.

    Each step draws its arrivals with ``oracle_arrivals``, takes
    ``step_seconds`` off every pooled source's idle time and drops the sources
    left with none, then appends the arrivals.  Under ``crl`` the pending
    tasks, sorted by id, go through ``oracle_round``: the leases, in priority
    order, are recorded with their sources as they stand, settled with
    ``oracle_settle`` and charged to the sources (one left with no idle time
    leaves), and ``oracle_classify`` splits the losers.  Under ``cloud``
    every pending task escalates, in arrival order.  Escalated tasks add their
    value and cycles to the running totals one task at a time; the step's
    idle capacity adds rate * idle over the pool, left to right.
    """
    rng = np.random.default_rng(config.rng_seed)
    weights, seconds = config.weights, config.step_seconds
    pending, pool, balances = [], [], {}
    samples, leases, settlements = [], [], []
    arrived = sources = matched = migrated = 0
    value_cum = cycles_cum = 0.0
    for step in range(config.steps):
        new_tasks, new_sources = oracle_arrivals(config.workload, rng, arrived, sources)
        arrived, sources = arrived + len(new_tasks), sources + len(new_sources)
        pool = [s._replace(idle_seconds=s.idle_seconds - seconds) for s in pool]
        pool = [s for s in pool if s.idle_seconds > 0.0] + [SourceNode(*row) for row in new_sources]
        pending += [Task(*row) for row in new_tasks]
        if config.policy == "cloud":
            leased, deferred, escalated = [], [], pending
        else:
            assignments, _ = oracle_round(sorted(pending, key=attrgetter("task_id")), pool, balances, weights)
            ordered = sorted(pending, key=lambda t: (-compute_matching_priority(t, balances.get(t.owner_id, 0.0), weights),
                                                    t.task_id))
            rows = {s.source_id: row for row, s in enumerate(pool)}
            leased = [(t, pool[rows[assignments[t.task_id]]]) for t in ordered if t.task_id in assignments]
            for task, source in leased:
                busy = task.cycles_required / source.cycles_per_second
                leases.append(AssignmentRecord(step, task.task_id, source.source_id, busy, task.cycles_required,
                                               task.deadline_s, source.idle_seconds, source.cycles_per_second))
                pool[rows[source.source_id]] = source._replace(idle_seconds=source.idle_seconds - busy)
            settlements += oracle_settle([(t, s.owner_id) for t, s in leased], balances, weights, step)
            pool = [s for s in pool if s.idle_seconds > 0.0]
            matched_rows = [row for row, t in enumerate(ordered) if t.task_id in assignments]
            deferred, escalated = oracle_classify(ordered, matched_rows, weights.max_rounds_w, seconds)
        for task in escalated:
            value_cum += task.value
            cycles_cum += task.cycles_required
        capacity = 0.0
        for s in pool:
            capacity += s.cycles_per_second * s.idle_seconds
        samples.append(StepSample(step, config.policy, capacity, len(leased), len(deferred), len(escalated),
                                  value_cum, cycles_cum))
        matched, migrated, pending = matched + len(leased), migrated + len(escalated), deferred
    return SimReport(config.policy, config.rng_seed, samples, balances, settlements, leases,
                     arrived, matched, migrated, len(pending))


class CopyingPool:
    """The source pool with every change copied: a source left with no idle
    time leaves at once, so every row but a dead arrival is live.

    ``columns`` holds ids, owners, idle seconds and rates.  Each ``age``,
    ``consume`` and ``extend`` builds new columns and writes none in place.
    """

    def __init__(self):
        self.columns = [np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)]

    def __len__(self):
        """The live rows, as ``len`` of a ``SourcePool`` counts them."""
        return int(np.count_nonzero(self.columns[2] > 0.0))

    def table(self):
        """The rows as a SourcePool built over the columns."""
        return SourcePool(*self.columns)

    def extend(self, new):
        """Append the rows of the SourcePool ``new``."""
        self.columns = [np.concatenate((mine, theirs)) for mine, theirs in zip(self.columns, new._columns(new))]

    def age(self, seconds):
        """Take ``seconds`` off every idle time and drop the sources left with none."""
        idle = self.columns[2] - seconds
        keep = idle > 0.0
        self.columns = [column[keep] for column in (self.columns[0], self.columns[1], idle, self.columns[3])]

    def consume(self, rows, busy_seconds):
        """Take the leased seconds off the row indices ``rows`` and drop those of them left with none."""
        idle = self.columns[2].copy()
        idle[rows] -= busy_seconds
        keep = np.ones(len(idle), dtype=bool)
        keep[rows[idle[rows] <= 0.0]] = False
        self.columns = [column[keep] for column in (self.columns[0], self.columns[1], idle, self.columns[3])]

    def idle_capacity(self):
        """The sum of rate * idle over the rows, added left to right; 0.0 for no rows."""
        return float(np.cumsum(self.columns[3] * self.columns[2])[-1]) if len(self) else 0.0
