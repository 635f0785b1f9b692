import random

import numpy as np
import pytest

from crlsim.model import SourcePool, TaskQueue, WeightsConfig
from crlsim.matching import (
    sort_tasks_by_priority,
    build_prefer_matrix,
    contending_sources,
    feasible_mask,
    greedy_match,
    classify_unmatched,
    full_round,
)

from oracles import compute_matching_priority, feasible, oracle_classify, oracle_greedy, oracle_round
from records import SourceNode, Task, lease_ids, round_ids, table_of, tasks_of

W = WeightsConfig()


def task(tid, cycles=1.0, value=1.0, deadline=100.0, owner=0, deferred=0):
    return Task(task_id=tid, owner_id=owner, deadline_s=deadline,
                cycles_required=cycles, value=value, rounds_deferred=deferred)


def source(sid, cal=10.0, idle=100.0, owner=100):
    return SourceNode(source_id=sid, owner_id=owner, idle_seconds=idle, cycles_per_second=cal)


def queue(*tasks):
    return table_of(TaskQueue, tasks)


def pool(*sources):
    return table_of(SourcePool, sources)


def random_instance(rng, max_n=5, max_m=5):
    n = rng.randint(0, max_n)
    m = rng.randint(0, max_m)
    tasks = [
        task(i, cycles=rng.uniform(1, 100), value=rng.uniform(0, 10),
             deadline=rng.uniform(1, 100), owner=rng.randint(0, 3))
        for i in range(n)
    ]
    sources = [
        source(j, cal=rng.uniform(1, 50), idle=rng.uniform(0, 100), owner=10 + rng.randint(0, 3))
        for j in range(m)
    ]
    balances = {d: rng.uniform(-5, 5) for d in range(4)}
    return tasks, sources, balances


def tied_instance(rng, max_n=40, max_m=200):
    """Up to max_m sources x max_n tasks built to force ties.

    Rates, cycles and values come from short lists, so equal preference values
    and equal priorities recur; about one source in ten has no idle time.
    About half the instances draw rates from a near-tie list: one rate and
    its float neighbours, whose quotients by one cycles value may round
    equal though the rates rank apart.  Source ids ascend with gaps.
    """
    n = rng.randint(0, max_n)
    m = rng.randint(0, max_m)
    base = rng.uniform(1, 50)
    near_tie = [base, float(np.nextafter(base, 0)), float(np.nextafter(base, 100)), rng.uniform(1, 50)]
    rates = rng.choice(([rng.uniform(1, 50) for _ in range(4)], near_tie))
    cycles = [rng.uniform(1, 100) for _ in range(4)]
    tasks = [
        task(i, cycles=rng.choice(cycles), value=rng.choice((1.0, 2.0, rng.uniform(0, 10))),
             deadline=rng.uniform(1, 100), owner=rng.randint(0, 3))
        for i in range(n)
    ]
    sources = [
        source(sid, cal=rng.choice(rates), idle=0.0 if rng.random() < 0.1 else rng.uniform(0, 100),
               owner=10 + rng.randint(0, 3))
        for sid in sorted(rng.sample(range(4 * max_m), m))
    ]
    balances = {d: rng.choice((0.0, rng.uniform(-5, 5))) for d in range(4)}
    return tasks, sources, balances


def reference_match(p, ordered):
    """The literal argmax match over the whole pool, each feasible cell
    holding the source's rate: (queue row, pool row) pairs in priority
    order, and the unmatched ids."""
    pairs, lost = oracle_greedy(np.where(feasible_mask(p, ordered), p.rate, 0.0).T.tolist(), len(ordered))
    return pairs, ordered.ids[lost].tolist()


def ranked_match(p, q):
    """greedy_match over ``p`` ranked by rate as full_round ranks a
    shortlist; returns the ranked pool and the result."""
    r = p.take(np.argsort(-p.rate, kind="stable"))
    return r, greedy_match(feasible_mask(r, q), r, q)


def shortlisted_leases(tasks, sources):
    """full_round's leases, checked against the unshortlisted match."""
    p = pool(*sources)
    ordered, result = full_round(queue(*tasks), p, {}, W)
    pairs, unmatched = reference_match(p, ordered)
    assert result.assignments.tolist() == [list(pair) for pair in pairs]
    assert result.unmatched_task_ids == unmatched
    return lease_ids(ordered, result, p)


def widened(tasks, sources, copies=8, seed=0):
    """``copies`` of every task and source under shuffled fresh ids, so
    each tie spans many sources and ranked ids do not ascend."""
    rng = random.Random(seed)
    tids = rng.sample(range(4 * copies * len(tasks)), copies * len(tasks))
    sids = rng.sample(range(4 * copies * len(sources)), copies * len(sources))
    return ([t._replace(task_id=tid) for t, tid in zip(tasks * copies, tids)],
            [s._replace(source_id=sid) for s, sid in zip(sources * copies, sids)])


class TestSort:
    def test_descending(self):
        tasks = [task(0, value=1), task(1, value=3), task(2, value=2)]
        out = sort_tasks_by_priority(queue(*tasks), {}, W)
        assert out.ids.tolist() == [1, 2, 0]

    def test_tie_break_ascending_id(self):
        tasks = [task(2), task(0), task(1)]
        out = sort_tasks_by_priority(queue(*tasks), {}, W)
        assert out.ids.tolist() == [0, 1, 2]

    def test_gathers_owner_balances_in_order(self):
        # Equal value per cycle, so the owners' balances alone order the
        # tasks; owner 9 holds none and reads 0.
        ledger = {1: 4.0, 2: -0.5}
        tasks = [task(i, owner=owner) for i, owner in enumerate([2, 9, 1, 2])]
        assert sort_tasks_by_priority(queue(*tasks), ledger, W).ids.tolist() == [2, 1, 0, 3]
        assert len(sort_tasks_by_priority(queue(), ledger, W)) == 0

    def test_against_selection_sort_oracle(self):
        rng = random.Random(42)
        ledger = {0: 1.5, 1: -0.5, 2: 0.0, 3: 2.0}
        tasks = [
            task(i, cycles=rng.uniform(1, 50), value=rng.uniform(0, 10), owner=rng.randint(0, 3))
            for i in range(100)
        ]
        out = sort_tasks_by_priority(queue(*tasks), ledger, W).ids.tolist()

        # naive selection sort on (priority desc, id asc)
        remaining = list(tasks)
        expected = []
        while remaining:
            best = remaining[0]
            for t in remaining[1:]:
                pb = compute_matching_priority(best, ledger.get(best.owner_id, 0.0), W)
                pt = compute_matching_priority(t, ledger.get(t.owner_id, 0.0), W)
                if pt > pb or (pt == pb and t.task_id < best.task_id):
                    best = t
            expected.append(best)
            remaining.remove(best)
        assert out == [t.task_id for t in expected]
        assert sorted(out) == sorted(t.task_id for t in tasks)

    def test_raising_balance_never_demotes(self):
        rng = random.Random(5)
        for _ in range(100):
            tasks, _, balances = random_instance(rng, max_n=5, max_m=0)
            if not tasks:
                continue
            target = rng.choice(tasks)
            before = sort_tasks_by_priority(queue(*tasks), dict(balances), W)
            bumped = dict(balances)
            bumped[target.owner_id] = bumped.get(target.owner_id, 0.0) + rng.uniform(0, 5)
            after = sort_tasks_by_priority(queue(*tasks), dict(bumped), W)
            ids_b = before.ids.tolist()
            ids_a = after.ids.tolist()
            # all tasks sharing the bumped owner move together; check the target
            same_owner = {t.task_id for t in tasks if t.owner_id == target.owner_id}
            for tid in same_owner:
                assert ids_a.index(tid) <= ids_b.index(tid)


def cell(s, t):
    """The preference value build_prefer_matrix gives ``s`` for ``t`` on a 1 x 1 pool and queue."""
    return build_prefer_matrix(pool(s), queue(t))[0, 0]


class TestFeasible:
    def test_not_enough_capacity(self):
        assert cell(source(0, cal=10, idle=5), task(0, cycles=100, deadline=100)) == 0.0

    def test_both_satisfied(self):
        assert cell(source(0, cal=50, idle=10), task(0, cycles=100, deadline=5)) == 0.5

    def test_misses_deadline(self):
        assert cell(source(0, cal=50, idle=10), task(0, cycles=100, deadline=1)) == 0.0


class TestPreferMatrix:
    def test_single_feasible_cell(self):
        m = build_prefer_matrix(pool(source(0, cal=50, idle=10)), queue(task(0, cycles=100, deadline=5)))
        assert m.tolist() == [[0.5]]
        assert m.shape == (1, 1)

    def test_single_infeasible_cell(self):
        m = build_prefer_matrix(pool(source(0, cal=10, idle=1)), queue(task(0, cycles=100, deadline=100)))
        assert m.tolist() == [[0.0]]

    def test_empty_inputs(self):
        assert build_prefer_matrix(pool(), queue()).shape == (0, 0)
        assert build_prefer_matrix(pool(), queue(task(0))).shape == (0, 1)
        assert build_prefer_matrix(pool(source(0)), queue()).shape == (1, 0)

    def test_random_cells_match_per_cell_oracle(self):
        rng = random.Random(9)
        for _ in range(50):
            tasks, sources, _ = random_instance(rng, max_n=3, max_m=3)
            m = build_prefer_matrix(pool(*sources), queue(*tasks))
            for j, s in enumerate(sources):
                for i, t in enumerate(tasks):
                    ok = (t.cycles_required <= s.cycles_per_second * s.idle_seconds
                          and t.cycles_required / s.cycles_per_second <= t.deadline_s)
                    expected = s.cycles_per_second / t.cycles_required if ok else 0.0
                    assert m[j, i] == expected


    def test_tasks_no_source_can_serve_get_zero_rows(self):
        # Deadlines and cycles sit on both sides of, and exactly at, what the
        # fastest source and the largest capacity allow.
        rng = random.Random(13)
        for _ in range(200):
            sources = [source(j, cal=rng.uniform(1, 50), idle=rng.uniform(0, 100)) for j in range(rng.randint(1, 30))]
            fastest = max(s.cycles_per_second for s in sources)
            largest = max(s.cycles_per_second * s.idle_seconds for s in sources)
            tasks = []
            for i in range(rng.randint(1, 20)):
                cycles = rng.choice((rng.uniform(1, 2 * largest), largest))
                deadline = cycles / fastest * rng.choice((0.5, 1.0, 1.0, 2.0, 50.0))
                tasks.append(task(i, cycles=cycles, deadline=deadline))
            m = build_prefer_matrix(pool(*sources), queue(*tasks))
            mask = feasible_mask(pool(*sources), queue(*tasks))
            for j, s in enumerate(sources):
                for i, t in enumerate(tasks):
                    expected = s.cycles_per_second / t.cycles_required if feasible(s, t) else 0.0
                    assert m[j, i] == expected
                    assert mask[i, j] == feasible(s, t)
            shortlisted_leases(tasks, sources)  # the shortlist's live test sits on the same edges


class TestGreedyMatch:
    def test_documented_two_by_two(self):
        # prefer = [[0.5, 0.25], [1.0, 0.5]] over (s1, s2) x (t1, t2)
        tasks = queue(task(1, cycles=100, value=2), task(2, cycles=200, value=1))
        sources = pool(source(1, cal=50), source(2, cal=100))
        m = build_prefer_matrix(sources, tasks)
        assert m.tolist() == [[0.5, 0.25], [1.0, 0.5]]
        ordered, result = full_round(tasks, sources, {}, W)
        assert ordered.ids.tolist() == [1, 2]
        assert lease_ids(tasks, result, sources) == [(1, 2), (2, 1)]
        assert result.assignments.tolist() == [[0, 1], [1, 0]]
        assert result.unmatched_task_ids == []
        task_rows, rows = result.assignments.T
        busy_seconds = (tasks.cycles[task_rows] / sources.rate[rows]).tolist()
        assert busy_seconds == [pytest.approx(1.0), pytest.approx(4.0)]

    def test_all_zero_matrix(self):
        tasks = queue(task(0, cycles=1000, deadline=0.1), task(1, cycles=1000, deadline=0.1))
        sources = pool(source(0, cal=1, idle=1))
        assert not build_prefer_matrix(sources, tasks).any()
        _, result = ranked_match(sources, tasks)
        assert result.assignments.shape == (0, 2)
        assert result.unmatched_task_ids == [0, 1]

    def test_tie_breaks_to_lowest_source_id(self):
        tasks = queue(task(0, cycles=10))
        sources = pool(source(2, cal=5), source(0, cal=5), source(1, cal=5))
        ranked, result = ranked_match(sources, tasks)
        assert lease_ids(tasks, result, ranked) == [(0, 0)]

    def test_result_owns_its_memory(self):
        # full_round writes column 1 of the assignments in place, so they
        # must be a fresh, writable array, never a view of the mask.
        rng = random.Random(61)
        seen_empty = seen_leases = False
        for _ in range(100):
            tasks, sources, balances = tied_instance(rng, max_n=10, max_m=20)
            p = pool(*sources)
            ordered = sort_tasks_by_priority(queue(*tasks), balances, W)
            ranked, result = ranked_match(p, ordered)
            a = result.assignments
            assert a.dtype == np.intp and a.shape == (len(a), 2) and a.flags.writeable
            assert not np.shares_memory(a, ranked.ids) and not np.shares_memory(a, ordered.ids)
            matched = set(a[:, 0].tolist())
            assert result.unmatched_task_ids == [tid for row, tid in enumerate(ordered.ids.tolist()) if row not in matched]
            assert all(type(tid) is int for tid in result.unmatched_task_ids)
            seen_empty |= len(a) == 0
            seen_leases |= len(a) > 0
        assert seen_empty and seen_leases

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 200])
    def test_bool_matrix_matches_as_its_float_cast(self, m):
        # Every source has one rate, so every feasible cell of a mask ties
        # and each task takes its first free feasible row: the literal
        # argmax over the mask's float cast.
        rng = np.random.default_rng(m)
        for _ in range(30):
            n = int(rng.integers(0, 41))
            density = rng.choice((0.02, 0.2, 0.9))
            # C order, or the transpose of a source-major mask.
            mask = rng.random((n, m)) < density if rng.random() < 0.5 else (rng.random((m, n)) < density).T
            before = mask.copy()
            p = pool(*(source(j) for j in range(m)))
            q = queue(*(task(int(tid)) for tid in rng.permutation(n)))
            result = greedy_match(mask, p, q)
            pairs, lost = oracle_greedy(mask.T.astype(float).tolist(), n)
            assert result.assignments.tolist() == [list(pair) for pair in pairs]
            assert result.assignments.dtype == np.intp and result.assignments.shape == (len(result.assignments), 2)
            assert result.unmatched_task_ids == q.ids[lost].tolist()
            assert np.array_equal(mask, before)

    def test_no_source_double_booked(self):
        rng = random.Random(17)
        for _ in range(200):
            tasks, sources, balances = random_instance(rng)
            _, leases, _ = round_ids(tasks, sources, dict(balances), W)
            ids = list(leases.values())
            assert len(ids) == len(set(ids))

    def test_assignments_feasible_pre_round(self):
        rng = random.Random(23)
        for _ in range(200):
            tasks, sources, balances = random_instance(rng)
            src = {s.source_id: s for s in sources}
            tsk = {t.task_id: t for t in tasks}
            _, leases, _ = round_ids(tasks, sources, dict(balances), W)
            for task_id, source_id in leases.items():
                assert feasible(src[source_id], tsk[task_id])

    def test_prefix_stability_when_dropping_lower_task(self):
        rng = random.Random(31)
        for _ in range(100):
            tasks, sources, balances = random_instance(rng)
            if len(tasks) < 2:
                continue
            ledger = dict(balances)
            ordered, leases, _ = round_ids(tasks, sources, ledger, W)
            drop = ordered[-1]
            kept = [t for t in tasks if t.task_id != drop]
            _, leases2, _ = round_ids(kept, sources, ledger, W)
            above = {task_id: source_id for task_id, source_id in leases.items() if task_id != drop}
            assert above == leases2

    def test_full_round_equals_literal_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            tasks, sources, balances = random_instance(rng)
            _, leases, unmatched = round_ids(tasks, sources, dict(balances), W)
            expected_assign, expected_unmatched = oracle_round(tasks, sources, balances, W)
            assert leases == expected_assign
            assert unmatched == expected_unmatched

    def test_full_round_equals_oracle_on_large_tied_instances(self):
        rng = random.Random(2024)
        tied_columns = 0
        for k in range(150):
            tasks, sources, balances = tied_instance(rng)
            if k % 10 == 0:
                sources = []
            elif k % 10 == 1:
                tasks = []
            shuffled = pool(*rng.sample(sources, len(sources)))
            ordered, result = full_round(queue(*tasks), shuffled, dict(balances), W)
            expected_assign, expected_unmatched = oracle_round(tasks, sources, balances, W)
            assert dict(lease_ids(ordered, result, shuffled)) == expected_assign
            assert result.unmatched_task_ids == expected_unmatched

            src = {s.source_id: s for s in sources}
            tsk = {t.task_id: t for t in tasks}
            task_rows, rows = result.assignments.T
            busy_seconds = (ordered.cycles[task_rows] / shuffled.rate[rows]).tolist()
            for (task_id, source_id), busy in zip(lease_ids(ordered, result, shuffled), busy_seconds):
                assert busy == tsk[task_id].cycles_required / src[source_id].cycles_per_second
            for col in build_prefer_matrix(shuffled, ordered).T:
                best = col.max(initial=0.0)
                tied_columns += best > 0 and np.count_nonzero(col == best) > 1
        assert tied_columns > 0

    def test_full_round_equals_prefer_matrix_argmax_where_quotients_rank_as_rates(self):
        # Rates from a continuous range, half the instances widened so that
        # equal rates recur: no task has two feasible sources of different
        # rate and one quotient, so the paper's preference matrix ranks each
        # task's sources as their rates do, and its argmax match, each
        # leased row zeroed, is full_round's.
        rng = random.Random(77)
        leases = 0
        for k in range(200):
            tasks, sources, balances = random_instance(rng, max_n=12, max_m=20)
            if k % 2:
                tasks, sources = widened(tasks, sources, copies=3, seed=k)
            p = pool(*sources)
            ordered, result = full_round(queue(*tasks), p, dict(balances), W)
            matrix = build_prefer_matrix(p, ordered)
            for col, ok in zip(matrix.T, feasible_mask(p, ordered)):
                assert len(np.unique(col[ok])) == len(np.unique(p.rate[ok]))
            pairs, lost = oracle_greedy(matrix.tolist(), len(ordered))
            assert result.assignments.tolist() == [list(pair) for pair in pairs]
            assert result.unmatched_task_ids == ordered.ids[lost].tolist()
            leases += len(pairs)
        assert leases > 100


ULP = float(np.nextafter(0.0, 1.0))  # the smallest subnormal float
NEAR = float(np.nextafter(100.0, 0))  # over 42.63658650225366 cycles, NEAR and 100 give one quotient


class TestWalk:
    """Equal quotients from different rates, which rank apart: each task
    walks the rate-ranked pool to its first free feasible source, the
    fastest, whatever the slower sources' quotients round to."""

    @pytest.mark.parametrize("blocked", [0, 63], ids=["narrow", "across-64"])
    @pytest.mark.parametrize("cycles, sources, expected", [
        pytest.param(42.63658650225366,
                     [source(5, cal=NEAR), source(9, cal=100.0), source(7, cal=100.0), source(3, cal=50.0)],
                     [(0, 7), (1, 9), (2, 5), (3, 3)], id="near-tie"),
        pytest.param(1e-10,
                     [source(4, cal=1e300, idle=1), source(8, cal=1e300, idle=1), source(2, cal=1e299, idle=1),
                      source(6, cal=1.0, idle=1)],
                     [(0, 4), (1, 8), (2, 2), (3, 6)], id="overflow"),
        pytest.param(3.0,
                     [source(3, cal=4 * ULP, idle=float("inf")), source(6, cal=4 * ULP, idle=float("inf")),
                      source(1, cal=3 * ULP, idle=float("inf")), source(9, cal=ULP, idle=float("inf"))],
                     [(0, 3), (1, 6), (2, 1), (3, 9)], id="subnormal"),
    ])
    def test_tie_goes_to_the_lowest_id(self, cycles, sources, expected, blocked):
        # Four equal tasks in id order, and sources whose quotients tie
        # (near-equal rates, quotients that overflow or turn subnormal)
        # while their rates differ: the faster leases first, and equal
        # rates go to the lower id.  ``blocked`` faster sources that hold
        # no time rank first, so with 63 of them the first two ranked
        # feasible columns sit on either side of the 64th.  A quotient that
        # rounds to 0 leases too.
        tasks = [task(i, cycles=cycles, deadline=float("inf")) for i in range(4)]
        top = max(s.cycles_per_second for s in sources)
        sources = sources + [source(1000 + j, cal=2 * top, idle=0.0) for j in range(blocked)]
        q = queue(*tasks)
        with np.errstate(over="ignore"):
            ranked, result = ranked_match(pool(*sources), q)
            assert lease_ids(q, result, ranked) == expected
            assert shortlisted_leases(tasks, sources) == expected
            assert round_ids(tasks, sources, {}, W)[1:] == oracle_round(tasks, sorted(sources), {}, W)

    def test_zero_quotient_matches(self):
        # Feasible, with an infinite idle window and deadline: one ulp of
        # rate over 10 cycles rounds to 0, but the source is the task's
        # fastest feasible one, so it leases.
        tasks, sources = [task(0, cycles=10.0, deadline=float("inf"))], [source(0, cal=ULP, idle=float("inf"))]
        with np.errstate(over="ignore"):
            assert feasible_mask(pool(*sources), queue(*tasks)).all()
            assert cell(sources[0], tasks[0]) == 0.0
            assert shortlisted_leases(tasks, sources) == [(0, 0)]
            assert round_ids(tasks, sources, {}, W)[1:] == ({0: 0}, [])

    def test_equal_rates_read_no_ids(self):
        # Every source has one rate, so every feasible source ties and each
        # task takes the lowest free feasible id.  Equal rates rank in
        # ascending id, so that is the lowest free feasible bit, and the
        # match reads no id.
        class CountingIds(np.ndarray):
            def item(self, *args):
                self.reads += 1
                return super().item(*args)

        rng = random.Random(3)
        sources = [source(sid, cal=50.0, idle=rng.uniform(0, 100)) for sid in sorted(rng.sample(range(1000), 200))]
        tasks = [task(i, cycles=rng.uniform(1, 5000), value=rng.uniform(0, 10)) for i in range(60)]
        p = pool(*sources)
        ordered = sort_tasks_by_priority(queue(*tasks), {}, W)
        ranked = p.take(np.argsort(-p.rate, kind="stable"))
        ranked.ids = ranked.ids.view(CountingIds)
        ranked.ids.reads = 0
        result = greedy_match(feasible_mask(ranked, ordered), ranked, ordered)
        pairs, unmatched = reference_match(p, ordered)
        assert result.assignments.tolist() == [list(pair) for pair in pairs]
        assert result.unmatched_task_ids == unmatched
        assert 20 < len(pairs) < len(tasks)
        assert ranked.ids.reads == 0
        assert shortlisted_leases(tasks, sources) == lease_ids(ordered, result, ranked)


class TestContendingSources:
    def test_keeps_the_fastest_universal_sources(self):
        sources = [source(0, cal=10), source(1, cal=30), source(2, cal=20), source(3, cal=30, idle=0.1)]
        rows = contending_sources(pool(*sources), queue(task(0, cycles=10)))
        assert rows.tolist() == [1, 3]
        assert shortlisted_leases([task(0, cycles=10)], sources) == [(0, 1)]

    def test_near_tie_goes_to_the_faster_source(self):
        # One ulp apart in rate, equal in quotient: source 1 is faster, so
        # the shortlist keeps it alone and it leases.
        sources = [source(0, cal=float(np.nextafter(100.0, 0)), idle=100), source(1, cal=100.0, idle=100)]
        t = task(0, cycles=42.63658650225366, deadline=100)
        assert cell(sources[0], t) == cell(sources[1], t)
        assert contending_sources(pool(*sources), queue(t)).tolist() == [1]
        assert shortlisted_leases([t], sources) == [(0, 1)]

    def test_drops_a_source_one_ulp_slower_than_the_bound(self):
        # Two live tasks and two universal sources at rate 100, so r_k is
        # 100: the source one ulp slower is dropped, and source 3, faster
        # but too short for the larger task, is kept.
        sources = [source(0, cal=NEAR), source(1, cal=100.0), source(2, cal=100.0), source(3, cal=500.0, idle=0.01)]
        tasks = [task(0, cycles=10.0), task(1, cycles=20.0)]
        assert contending_sources(pool(*sources), queue(*tasks)).tolist() == [1, 2, 3]
        assert shortlisted_leases(tasks, sources) == [(0, 1), (1, 2)]

    def test_overflowing_quotients_tie(self):
        # Both quotients are inf, but source 1 is faster and leases.
        t = task(0, cycles=1e-10)
        sources = [source(0, cal=1e299, idle=1), source(1, cal=1e300, idle=1)]
        with np.errstate(over="ignore"):
            assert cell(sources[0], t) == cell(sources[1], t) == float("inf")
            assert shortlisted_leases([t], sources) == [(0, 1)]

    def test_subnormal_quotients_tie(self):
        # 3 and 4 ulps over 3 cycles both round to one subnormal ulp, but
        # source 1 is faster and leases.
        t = task(0, cycles=3.0, deadline=float("inf"))
        sources = [source(0, cal=3 * ULP, idle=float("inf")), source(1, cal=4 * ULP, idle=float("inf"))]
        with np.errstate(over="ignore"):
            assert cell(sources[0], t) == cell(sources[1], t) == ULP
            assert shortlisted_leases([t], sources) == [(0, 1)]

    def test_leaves_its_inputs_alone(self):
        # The k-th largest rate is found by partitioning in place, which must
        # touch only the shortlist's own gather of the rates.
        rng = random.Random(8)
        ulp = float(np.nextafter(0.0, 1.0))
        cases = [tied_instance(rng)[:2] for _ in range(100)]
        cases.append(([task(0, cycles=1e-10)], [source(0, cal=1e299, idle=1), source(1, cal=1e300, idle=1)]))
        cases.append(([task(0, cycles=3.0, deadline=float("inf"))],
                      [source(0, cal=3 * ulp, idle=float("inf")), source(1, cal=4 * ulp, idle=float("inf"))]))
        for tasks, sources in cases:
            p, q = pool(*rng.sample(sources, len(sources))), queue(*tasks)
            columns = [(table, name, getattr(table, name)) for table in (p, q) for name in table.__dataclass_fields__]
            copies = [column.copy() for _, _, column in columns]
            with np.errstate(over="ignore"):
                contending_sources(p, q)
            for (table, name, column), copy in zip(columns, copies):
                assert getattr(table, name) is column and np.array_equal(column, copy)

    def test_fewer_universal_sources_than_live_tasks_keeps_all(self):
        sources = [source(0, cal=10, idle=100), source(1, cal=50, idle=1), source(2, cal=20, idle=1)]
        tasks = [task(0, cycles=500), task(1, cycles=10), task(2, cycles=5)]
        assert contending_sources(pool(*sources), queue(*tasks)).tolist() == [0, 1, 2]
        assert shortlisted_leases(tasks, sources) == [(2, 1), (1, 2), (0, 0)]

    @pytest.mark.parametrize("tasks, sources, width", [
        pytest.param([task(0, cycles=42.63658650225366, deadline=100)],
                     [source(0, cal=float(np.nextafter(100.0, 0)), idle=100), source(1, cal=100.0, idle=100)], 8,
                     id="near-tie"),
        pytest.param([task(0, cycles=1e-10)], [source(0, cal=1e299, idle=1), source(1, cal=1e300, idle=1)], 8,
                     id="overflow"),
        pytest.param([task(0, cycles=3.0, deadline=float("inf"))],
                     [source(0, cal=3 * ULP, idle=float("inf")), source(1, cal=4 * ULP, idle=float("inf"))], 8,
                     id="subnormal"),
        pytest.param([task(0, cycles=500), task(1, cycles=10), task(2, cycles=5)],
                     [source(0, cal=10, idle=100), source(1, cal=50, idle=1), source(2, cal=20, idle=1)], 24,
                     id="fewer-universal"),
    ])
    def test_cases_above_at_ranked_width(self, tasks, sources, width):
        # Eight copies of every task and source.  The near-tie, overflowing
        # and subnormal quotients tie where the rates differ, and the
        # shuffled ids give a slower source the lower id in some of those
        # ties: the shortlist keeps only the eight copies of the faster
        # source, which lease in ascending id.  With fewer universal
        # sources than live tasks it keeps all 24 rows.
        tasks, sources = widened(tasks, sources)
        with np.errstate(over="ignore"):
            assert len(contending_sources(pool(*sources), queue(*tasks))) == width
            shortlisted_leases(tasks, sources)

    def test_no_live_task_keeps_none(self):
        tasks = [task(0, cycles=1000, deadline=0.1), task(1, cycles=5000)]
        sources = [source(0, cal=1, idle=1), source(1, cal=100, idle=10)]
        assert contending_sources(pool(*sources), queue(*tasks)).tolist() == []
        assert shortlisted_leases(tasks, sources) == []

    def test_empty_pool_or_queue(self):
        assert contending_sources(pool(), queue(task(0))).tolist() == []
        assert contending_sources(pool(source(0)), queue()).tolist() == []
        assert shortlisted_leases([task(0)], []) == []
        assert shortlisted_leases([], [source(0)]) == []


class TestClassifyUnmatched:
    def test_threshold_escalates(self):
        w = WeightsConfig(max_rounds_w=3)
        deferred, big = classify_unmatched(queue(task(0, deferred=2)), [], w, 1.0)
        assert len(deferred) == 0 and big.ids.tolist() == [0]
        assert big.deferred[0] == 3

    def test_increments_and_defers(self):
        w = WeightsConfig(max_rounds_w=3)
        deferred, big = classify_unmatched(queue(task(0, deferred=0)), [], w, 1.0)
        assert len(big) == 0 and deferred.deferred[0] == 1
        assert deferred.deadline.tolist() == [99.0]  # one step's wait taken off

    def test_expired_deadline_escalates(self):
        w = WeightsConfig(max_rounds_w=5)
        deferred, big = classify_unmatched(queue(task(0, deadline=1.0, deferred=0)), [], w, step_seconds=1.0)
        assert len(deferred) == 0 and len(big) == 1

    def test_rejects_over_limit_entry(self):
        w = WeightsConfig(max_rounds_w=2)
        with pytest.raises(ValueError):
            classify_unmatched(queue(task(0, deferred=2)), [], w, 1.0)

    def test_mixed_batch_matches_per_element_rule(self):
        # Random matched rows, deadlines on and either side of step_seconds,
        # and every deferred count a loser may hold; both tables are compared
        # row by row, all six columns, with the straight-line rule.
        rng = random.Random(55)
        for _ in range(300):
            w = WeightsConfig(max_rounds_w=rng.randint(1, 4))
            step = rng.choice((1.0, 0.5, 2.5))
            ids = rng.sample(range(100), rng.randint(0, 12))
            batch = [task(tid, cycles=rng.uniform(1, 100), value=rng.uniform(0, 10), owner=rng.randint(0, 5),
                          deadline=rng.choice((step, float(np.nextafter(step, 0)), float(np.nextafter(step, 9)),
                                               rng.uniform(0.1, 3 * step))),
                          deferred=rng.randint(0, w.max_rounds_w - 1))
                     for tid in ids]
            matched = rng.sample(range(len(batch)), rng.randint(0, len(batch)))
            deferred, big = classify_unmatched(queue(*batch), np.array(matched, dtype=np.intp), w, step)
            expected_deferred, expected_big = oracle_classify(batch, matched, w.max_rounds_w, step)
            assert tasks_of(deferred) == expected_deferred
            assert tasks_of(big) == expected_big

    def test_matched_rows_are_left_out(self):
        # Rows 1 and 3 leased; row 3 is over the limit, which only a loser
        # may not be.
        w = WeightsConfig(max_rounds_w=2)
        q = queue(task(5, deferred=0), task(2, deferred=1), task(7, deadline=0.5), task(1, deferred=2), task(4, deferred=1))
        deferred, big = classify_unmatched(q, np.array([3, 1]), w, 1.0)
        assert deferred.ids.tolist() == [5] and deferred.deferred.tolist() == [1]
        assert big.ids.tolist() == [7, 4] and big.deferred.tolist() == [1, 2]
        with pytest.raises(ValueError, match="task 1: rounds_deferred 2 already at limit 2"):
            classify_unmatched(q, np.array([1]), w, 1.0)

    def test_leaves_queue_unchanged(self):
        w = WeightsConfig(max_rounds_w=3)
        q = queue(task(0, deferred=1), task(1, deadline=0.5), task(2, deferred=2), task(3))
        columns = {name: getattr(q, name) for name in q.__dataclass_fields__}
        copies = {name: column.copy() for name, column in columns.items()}
        classify_unmatched(q, np.array([3]), w, 1.0)
        for name, column in columns.items():
            assert getattr(q, name) is column and np.array_equal(column, copies[name])
