import random

import pytest

from crlsim.model import Task, SourceNode, WeightsConfig, compute_settlement_amount
from crlsim.matching import Assignment, MatchResult
from crlsim.settlement import PriorityLedger, apply_settlement

W = WeightsConfig()


def task(tid, owner, value=1.0):
    return Task(task_id=tid, owner_id=owner, deadline_s=10.0, cycles_required=10.0, value=value)


def source(sid, owner):
    return SourceNode(source_id=sid, owner_id=owner, idle_seconds=10.0, cycles_per_second=10.0)


def match(*pairs):
    return MatchResult(
        assignments=[Assignment(task_id=t, source_id=s, busy_seconds=1.0) for t, s in pairs],
        unmatched_task_ids=[],
    )


def test_single_transfer():
    ledger = PriorityLedger({1: 4.0})
    tasks = [task(0, owner=1, value=10.0)]
    sources = [source(0, owner=2)]
    records = apply_settlement(match((0, 0)), tasks, sources, ledger, W)
    assert len(records) == 1
    assert records[0].amount == pytest.approx(7.0, abs=1e-12)
    assert ledger.balance_of(1) == pytest.approx(-3.0)
    assert ledger.balance_of(2) == pytest.approx(7.0)
    assert not records[0].floored


def test_empty_batch_is_identity():
    ledger = PriorityLedger({1: 4.0})
    records = apply_settlement(match(), [], [], ledger, W)
    assert records == []
    assert ledger.snapshot() == {1: 4.0}
    assert ledger.batch_seq == 1


def test_fresh_ledger_defaults_to_zero():
    assert PriorityLedger().balance_of(123) == 0.0


def test_unknown_task_rejected_atomically():
    ledger = PriorityLedger({1: 4.0})
    tasks = [task(0, owner=1)]
    sources = [source(0, owner=2)]
    with pytest.raises(ValueError):
        apply_settlement(match((0, 0), (99, 0)), tasks, sources, ledger, W)
    assert ledger.snapshot() == {1: 4.0}
    assert ledger.batch_seq == 0


def test_unknown_source_rejected_atomically():
    ledger = PriorityLedger()
    with pytest.raises(ValueError):
        apply_settlement(match((0, 99)), [task(0, owner=1)], [source(0, owner=2)], ledger, W)
    assert ledger.batch_seq == 0


def test_simultaneous_semantics_for_dual_role_device():
    # device 1 receives for task 0 and provides for task 1 in the same batch;
    # both amounts must come from pre-batch balances
    ledger = PriorityLedger({1: 4.0, 2: 2.0})
    tasks = [task(0, owner=1, value=10.0), task(1, owner=2, value=6.0)]
    sources = [source(0, owner=2), source(1, owner=1)]
    b_own = compute_settlement_amount(tasks[0], 4.0, W)     # 1 pays for task 0
    b_earned = compute_settlement_amount(tasks[1], 2.0, W)  # 1 earns from task 1
    records = apply_settlement(match((0, 0), (1, 1)), tasks, sources, ledger, W)
    assert [r.amount for r in records] == [pytest.approx(b_own), pytest.approx(b_earned)]
    assert ledger.balance_of(1) == pytest.approx(4.0 - b_own + b_earned)
    assert ledger.balance_of(2) == pytest.approx(2.0 + b_own - b_earned)


def test_negative_amount_floored_and_flagged():
    w = WeightsConfig(gamma_n=0.5, gamma_m=0.5, conversion_rate_r=1.0)
    ledger = PriorityLedger({1: -10.0})
    tasks = [task(0, owner=1, value=0.0)]
    sources = [source(0, owner=2)]
    records = apply_settlement(match((0, 0)), tasks, sources, ledger, w)
    assert records[0].floored
    assert records[0].amount == 0.0
    assert ledger.balance_of(1) == pytest.approx(-10.0)
    assert ledger.balance_of(2) == 0.0


def _random_batch(rng, n_devices=6):
    n = rng.randint(0, 5)
    tasks = [task(i, owner=rng.randrange(n_devices), value=rng.uniform(0, 10)) for i in range(n)]
    sources = [source(i, owner=rng.randrange(n_devices)) for i in range(n)]
    return tasks, sources, match(*[(i, i) for i in range(n)])


def test_conservation_over_random_batches():
    rng = random.Random(2024)
    ledger = PriorityLedger()
    for _ in range(500):
        tasks, sources, m = _random_batch(rng)
        before = ledger.total()
        apply_settlement(m, tasks, sources, ledger, W)
        assert abs(ledger.total() - before) <= 1e-9


def test_replay_determinism():
    rng = random.Random(77)
    batches = [_random_batch(rng) for _ in range(100)]

    def play():
        ledger = PriorityLedger()
        for tasks, sources, m in batches:
            apply_settlement(m, tasks, sources, ledger, W)
        return ledger.snapshot(), ledger.batch_seq

    first = play()
    assert play() == first

    # event-sourced oracle: recompute every balance from the recorded amounts
    ledger = PriorityLedger()
    all_records = []
    for tasks, sources, m in batches:
        all_records.extend(apply_settlement(m, tasks, sources, ledger, W))
    replayed: dict[int, float] = {}
    for r in all_records:
        replayed[r.receiver_device] = replayed.get(r.receiver_device, 0.0) - r.amount
        replayed[r.provider_device] = replayed.get(r.provider_device, 0.0) + r.amount
    for device, bal in ledger.snapshot().items():
        assert bal == pytest.approx(replayed.get(device, 0.0), abs=1e-9)


def test_provider_only_never_decreases():
    rng = random.Random(13)
    for _ in range(100):
        tasks, sources, m = _random_batch(rng)
        ledger = PriorityLedger({d: rng.uniform(0, 5) for d in range(6)})
        before = ledger.snapshot()
        records = apply_settlement(m, tasks, sources, ledger, W)
        receivers = {r.receiver_device for r in records}
        providers = {r.provider_device for r in records}
        for d in providers - receivers:
            assert ledger.balance_of(d) >= before.get(d, 0.0) - 1e-12
        for d in receivers - providers:
            assert ledger.balance_of(d) <= before.get(d, 0.0) + 1e-12
