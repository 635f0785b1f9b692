"""Priority ledger and batch settlement of completed leases."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Task, SourceNode, WeightsConfig, compute_settlement_amount


@dataclass(frozen=True)
class SettlementRecord:
    """One receiver-to-provider priority transfer for a matched task.

    ``floored`` marks transfers whose raw amount came out negative (possible
    with a negative receiver balance) and was clamped to zero.
    """

    task_id: int
    receiver_device: int
    provider_device: int
    amount: float
    step: int
    floored: bool = False


class PriorityLedger:
    """Per-device priority balances, mutated only by settlement batches.

    Unknown devices implicitly hold balance 0.  The sum of all balances is
    conserved by every batch: each debit has an equal credit.
    """

    def __init__(self, initial=None):
        self._balances: dict[int, float] = dict(initial) if initial else {}
        self.batch_seq = 0

    def balance_of(self, device_id: int) -> float:
        return self._balances.get(device_id, 0.0)

    def snapshot(self) -> dict[int, float]:
        return dict(self._balances)

    def total(self) -> float:
        return sum(self._balances.values())

    def _apply(self, deltas: dict[int, float]):
        for device_id, delta in deltas.items():
            self._balances[device_id] = self._balances.get(device_id, 0.0) + delta
        self.batch_seq += 1


def apply_settlement(
    matches,
    tasks,
    sources,
    ledger: PriorityLedger,
    weights: WeightsConfig,
    step: int = 0,
) -> list[SettlementRecord]:
    """Settle one round's assignments as a single simultaneous batch.

    Every amount is computed from the receiver's pre-batch balance before any
    balance moves, so the result does not depend on assignment order.  An
    assignment referencing an unknown task or source rejects the whole batch
    with the ledger untouched.
    """
    task_by_id: dict[int, Task] = {t.task_id: t for t in tasks}
    source_by_id: dict[int, SourceNode] = {s.source_id: s for s in sources}

    records: list[SettlementRecord] = []
    deltas: dict[int, float] = {}
    for a in matches.assignments:
        if a.task_id not in task_by_id:
            raise ValueError(f"settlement batch references unknown task {a.task_id}")
        if a.source_id not in source_by_id:
            raise ValueError(f"settlement batch references unknown source {a.source_id}")
        task = task_by_id[a.task_id]
        receiver = task.owner_id
        provider = source_by_id[a.source_id].owner_id
        amount = compute_settlement_amount(task, ledger.balance_of(receiver), weights)
        floored = amount < 0.0
        if floored:
            amount = 0.0
        records.append(
            SettlementRecord(
                task_id=a.task_id,
                receiver_device=receiver,
                provider_device=provider,
                amount=amount,
                step=step,
                floored=floored,
            )
        )
        deltas[receiver] = deltas.get(receiver, 0.0) - amount
        deltas[provider] = deltas.get(provider, 0.0) + amount

    ledger._apply(deltas)
    return records
