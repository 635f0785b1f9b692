"""Priority ledger and batch settlement of completed leases."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import TaskQueue, WeightsConfig


class SettlementRecord(NamedTuple):
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

    def balance_of(self, device_id: int) -> float:
        return self._balances.get(device_id, 0.0)

    def snapshot(self) -> dict[int, float]:
        return dict(self._balances)

    def _apply(self, deltas: dict[int, float]):
        for device_id, delta in deltas.items():
            self._balances[device_id] = self._balances.get(device_id, 0.0) + delta


def apply_settlement(
    leased: TaskQueue,
    providers: np.ndarray,
    ledger: PriorityLedger,
    weights: WeightsConfig,
    step: int = 0,
) -> list[SettlementRecord]:
    """Settle one round's leases as a single simultaneous batch.

    Row k of ``leased`` is a leased task and ``providers[k]`` the owner of
    the source serving it.  Every amount is ``compute_settlement_amount`` of
    the task and its receiver's pre-batch balance, floored at 0, taken
    before any balance moves, so the result does not depend on lease order.
    Columns of unequal length raise ValueError with the ledger untouched.
    """
    records: list[SettlementRecord] = []
    deltas: dict[int, float] = {}
    columns = (leased.ids.tolist(), leased.owners.tolist(), leased.value.tolist(), providers.tolist())
    for task_id, receiver, value, provider in zip(*columns, strict=True):
        # compute_settlement_amount's expression, on the same floats.
        amount = (weights.gamma_n * value + weights.gamma_m * ledger.balance_of(receiver)) * weights.conversion_rate_r
        floored = amount < 0.0
        if floored:
            amount = 0.0
        records.append(SettlementRecord(task_id, receiver, provider, amount, step, floored))
        deltas[receiver] = deltas.get(receiver, 0.0) - amount
        deltas[provider] = deltas.get(provider, 0.0) + amount

    ledger._apply(deltas)
    return records
