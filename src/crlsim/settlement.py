"""Priority ledger and batch settlement of completed leases."""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import ColumnLog, TaskQueue, WeightsConfig


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

    def balances_of(self, device_ids: list) -> np.ndarray:
        """The balances of ``device_ids``, in order, as one float64 array."""
        return np.fromiter(map(self._balances.get, device_ids, repeat(0.0)), dtype=np.float64, count=len(device_ids))

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
) -> ColumnLog:
    """Settle one round's leases as a single simultaneous batch.

    Row k of ``leased`` is a leased task and ``providers[k]`` the owner of
    the source serving it.  Every amount is (gamma_n * value + gamma_m *
    balance) * conversion_rate_r, with the receiver's pre-batch balance,
    floored at 0 and taken before any balance moves, so the result does not
    depend on lease order.  Returns the batch's ``SettlementRecord`` rows as
    list columns.  Columns of unequal length raise ValueError with the
    ledger untouched.
    """
    receivers, providers = leased.owners.tolist(), providers.tolist()
    amounts, floors = [], []
    deltas: dict[int, float] = {}
    balance = ledger._balances.get
    gamma_n, gamma_m, conversion = weights.gamma_n, weights.gamma_m, weights.conversion_rate_r
    # A loop, not an array expression: the deltas fold per device in lease order.
    for receiver, value, provider in zip(receivers, leased.value.tolist(), providers, strict=True):
        amount = (gamma_n * value + gamma_m * balance(receiver, 0.0)) * conversion
        floored = amount < 0.0
        if floored:
            amount = 0.0
        amounts.append(amount)
        floors.append(floored)
        deltas[receiver] = deltas.get(receiver, 0.0) - amount
        deltas[provider] = deltas.get(provider, 0.0) + amount

    ledger._apply(deltas)
    return ColumnLog(SettlementRecord, (leased.ids.tolist(), receivers, providers, amounts, [step] * len(amounts), floors))
