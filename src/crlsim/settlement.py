"""Batch settlement of completed leases against the priority ledger."""

from __future__ import annotations

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


def apply_settlement(
    leased: TaskQueue,
    providers: np.ndarray,
    ledger: dict[int, float],
    weights: WeightsConfig,
    step: int = 0,
) -> ColumnLog:
    """Settle one round's leases as a single simultaneous batch.

    Row k of ``leased`` is a leased task and ``providers[k]`` the owner of
    the source serving it.  Every amount is (gamma_n * value + gamma_m *
    balance) * conversion_rate_r, with the receiver's pre-batch balance,
    floored at 0 and taken before any balance moves, so the result does not
    depend on lease order.  Returns the batch's ``SettlementRecord`` rows as
    numpy columns: ``leased.ids``, ``leased.owners`` and ``providers``
    themselves, float64 amounts, int64 steps and bool ``floored``.  Columns
    of unequal length raise ValueError with the ledger untouched.
    ``ledger`` maps a device to its balance, 0 if absent; each batch
    conserves the sum of all balances, as every debit has an equal credit.
    """
    amounts, floors = [], []
    deltas: dict[int, float] = {}
    balance = ledger.get
    gamma_n, gamma_m, conversion = weights.gamma_n, weights.gamma_m, weights.conversion_rate_r
    # A loop, not an array expression: the deltas fold per device in lease order.
    for receiver, value, provider in zip(leased.owners.tolist(), leased.value.tolist(), providers.tolist(), strict=True):
        amount = (gamma_n * value + gamma_m * balance(receiver, 0.0)) * conversion
        floored = amount < 0.0
        if floored:
            amount = 0.0
        amounts.append(amount)
        floors.append(floored)
        deltas[receiver] = deltas.get(receiver, 0.0) - amount
        deltas[provider] = deltas.get(provider, 0.0) + amount

    for device_id, delta in deltas.items():
        ledger[device_id] = balance(device_id, 0.0) + delta
    return ColumnLog(SettlementRecord, (leased.ids, leased.owners, providers, np.array(amounts, dtype=np.float64),
                                        np.full(len(amounts), step, dtype=np.int64), np.array(floors, dtype=bool)))
