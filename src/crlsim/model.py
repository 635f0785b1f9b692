"""Domain types and the two scalar formulas shared by every other module."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Task:
    """One unit of computation demand owned by a device.

    ``deadline_s`` is seconds remaining until the task must complete; it is
    positive at creation and shrinks while the task waits in the queue.
    ``rounds_deferred`` counts matching rounds the task has already failed.
    """

    task_id: int
    owner_id: int
    deadline_s: float
    cycles_required: float
    value: float
    arrival_step: int = 0
    rounds_deferred: int = 0

    def __post_init__(self):
        if self.cycles_required <= 0:
            raise ValueError(f"task {self.task_id}: cycles_required must be > 0")
        if self.value < 0:
            raise ValueError(f"task {self.task_id}: value must be >= 0")
        if self.rounds_deferred < 0:
            raise ValueError(f"task {self.task_id}: rounds_deferred must be >= 0")


@dataclass(frozen=True)
class SourceNode:
    """One idle or semi-idle provider offering compute time."""

    source_id: int
    owner_id: int
    idle_seconds: float
    cycles_per_second: float

    def __post_init__(self):
        if self.cycles_per_second <= 0:
            raise ValueError(f"source {self.source_id}: cycles_per_second must be > 0")
        if self.idle_seconds < 0:
            raise ValueError(f"source {self.source_id}: idle_seconds must be >= 0")

    @property
    def capacity(self) -> float:
        """Total cycles this source can still deliver."""
        return self.cycles_per_second * self.idle_seconds


@dataclass(eq=False)  # the generated __eq__ would compare arrays elementwise and raise
class SourcePool:
    """The idle-source pool as four parallel columns in ascending source_id order.

    Row j is one source: ``ids[j]``, ``owners[j]``, ``idle[j]`` (seconds it
    still offers) and ``rate[j]`` (cycles per second).  Because ids ascend,
    the first maximum of any per-row quantity belongs to the lowest source_id.
    """

    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    owners: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    idle: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    rate: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    @classmethod
    def of(cls, sources) -> SourcePool:
        """``sources`` itself if it is a pool, else a pool of its SourceNodes sorted by id."""
        if isinstance(sources, cls):
            return sources
        nodes = sorted(sources, key=lambda s: s.source_id)
        return cls(
            ids=np.array([s.source_id for s in nodes], dtype=np.int64),
            owners=np.array([s.owner_id for s in nodes], dtype=np.int64),
            idle=np.array([s.idle_seconds for s in nodes], dtype=np.float64),
            rate=np.array([s.cycles_per_second for s in nodes], dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def node(self, row: int) -> SourceNode:
        """Row ``row`` as a SourceNode of plain Python numbers."""
        return SourceNode(
            source_id=int(self.ids[row]),
            owner_id=int(self.owners[row]),
            idle_seconds=float(self.idle[row]),
            cycles_per_second=float(self.rate[row]),
        )

    def rows(self, source_ids) -> np.ndarray:
        """Row indices of pooled sources, by id."""
        return np.searchsorted(self.ids, source_ids)

    def extend(self, sources) -> None:
        """Append newly arrived sources, whose ids exceed every pooled id."""
        new = SourcePool.of(sources)
        self.ids = np.concatenate((self.ids, new.ids))
        self.owners = np.concatenate((self.owners, new.owners))
        self.idle = np.concatenate((self.idle, new.idle))
        self.rate = np.concatenate((self.rate, new.rate))

    def age(self, seconds: float) -> None:
        """Let ``seconds`` of idle time pass; sources left with none leave the pool."""
        self.idle = self.idle - seconds
        self._keep(self.idle > 0)

    def consume(self, rows, busy_seconds) -> None:
        """Subtract leased seconds from ``rows``; of those, drop the ones left with none."""
        rows = np.asarray(rows, dtype=np.intp)
        self.idle[rows] -= np.asarray(busy_seconds, dtype=np.float64)
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = self.idle[rows] > 0
        self._keep(keep)

    def _keep(self, mask: np.ndarray) -> None:
        self.ids, self.owners = self.ids[mask], self.owners[mask]
        self.idle, self.rate = self.idle[mask], self.rate[mask]


@dataclass(frozen=True)
class DeviceAccount:
    """Snapshot of one device's priority balance."""

    device_id: int
    priority_balance: float


@dataclass(frozen=True)
class WeightsConfig:
    """Tunable weights and limits for matching, settlement and escalation.

    gamma_t / gamma_p weight the value-per-cycle term and the owner balance in
    the matching priority; gamma_n / gamma_m weight task value and owner
    balance in the settlement amount.  conversion_rate_r converts the weighted
    sum into priority units.  max_rounds_w is the number of failed matching
    rounds before a task escalates to the cloud.  tau_s is the network
    membership latency threshold; it is informational and never simulated.
    """

    gamma_t: float = 0.5
    gamma_p: float = 0.5
    gamma_n: float = 0.5
    gamma_m: float = 0.5
    conversion_rate_r: float = 1.0
    max_rounds_w: int = 3
    tau_s: float = 0.1

    def __post_init__(self):
        for name in ("gamma_t", "gamma_p", "gamma_n", "gamma_m"):
            g = getattr(self, name)
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {g}")
        if self.conversion_rate_r <= 0:
            raise ValueError(f"conversion_rate_r must be > 0, got {self.conversion_rate_r}")
        if self.max_rounds_w < 1:
            raise ValueError(f"max_rounds_w must be >= 1, got {self.max_rounds_w}")


def compute_matching_priority(task: Task, owner_priority: float, weights: WeightsConfig) -> float:
    """Composite priority ordering tasks each round.

    Combines the task's value per required cycle with the accumulated balance
    of its owner: gamma_t * (value / cycles) + gamma_p * balance.
    """
    if task.cycles_required <= 0:
        raise ValueError(f"task {task.task_id}: cycles_required must be > 0")
    return weights.gamma_t * (task.value / task.cycles_required) + weights.gamma_p * owner_priority


def compute_settlement_amount(task: Task, owner_priority: float, weights: WeightsConfig) -> float:
    """Priority amount the receiver owes the provider for one completed lease.

    (gamma_n * value + gamma_m * receiver balance) * conversion_rate_r.
    """
    return (weights.gamma_n * task.value + weights.gamma_m * owner_priority) * weights.conversion_rate_r
