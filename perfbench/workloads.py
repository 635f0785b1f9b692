"""The benchmark's workloads, written as scenario dicts for ``cli.build_config``.

Every workload runs the README scenario for 200 steps; the seed given to the
benchmark becomes ``rng_seed``.  Each workload stresses a different layer, and
``cloud-baseline`` is the one a matching change must leave unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    why: str
    scenario: dict = field(default_factory=dict)


WORKLOADS = {
    "default-crl": Workload(
        why="README scenario, leasing policy: sparse matrix (about 3% of cells feasible), so matching scan and aging dominate",
        scenario={"policy": "crl"},
    ),
    "cloud-baseline": Workload(
        why="same arrival stream, all-to-cloud policy: matching and settlement never run, so only arrivals, aging and sampling show",
        scenario={"policy": "cloud"},
    ),
    "lease-heavy": Workload(
        why="3x task rate and fast sources: dense matrix, about 30 leases a step, so settlement, lease records and JSON emission write",
        scenario={
            "policy": "crl",
            "workload": {"task_arrival_rate": 30.0, "rate_range": [50.0, 400.0]},
        },
    ),
}
