"""Workloads and scenarios that several test modules run: the benchmark's
lease-heavy workload and the random scenarios of acceptance criterion 7."""

import random

from crlsim.model import WeightsConfig
from crlsim.simulator import SimConfig, WorkloadConfig

# The benchmark's lease-heavy workload: 3x the task rate and fast sources, so
# the matrix is dense and about 30 tasks lease a step.
LEASE_HEAVY = WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0))


def random_configs(count=50, seed=4242):
    """``count`` leasing-policy configs with random rates, ranges, device
    counts, run lengths, seeds and retry limits, the same for a given seed."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        workload = WorkloadConfig(
            task_arrival_rate=rng.uniform(0, 12),
            source_arrival_rate=rng.uniform(0, 20),
            cycles_range=(100.0, rng.uniform(500, 4000)),
            deadline_range=(2.0, rng.uniform(10, 60)),
            idle_range=(5.0, rng.uniform(20, 80)),
            rate_range=(2.0, rng.uniform(10, 50)),
            device_count=rng.randint(2, 40),
        )
        configs.append(SimConfig(
            steps=rng.randint(10, 40),
            rng_seed=rng.randint(0, 10_000),
            weights=WeightsConfig(max_rounds_w=rng.randint(1, 5)),
            workload=workload,
        ))
    return configs
