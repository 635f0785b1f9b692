"""Golden reports: sha256 digests of the CSV and JSON reports for seed 1.

A fixed seed gives byte-identical reports, so a change that leaves these
digests alone preserves behaviour.  A change that moves one is a behaviour
change: re-pin the digest and log old -> new in CHANGES.md.  The ``crl``,
``cloud`` and ``lease-heavy`` cases are the benchmark's workloads on seed 1,
and their digests and counts equal its records in ``perfbench/baseline/``
(checked below, read-only).  ``lease-heavy-x16`` runs lease-heavy for 60
steps at 16 times the source arrival rate, so its pool grows to about 28k
rows and every round matches a wide shortlist.  The ``devices-2e32`` cases
own their objects among ``2**32`` devices, so every step draws its arrivals
one scalar at a time rather than from a replayed block; ``cloud-step-2.5-x4``
ages a four-times-larger pool by an inexact 2.5 s a step.  ``crl-equal-rates``
gives every source one rate, so every preference value of a task ties and
most shortlists are hundreds of rows wide.  ``crl-near-equal-rates`` draws
the rates from within four ulps of 50, so sources of different rates often
give a task one rounded quotient; each task still leases its fastest free
feasible source, and these digests pin that rule.  Every float total in the reports
is a left-to-right fold (``np.cumsum`` or a loop), not the builtin ``sum``,
which CPython 3.12 made compensated.  The digests were taken on CPython 3.11.
"""

import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from crlsim.cli import build_config
from crlsim.metrics import emit_report
from crlsim.model import WeightsConfig
from crlsim.simulator import POLICIES, SimConfig, WorkloadConfig, run

CASES = {
    "crl": SimConfig(rng_seed=1, policy="crl"),
    "cloud": SimConfig(rng_seed=1, policy="cloud"),
    "lease-heavy": SimConfig(
        rng_seed=1, policy="crl", workload=WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0))
    ),
    **{f"w{w}": SimConfig(rng_seed=1, policy="crl", weights=WeightsConfig(max_rounds_w=w)) for w in (1, 2, 3, 5)},
    "source-rate-x4": SimConfig(rng_seed=1, policy="crl", workload=WorkloadConfig(source_arrival_rate=120.0)),
    "lease-heavy-x16": SimConfig(
        rng_seed=1, policy="crl", steps=60,
        workload=WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 400.0), source_arrival_rate=480.0),
    ),
    **{f"{policy}-devices-2e32": SimConfig(rng_seed=1, policy=policy, steps=60, workload=WorkloadConfig(device_count=2**32))
       for policy in POLICIES},
    "cloud-step-2.5-x4": SimConfig(
        rng_seed=1, policy="cloud", step_seconds=2.5, workload=WorkloadConfig(source_arrival_rate=120.0)
    ),
    "crl-equal-rates": SimConfig(
        rng_seed=1, policy="crl", steps=60, workload=WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 50.0))
    ),
    "crl-near-equal-rates": SimConfig(
        rng_seed=1, policy="crl", steps=60,
        workload=WorkloadConfig(task_arrival_rate=30.0, rate_range=(50.0, 50.00000000000003)),
    ),
}

# name -> (csv sha256, json sha256, (arrived, matched, migrated, pending))
GOLDEN = {
    "crl": (
        "6d6787803d3a6de5cb3db51bb5f75f8e4c750a8a23fbe5a72c05e2c478d4a6f6",
        "74158b4282ae62e9f77c3c14153d85f1246cabd4d4851d62f84de5aa610ae1e6",
        (1968, 494, 1456, 18),
    ),
    "cloud": (
        "d5f7dfb225961640e3b8e719859ab3f1549cfbde9f91b9ca05d30c95dd8c6c68",
        "379719a7597131115a79abad97eb2bcbfa94539dc319eea6d6754ebc86cc09b6",
        (1968, 0, 1968, 0),
    ),
    "lease-heavy": (
        "9f2499f3af9b6c0280a335eab1d7677c9a13f4ba9d68dc0f12d4bfb20d49b865",
        "1faeefa4033df7cde2b6b33bc92c6b1cf59b140f87462eeda1e877bbc28835ae",
        (6010, 5921, 87, 2),
    ),
    "w1": (
        "65493a37b7e3ecd88682d8d50861ef2504cdb3c93492e8c1fed913aa235273fd",
        "6f8f3ea70642c5a67017b6e906e5f3aac56e53d200defc9e4430a6a37f732cdc",
        (1968, 494, 1474, 0),
    ),
    "w2": (
        "7ffa43b8fa0fecaf086e1e3580f425acb0a0d3b7f53006ee74d56262cab18b55",
        "2443dde1b2faa1340322cbfa7385650529551bebe9cfff159c7bd44dda2eac51",
        (1968, 494, 1465, 9),
    ),
    # W = 3 is the default, so it reproduces "crl"
    "w3": (
        "6d6787803d3a6de5cb3db51bb5f75f8e4c750a8a23fbe5a72c05e2c478d4a6f6",
        "74158b4282ae62e9f77c3c14153d85f1246cabd4d4851d62f84de5aa610ae1e6",
        (1968, 494, 1456, 18),
    ),
    "w5": (
        "61a0f6faae1cb1ea38b2243db88b1092bb588359d002b97ae471db470c3c1eed",
        "2dc347d08e550485f3e5c62955837ee02d9b0ad1787a445c19b6c36b9f7b8711",
        (1968, 494, 1448, 26),
    ),
    "source-rate-x4": (
        "b3a906bfc69eae47ccca40ca313e5020934c82ed3ed987caa09d691e9f3e08f9",
        "e13b5a513f167e3811a7636bc071bab9e96e75f7cb2b0b508afaba7c8ae3f3df",
        (1950, 486, 1450, 14),
    ),
    "lease-heavy-x16": (
        "29109096d8e1ea8c0f7ecec85545fa51b4ca9227efcf2afa03d9d0bee691798f",
        "30d8de09675a5aa3dcba6b74f91e00ab5aba1b759a6484760de0ae256f65aa46",
        (1775, 1753, 21, 1),
    ),
    "crl-devices-2e32": (
        "2d70121fe3f33a96cb0a1fc6f8a7209acbcb3eacb6cf744589fc4e82991d3b25",
        "972f5cf4a04c302ec9934ca7f3f8e93769af95e7a81af851e0f2d53db880cc4e",
        (600, 150, 436, 14),
    ),
    "cloud-devices-2e32": (
        "dc35fc822fbd4f7adf8ff4cb937a4f9ef4b1c32eb7854b6c71401248d4af9919",
        "f3555a57d9d70640353c7cf2fb563b2662167ebbc955ba81b65279d7aebe0c04",
        (600, 0, 600, 0),
    ),
    "cloud-step-2.5-x4": (
        "31e7c4840e059e0b6abb916871e206ec2f463199e4855141a46fedc9b1de7cd4",
        "024d7843b77fa046d95b4010ded7ce036743913ebfe51a9d24f37ade751615c7",
        (1950, 0, 1950, 0),
    ),
    "crl-equal-rates": (
        "0603aa4670f774a1e6b4c6f9f595ec4b47aacf8c5e680d66b33f8bc31087c365",
        "91e043be486866f10abb66fd130afe54e5b83008b450221e23b3ea24489cb1c3",
        (1822, 615, 1160, 47),
    ),
    "crl-near-equal-rates": (
        "783b5255c61f4631e10d2cd48911b1718d29f6123ce923351b74b3a53efc9230",
        "d6b6b1b6628f4aff87eb5ce046cd5c4cb315b66e8731c8ee807f419dcbcb22b4",
        (1822, 615, 1160, 47),
    ),
}


def digest(report, fmt):
    buffer = io.StringIO()
    emit_report(report, fmt, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden_digests(name):
    report = run(CASES[name])
    csv_sha, json_sha, counts = GOLDEN[name]
    assert (report.arrived_tasks, report.matched_tasks, report.migrated_tasks, report.pending_tasks) == counts
    assert digest(report, "csv") == csv_sha
    assert digest(report, "json") == json_sha


def test_file_emission_matches_buffer(tmp_path):
    report = run(SimConfig(steps=20, rng_seed=1))
    for fmt in ("csv", "json"):
        path = tmp_path / f"r.{fmt}"
        emit_report(report, fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest(report, fmt)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_WORKLOADS = {"crl": "default-crl", "cloud": "cloud-baseline", "lease-heavy": "lease-heavy"}


def bench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_golden_equals_benchmark_baseline(name):
    workload = BENCH_WORKLOADS[name]
    assert build_config(bench_workloads()[workload].scenario, {"rng_seed": 1}) == CASES[name]
    record = json.loads((PERFBENCH / "baseline" / f"BENCH_{workload}_seed1_trace0.json").read_text())
    csv_sha, json_sha, counts = GOLDEN[name]
    assert record["digests"] == {"csv_sha256": csv_sha, "json_sha256": json_sha}
    recorded = record["counts"]
    assert (recorded["arrived"], recorded["matched"], recorded["migrated"], recorded["pending"]) == counts
