"""Golden reports: sha256 digests of the CSV and JSON reports for seed 1.

A fixed seed gives byte-identical reports, so a change that leaves these
digests alone preserves behaviour.  A change that moves one is a behaviour
change: re-pin the digest and log old -> new in CHANGES.md.

The ``crl``, ``cloud`` and ``lease-heavy`` cases are the benchmark's
workloads on seed 1 (``crl`` is the default, W = 3).  Their digests and
counts are not written here but read, read-only, from the benchmark's
seed-1 records in ``perfbench/baseline/``, which also pin the counts of the
benchmark's per-layer tracer (checked below).  Re-pinning one of them means
re-recording its two baseline files with ``perfbench/run.py --workload NAME
--trace 0`` and ``--trace 1``, which write their records to
``perfbench/out/``.

``lease-heavy-x16`` runs lease-heavy for 60 steps at 16 times the source
arrival rate, so its pool grows to about 28k rows and every round matches a
wide shortlist.  The ``devices-2e32`` cases own their objects among
``2**32`` devices, so every step draws its arrivals one scalar at a time
rather than from a replayed block; ``cloud-step-2.5-x4`` ages a
four-times-larger pool by an inexact 2.5 s a step.  ``crl-equal-rates``
gives every source one rate, so every preference value of a task ties and
most shortlists are hundreds of rows wide.  ``crl-near-equal-rates`` draws
the rates from within four ulps of 50, so sources of different rates often
give a task one rounded quotient; each task still leases its fastest free
feasible source, and these digests pin that rule.  Every float total in the
reports is a left-to-right fold (``np.cumsum`` or a loop), not the builtin
``sum``, which CPython 3.12 made compensated.  The digests were taken on
CPython 3.11.
"""

import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import pytest

from crlsim.cli import build_config
from crlsim.metrics import emit_report
from crlsim.model import WeightsConfig
from crlsim.simulator import POLICIES, SimConfig, WorkloadConfig, run

from audit import report_violations
from scenarios import LEASE_HEAVY

CASES = {
    "crl": SimConfig(rng_seed=1, policy="crl"),
    "cloud": SimConfig(rng_seed=1, policy="cloud"),
    "lease-heavy": SimConfig(rng_seed=1, policy="crl", workload=LEASE_HEAVY),
    **{f"w{w}": SimConfig(rng_seed=1, policy="crl", weights=WeightsConfig(max_rounds_w=w)) for w in (1, 2, 5)},
    "source-rate-x4": SimConfig(rng_seed=1, policy="crl", workload=WorkloadConfig(source_arrival_rate=120.0)),
    "lease-heavy-x16": SimConfig(
        rng_seed=1, policy="crl", steps=60, workload=dataclasses.replace(LEASE_HEAVY, source_arrival_rate=480.0)
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

# Every other case, name -> (csv sha256, json sha256, (arrived, matched, migrated, pending)).
GOLDEN = {
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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_WORKLOADS = {"crl": "default-crl", "cloud": "cloud-baseline", "lease-heavy": "lease-heavy"}
# The layers whose traced counts the benchmark's seed-1 trace record pins.
TRACED_COUNTS = {
    "simulator.arrivals": ("tasks", "sources"),
    "simulator.aging": ("items", "expired"),
    "matching.greedy_match": ("leases", "unmatched"),
    "matching.classify": ("deferred", "escalated"),
    "settlement.apply": ("records", "floored"),
}


def perfbench_module(name):
    """Load ``perfbench/<name>.py`` without putting ``perfbench/`` on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def baseline_record(name, trace):
    path = PERFBENCH / "baseline" / f"BENCH_{BENCH_WORKLOADS[name]}_seed1_trace{trace}.json"
    return json.loads(path.read_text())


def golden(name):
    """(csv sha256, json sha256, (arrived, matched, migrated, pending)) of a case."""
    if name not in BENCH_WORKLOADS:
        return GOLDEN[name]
    record = baseline_record(name, 0)
    counts = record["counts"]
    return (record["digests"]["csv_sha256"], record["digests"]["json_sha256"],
            (counts["arrived"], counts["matched"], counts["migrated"], counts["pending"]))


def digest(report, fmt):
    buffer = io.StringIO()
    emit_report(report, fmt, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden_digests(name):
    report = run(CASES[name])
    csv_sha, json_sha, counts = golden(name)
    assert (report.arrived_tasks, report.matched_tasks, report.migrated_tasks, report.pending_tasks) == counts
    assert report_violations(report) == [], name
    assert digest(report, "csv") == csv_sha
    assert digest(report, "json") == json_sha


def test_file_emission_matches_buffer(tmp_path):
    report = run(SimConfig(steps=20, rng_seed=1))
    for fmt in ("csv", "json"):
        path = tmp_path / f"r.{fmt}"
        emit_report(report, fmt, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest(report, fmt)


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_golden_equals_benchmark_baseline(name):
    workloads = perfbench_module("workloads").WORKLOADS
    assert build_config(workloads[BENCH_WORKLOADS[name]].scenario, {"rng_seed": 1}) == CASES[name]


@pytest.mark.parametrize("name", sorted(BENCH_WORKLOADS))
def test_traced_counts_equal_benchmark_baseline(name):
    """The benchmark's tracer finds every layer it wraps in ``src/`` and counts
    what its seed-1 trace record pins.  It looks the layers up by name, so a
    renamed, deleted or re-shaped layer fails here."""
    tracer_module = perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    modules = {module: importlib.import_module(f"crlsim.{module}") for module, *_ in tracer_module.LAYERS}
    with tracer_module.traced_layers(tracer, modules) as absent:
        report = tracer.wrap(tracer_module.ROOT_SPAN, run)(CASES[name])
    assert sorted(absent) == []
    assert sorted(tracer.uncounted & TRACED_COUNTS.keys()) == []
    keys = [f"{layer}.{count}" for layer, counts in TRACED_COUNTS.items() for count in counts]
    recorded = baseline_record(name, 1)["metrics"]
    assert {key: tracer.counts[key] for key in keys} == {key: recorded[key]["value"] for key in keys}
    assert tracer.counts["matching.greedy_match.leases"] == report.matched_tasks
    assert tracer.counts["settlement.apply.records"] == len(report.settlement_records)


def test_readme_deviation_figures():
    """README's "Deviations from the paper" quotes figures of the seed-1
    benchmark runs: the occupancy audit of ``default-crl`` and ``lease-heavy``
    from their records, and the self-leases of ``default-crl``."""
    readme = (PERFBENCH.parent / "README.md").read_text()
    section = re.search(r"^### Deviations from the paper\n(.*?)^#", readme, re.M | re.S).group(1)
    deviations = " ".join(section.split())
    quoted = re.findall(r"`([\w-]+)`: (\d+) of (\d+) leases overlap an earlier lease on their source, "
                        r"and (\d+) would finish after their deadline", deviations)
    records = {BENCH_WORKLOADS[name]: baseline_record(name, 0) for name in ("crl", "lease-heavy")}
    assert {workload: tuple(map(int, figures)) for workload, *figures in quoted} == {
        workload: (record["audit"]["overlapping_leases"], record["counts"]["leases"], record["audit"]["late_if_serial"])
        for workload, record in records.items()
    }
    leases = run(CASES["crl"]).settlement_records
    self_leases = sum(lease.receiver_device == lease.provider_device for lease in leases)
    quoted = re.search(r"On `default-crl`, (\d+) of (\d+) leases have receiver == provider", deviations)
    assert tuple(map(int, quoted.groups())) == (self_leases, len(leases))
