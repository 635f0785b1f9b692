"""Golden reports: sha256 digests of the CSV and JSON reports for seed 1.

A fixed seed gives byte-identical reports, so a change that leaves these
digests alone preserves behaviour.  A change that moves one is a behaviour
change.  Every pin is in ``tests/golden.json``; re-pin with ``python
tests/repin.py`` (with ``src/`` on the path), which prints one old -> new
line per moved pin for CHANGES.md.

The ``crl``, ``cloud`` and ``lease-heavy`` cases are the benchmark's
workloads on seed 1 (``crl`` is the default, W = 3).  They run under the
benchmark's per-layer tracer, ``perfbench/tracer.py`` loaded read-only, and
their pins also hold ten of its counts.  Nothing here reads the benchmark's
own seed-1 records in ``perfbench/baseline/``: only a change to the benchmark
re-records them, so they may be stale.

``lease-heavy-x16`` runs lease-heavy for 60 steps at 16 times the source
arrival rate, so its pool grows to about 28k rows and every round matches a
wide shortlist.  The ``devices-2e32`` cases own their objects among
``2**32`` devices, so owners past the int32 range, up to ``2**32 - 1``,
pass through the int64 owner columns, the ledger's keys and the JSON
report; ``cloud-step-2.5-x4`` ages a
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
from records import as_read_back, read_back
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

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_WORKLOADS = {"crl": "default-crl", "cloud": "cloud-baseline", "lease-heavy": "lease-heavy"}
# The layers whose traced counts the benchmark cases pin.
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


def emitted(report, fmt):
    buffer = io.StringIO()
    emit_report(report, fmt, buffer)
    return buffer.getvalue()


def digest(report, fmt):
    return hashlib.sha256(emitted(report, fmt).encode()).hexdigest()


def traced_run(name):
    """Run benchmark case ``name`` under the benchmark's per-layer tracer and
    return its report and its counts of TRACED_COUNTS.  The tracer must find
    every layer it wraps in ``src/`` and count those in TRACED_COUNTS.  It
    looks the layers up by name, so a renamed, deleted or re-shaped layer
    fails here."""
    tracer_module = perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    modules = {module: importlib.import_module(f"crlsim.{module}") for module, *_ in tracer_module.LAYERS}
    with tracer_module.traced_layers(tracer, modules) as absent:
        report = tracer.wrap(tracer_module.ROOT_SPAN, run)(CASES[name])
    assert sorted(absent) == []
    assert sorted(tracer.uncounted & TRACED_COUNTS.keys()) == []
    assert tracer.counts["matching.greedy_match.leases"] == report.matched_tasks
    assert tracer.counts["settlement.apply.records"] == len(report.settlement_records)
    return report, {f"{layer}.{count}": tracer.counts[f"{layer}.{count}"]
                    for layer, counts in TRACED_COUNTS.items() for count in counts}


def observe(name):
    """The pins of case ``name``: its report digests and counts and, for a
    benchmark workload, its traced counts.  The digests of a traced run are
    its report's, as tracing leaves the report alone.  Fails on a run the
    report checker or the tracer contract faults, or whose JSON report does
    not read back to its every sample, log row and ledger entry, so none is
    ever pinned."""
    if name in BENCH_WORKLOADS:
        report, traced = traced_run(name)
    else:
        report, traced = run(CASES[name]), {}
    assert report_violations(report) == [], name
    assert repr(read_back(emitted(report, "json"))) == repr(as_read_back(report)), name
    return {"csv_sha256": digest(report, "csv"), "json_sha256": digest(report, "json"),
            "arrived": report.arrived_tasks, "matched": report.matched_tasks,
            "migrated": report.migrated_tasks, "pending": report.pending_tasks, **traced}


def render(pins):
    """The text of ``tests/golden.json`` holding ``pins``."""
    return json.dumps(pins, indent=2, sort_keys=True) + "\n"


PINS = json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_match_golden_digests(name):
    assert observe(name) == PINS[name]


def test_golden_json_is_as_repin_writes_it():
    # repin.py rewrites the whole file, so a re-pin's diff shows only the moved values.
    assert sorted(PINS) == sorted(CASES)
    assert render(PINS) == GOLDEN_PATH.read_text()


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
    """On the benchmark's seed-1 workloads the tracer keeps its contract, its
    counts are the pinned ones, and the traced report is byte-equal to an
    untraced run's, which ``observe`` relies on to take a benchmark case's
    digests from its traced run."""
    report, traced = traced_run(name)
    assert traced == {key: PINS[name][key] for key in traced}
    untraced = run(CASES[name])
    assert [digest(report, fmt) for fmt in ("csv", "json")] == [digest(untraced, fmt) for fmt in ("csv", "json")]


def test_readme_deviation_figures():
    """README's "Deviations from the paper" quotes figures of the seed-1
    benchmark runs: the occupancy audit of ``default-crl`` and ``lease-heavy``,
    counted by the benchmark's ``perfbench/checks.py`` loaded read-only, and
    the self-leases of ``default-crl``."""
    readme = (PERFBENCH.parent / "README.md").read_text()
    section = re.search(r"^### Deviations from the paper\n(.*?)^#", readme, re.M | re.S).group(1)
    deviations = " ".join(section.split())
    quoted = re.findall(r"`([\w-]+)`: (\d+) of (\d+) leases overlap an earlier lease on their source, "
                        r"and (\d+) would finish after their deadline", deviations)
    audit_occupancy = perfbench_module("checks").audit_occupancy
    reports = {name: run(CASES[name]) for name in ("crl", "lease-heavy")}
    audits = {name: audit_occupancy(report, CASES[name].step_seconds) for name, report in reports.items()}
    assert {workload: tuple(map(int, figures)) for workload, *figures in quoted} == {
        BENCH_WORKLOADS[name]: (audit["overlapping_leases"], len(reports[name].assignment_records), audit["late_if_serial"])
        for name, audit in audits.items()
    }
    leases = reports["crl"].settlement_records
    self_leases = sum(lease.receiver_device == lease.provider_device for lease in leases)
    quoted = re.search(r"On `default-crl`, (\d+) of (\d+) leases have receiver == provider", deviations)
    assert tuple(map(int, quoted.groups())) == (self_leases, len(leases))
