import io
import json
import math
import random
import re
import numpy as np
import pytest

from crlsim.model import SourceNode, SourcePool
from crlsim.metrics import (
    AssignmentRecord,
    SimReport,
    StepSample,
    idle_capacity,
    emit_report,
    load_report_csv,
    compare_reports,
    CSV_COLUMNS,
    REPORT_SLICE,
)
from crlsim.settlement import SettlementRecord
from crlsim.simulator import SimConfig, run


def sample(step, policy="crl", idle=0.0, matched=0, deferred=0, migrated=0, mig_v=0.0, mig_c=0.0):
    return StepSample(step=step, policy=policy, idle_capacity=idle, matched=matched,
                      deferred=deferred, migrated=migrated,
                      migrated_value_cum=mig_v, migrated_cycles_cum=mig_c)


BIG = 2**53 + 1  # the first int a float cannot hold


def edge_reports():
    """A report holding the values emission must carry exactly (signed zero,
    the least subnormal, a near-overflow float, ints beyond float precision),
    and one with an empty ledger and no records."""
    extremes = SimReport(
        policy="crl",
        seed=BIG,
        samples=[sample(0, idle=-0.0, matched=BIG, mig_v=5e-324, mig_c=1e308),
                 sample(BIG, idle=1e308, deferred=2**64, migrated=BIG, mig_v=-0.0, mig_c=5e-324)],
        ledger_snapshot={BIG: -0.0, 3: 5e-324, -1: 1e308},
        settlement_records=[
            SettlementRecord(task_id=BIG, receiver_device=1, provider_device=2, amount=0.0, step=BIG, floored=True),
            SettlementRecord(task_id=0, receiver_device=2, provider_device=1, amount=5e-324, step=0),
        ],
        assignment_records=[AssignmentRecord(BIG, BIG, 2**64, 5e-324, 1e308, -0.0, 1e308, 5e-324)],
        arrived_tasks=BIG,
        matched_tasks=BIG - 1,
        migrated_tasks=1,
    )
    return [extremes, SimReport(policy="cloud", seed=0, samples=[sample(0)])]


def awkward_report(n):
    """A report whose JSON text a template writer could get wrong: a policy string
    holding a list separator, a newline, a quote and a format directive; NaN and
    infinities; a bool in an int field; and an empty record list next to one of
    ``n`` records."""
    policy = 'a, b\n"%s'
    return SimReport(
        policy=policy,
        seed=n,
        samples=[sample(k, policy=policy, idle=math.nan, matched=True, mig_v=math.inf, mig_c=-math.inf)
                 for k in range(n)],
        ledger_snapshot={1: math.nan, 2: -math.inf},
        assignment_records=[AssignmentRecord(k, k, False, 0.5, math.inf, 2.0, -math.inf, math.nan) for k in range(n)],
        pending_tasks=True,
    )


def asdict_payload(report):
    """The JSON payload built the reference way, each row as its ``_asdict()``."""
    return {
        "policy": report.policy,
        "seed": report.seed,
        "samples": [s._asdict() for s in report.samples],
        "ledger": {str(k): v for k, v in sorted(report.ledger_snapshot.items())},
        "settlement_records": [r._asdict() for r in report.settlement_records],
        "assignment_records": [r._asdict() for r in report.assignment_records],
        "arrived_tasks": report.arrived_tasks,
        "matched_tasks": report.matched_tasks,
        "migrated_tasks": report.migrated_tasks,
        "pending_tasks": report.pending_tasks,
    }


class TestIdleCapacity:
    def test_empty_pool(self):
        assert idle_capacity(SourcePool()) == 0.0

    def test_single_source(self):
        pool = SourcePool.of([SourceNode(source_id=0, owner_id=0, idle_seconds=5.0, cycles_per_second=10.0)])
        assert idle_capacity(pool) == 50.0

    def test_matches_naive_fold(self):
        rng = random.Random(12)
        nodes = [
            SourceNode(source_id=i, owner_id=0, idle_seconds=rng.uniform(0, 100),
                       cycles_per_second=rng.uniform(1, 50))
            for i in range(2500)
        ]
        total = 0.0
        for s in nodes:
            total += s.cycles_per_second * s.idle_seconds
        pool = SourcePool.of(nodes)
        # the reports pin every bit, so the fold order is part of the contract
        assert idle_capacity(pool) == total
        # pairwise summation gives a different last bit on this pool
        assert float(np.sum(pool.rate * pool.idle)) != total


class TestEmit:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(SimReport(policy="crl", seed=0), "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_double_emission_byte_identical(self, tmp_path):
        report = run(SimConfig(steps=20, rng_seed=9))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, "csv", p1)
        emit_report(report, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        for report in [run(SimConfig(steps=30, rng_seed=21)), *edge_reports()]:
            path = tmp_path / "r.csv"
            emit_report(report, "csv", path)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(load_report_csv(path)) == repr(report.samples)

    def test_emit_parse_emit_fixed_point(self, tmp_path):
        report = run(SimConfig(steps=15, rng_seed=8))
        p1 = tmp_path / "one.csv"
        emit_report(report, "csv", p1)
        reparsed = SimReport(policy=report.policy, seed=report.seed, samples=load_report_csv(p1))
        p2 = tmp_path / "two.csv"
        emit_report(reparsed, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_contains_ledger_and_records(self, tmp_path):
        simulated = run(SimConfig(steps=20, rng_seed=9))
        path = tmp_path / "r.json"
        emit_report(simulated, "json", path)
        data = json.loads(path.read_text())
        assert data["policy"] == "crl"
        assert len(data["samples"]) == 20
        assert "ledger" in data and "settlement_records" in data
        for report in [simulated, *edge_reports()]:
            emit_report(report, "json", path)
            assert path.read_text() == json.dumps(asdict_payload(report), indent=2) + "\n"

    # one record, exactly one slice, and two slices plus one
    @pytest.mark.parametrize("n", [1, REPORT_SLICE, 2 * REPORT_SLICE + 1])
    def test_json_equals_indented_dump(self, n, tmp_path):
        report = awkward_report(n)
        path = tmp_path / "r.json"
        emit_report(report, "json", path)
        buffer = io.StringIO()
        emit_report(report, "json", buffer)
        assert path.read_bytes() == buffer.getvalue().encode()
        assert buffer.getvalue() == json.dumps(asdict_payload(report), indent=2) + "\n"

    # The last two rows have the right width but a value that does not parse.
    @pytest.mark.parametrize("row", ["1,crl,0.0,0,0,0,0.0,0.0,7", "1,crl,0.0,0,0,0,0.0",
                                     "0,crl,x,0,0,0,0.0,0.0", "0,crl,0.0,1.5,0,0,0.0,0.0"],
                             ids=["long", "short", "bad-float", "bad-int"])
    def test_csv_row_of_wrong_width_rejected(self, row, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n0,crl,0.0,0,0,0,0.0,0.0\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: ")):
            load_report_csv(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(SimReport(policy="crl", seed=0), "xml", tmp_path / "r.xml")

    def test_write_failure_reports_path(self, tmp_path):
        bad = tmp_path / "missing_dir" / "r.csv"
        with pytest.raises(OSError, match=str(bad)):
            emit_report(SimReport(policy="crl", seed=0), "csv", bad)


class TestCompare:
    def test_identity_all_zero(self):
        report = run(SimConfig(steps=10, rng_seed=1))
        summary = compare_reports(report, report)
        assert all(d == 0.0 for d in summary.idle_capacity_delta)
        assert all(d == 0.0 for d in summary.migrated_value_cum_delta)
        assert summary.frac_idle_capacity_a_le_b == 1.0

    def test_swap_negates_deltas(self):
        a = run(SimConfig(steps=10, rng_seed=1, policy="crl"))
        b = run(SimConfig(steps=10, rng_seed=1, policy="cloud"))
        ab = compare_reports(a, b)
        ba = compare_reports(b, a)
        assert ab.idle_capacity_delta == [-d for d in ba.idle_capacity_delta]
        assert ab.migrated_value_cum_delta == [-d for d in ba.migrated_value_cum_delta]

    def test_hand_computed_two_step(self):
        a = SimReport(policy="crl", seed=0,
                      samples=[sample(0, idle=10.0, mig_v=1.0), sample(1, idle=20.0, mig_v=3.0)])
        b = SimReport(policy="cloud", seed=0,
                      samples=[sample(0, "cloud", idle=15.0, mig_v=4.0), sample(1, "cloud", idle=15.0, mig_v=8.0)])
        s = compare_reports(a, b)
        assert s.idle_capacity_delta == [-5.0, 5.0]
        assert s.migrated_value_cum_delta == [-3.0, -5.0]
        assert s.mean_idle_capacity_a == 15.0
        assert s.mean_idle_capacity_b == 15.0
        assert s.frac_idle_capacity_a_le_b == 0.5
        assert s.frac_migrated_a_le_b == 1.0

    def test_means_add_left_to_right(self):
        # A compensated sum, as the builtin sum of CPython >= 3.12, would give 1/3.
        a = SimReport(policy="crl", seed=0, samples=[sample(k, idle=x) for k, x in enumerate((1e16, 1.0, -1e16))])
        assert compare_reports(a, a).mean_idle_capacity_a == 0.0

    def test_mismatched_lengths_rejected(self):
        a = SimReport(policy="crl", seed=0, samples=[sample(0)])
        b = SimReport(policy="cloud", seed=0, samples=[sample(0), sample(1)])
        with pytest.raises(ValueError):
            compare_reports(a, b)

    def test_crl_vs_cloud_migration_dominance(self):
        a = run(SimConfig(steps=50, rng_seed=6, policy="crl"))
        b = run(SimConfig(steps=50, rng_seed=6, policy="cloud"))
        summary = compare_reports(a, b)
        assert all(d <= 1e-9 for d in summary.migrated_value_cum_delta)
