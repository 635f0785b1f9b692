import csv
import dataclasses
import io
import json
import math
import random
import re
from typing import get_type_hints

import numpy as np
import pytest

from crlsim.model import ColumnLog, SourcePool
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
from crlsim.simulator import SimConfig, WorkloadConfig, run

from records import SourceNode, table_of
from scenarios import LEASE_HEAVY


def sample(step, policy="crl", idle=0.0, matched=0, deferred=0, migrated=0, mig_v=0.0, mig_c=0.0):
    return StepSample(step=step, policy=policy, idle_capacity=idle, matched=matched,
                      deferred=deferred, migrated=migrated,
                      migrated_value_cum=mig_v, migrated_cycles_cum=mig_c)


BIG = 2**53 + 1  # the first int a float cannot hold
# Values near the float limit pass WorkloadConfig, and within 5 steps the run's
# settlement amounts and ledger overflow to infinities and NaN.
OVERFLOW = SimConfig(steps=5, workload=dataclasses.replace(LEASE_HEAVY, value_range=(1e308, 1e308)))
# No arrivals, so every step samples an empty pool.
EMPTY_POOL = SimConfig(steps=3, workload=WorkloadConfig(task_arrival_rate=0.0, source_arrival_rate=0.0))


def edge_reports():
    """A report holding the values emission must carry exactly (signed zero,
    the least subnormal, a near-overflow float, ints beyond float precision,
    NaN, infinities and bools), and one with an empty ledger and no records."""
    extremes = SimReport(
        policy="crl",
        seed=BIG,
        samples=[sample(0, idle=-0.0, matched=BIG, mig_v=5e-324, mig_c=1e308),
                 sample(BIG, idle=1e308, deferred=2**64, migrated=BIG, mig_v=-0.0, mig_c=5e-324)],
        ledger_snapshot={BIG: -0.0, 3: 5e-324, -1: 1e308},
        settlement_records=[
            SettlementRecord(task_id=BIG, receiver_device=1, provider_device=2, amount=0.0, step=BIG, floored=True),
            SettlementRecord(task_id=0, receiver_device=2, provider_device=1, amount=5e-324, step=0),
            SettlementRecord(task_id=True, receiver_device=2**64, provider_device=-1, amount=math.nan, step=1, floored=True),
        ],
        assignment_records=[AssignmentRecord(BIG, BIG, 2**64, 5e-324, 1e308, -0.0, 1e308, 5e-324),
                            AssignmentRecord(0, False, 1, math.inf, -math.inf, math.nan, -0.0, 2.0)],
        arrived_tasks=BIG,
        matched_tasks=BIG - 1,
        migrated_tasks=1,
    )
    return [extremes, SimReport(policy="cloud", seed=0, samples=[sample(0)]), typed_extremes()]


# Floats and ints whose text a writer could get wrong, each of which a float64 or int64 column holds.
EXTREME_FLOATS = [-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308]
EXTREME_INTS = [2**63 - 1, -(2**63 - 1), 0]


def typed_extremes():
    """A report whose every record field fits an int64, float64 or bool column,
    holding the extreme floats and ints in each field of its kind."""
    n = len(EXTREME_FLOATS)
    floats = [EXTREME_FLOATS[k:] + EXTREME_FLOATS[:k] for k in range(n)]
    ints = [[EXTREME_INTS[(k + j) % len(EXTREME_INTS)] for j in range(n)] for k in range(n)]
    return SimReport(
        policy="crl",
        seed=2**63 - 1,
        samples=[sample(ints[0][k], idle=floats[0][k], matched=ints[1][k], deferred=ints[2][k], migrated=ints[3][k],
                        mig_v=floats[1][k], mig_c=floats[2][k]) for k in range(n)],
        settlement_records=[SettlementRecord(ints[0][k], ints[1][k], ints[2][k], floats[0][k], ints[3][k], k % 2 == 1)
                            for k in range(n)],
        assignment_records=[AssignmentRecord(ints[0][k], ints[1][k], ints[2][k], *(row[k] for row in floats))
                            for k in range(n)],
    )


def awkward_report(n):
    """A report whose JSON text a template writer could get wrong: a policy string
    holding a list separator, a newline, a quote and a format directive; NaN and
    infinities; a bool in an int field; and an empty record list next to one of
    ``n`` records.  Only the first and the last record hold NaN and infinities,
    so with ``2 * REPORT_SLICE + 1`` records the middle slice is finite."""
    policy = 'a, b\n"%s'
    return SimReport(
        policy=policy,
        seed=n,
        samples=[sample(k, policy=policy, idle=math.nan, matched=True, mig_v=math.inf, mig_c=-math.inf)
                 for k in range(n)],
        ledger_snapshot={1: math.nan, 2: -math.inf},
        assignment_records=[AssignmentRecord(k, k, False, 0.5, math.inf, 2.0, -math.inf, math.nan) if k in (0, n - 1)
                            else AssignmentRecord(k, k, False, 0.5, 1e16, 2.0, 1e-7, k + 0.5) for k in range(n)],
        pending_tasks=True,
    )


# Policies csv quotes, or might: a delimiter, a quote, line breaks, an empty
# string, a leading space and non-ASCII text.
AWKWARD_POLICIES = ["crl", "cloud", "a,b", 'q"x', "a\nb", "a\rb", "\r\n", "", " lead", "é", "%s"]
AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-4, 1e-5, 1e16, 1e15, 1.7976931348623157e308]


def awkward_value(rng):
    """A value of a sample field that csv might write unlike ``%s``: a float
    extreme or a random float, as a Python or numpy float; an int past 2**64
    or a numpy int64; or a bool."""
    kind = rng.randrange(6)
    if kind < 3:
        x = rng.choice(AWKWARD_FLOATS) if rng.random() < 0.5 else rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 300)
        return np.float64(x) if kind == 2 else x
    if kind == 3:
        return rng.choice([0, -1, 2**64 + 1, -(2**70), rng.randint(-10**30, 10**30)])
    if kind == 4:
        return np.int64(rng.randint(-2**63, 2**63 - 1))
    return rng.random() < 0.5


def awkward_samples(rng):
    """Up to five samples, each field but ``policy`` any ``awkward_value``,
    with one or two of ``AWKWARD_POLICIES``."""
    policies = rng.sample(AWKWARD_POLICIES, rng.randint(1, 2))
    return [StepSample(awkward_value(rng), rng.choice(policies), *(awkward_value(rng) for _ in range(6)))
            for _ in range(rng.randint(0, 5))]


def held_as(report, hold):
    """``report`` with each of its record fields held by ``hold(row type, rows)``."""
    return dataclasses.replace(report, **{
        name: hold(row, list(getattr(report, name)))
        for name, row in (("samples", StepSample), ("settlement_records", SettlementRecord),
                          ("assignment_records", AssignmentRecord))
    })


def as_rows(row, rows):
    return rows


def as_columns(row, rows):
    return ColumnLog(row, zip(*rows)) if rows else ColumnLog.join(row, [])


FIELD_DTYPES = {int: np.int64, float: np.float64, bool: np.bool_}


def as_arrays(row, rows):
    """Each column as a numpy array of its field's dtype (int64, float64 or bool),
    or of object dtype where that dtype would not hand back the same values."""
    columns = []
    for kind, values in zip(get_type_hints(row).values(), zip(*rows) if rows else [()] * len(row._fields)):
        try:
            column = np.array(values, dtype=FIELD_DTYPES.get(kind, object))
        except OverflowError:
            column = None
        if column is None or repr(column.tolist()) != repr(list(values)):
            column = np.array(values, dtype=object)
        columns.append(column)
    return ColumnLog(row, columns)


HOLDERS = (as_rows, as_columns, as_arrays)


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
        assert repr(idle_capacity(SourcePool())) == "0.0"  # a float, as every other step's value

    def test_single_source(self):
        pool = table_of(SourcePool, [SourceNode(source_id=0, owner_id=0, idle_seconds=5.0, cycles_per_second=10.0)])
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
        pool = table_of(SourcePool, nodes)
        # the reports pin every bit, so the fold order is part of the contract
        assert idle_capacity(pool) == total
        # pairwise summation gives a different last bit on this pool
        assert float(np.sum(pool.rate * pool.idle)) != total


class TestEmit:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_report(SimReport(policy="crl", seed=0), "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_csv_round_trip_exact(self, tmp_path):
        dense = SimConfig(steps=60, rng_seed=1, workload=LEASE_HEAVY)
        for report in [run(SimConfig(steps=30, rng_seed=21)), run(dense), run(EMPTY_POOL), *edge_reports()]:
            path = tmp_path / "r.csv"
            emit_report(report, "csv", path)
            # repr tells -0.0 from 0.0, which == does not
            assert repr(load_report_csv(path)) == repr(report.samples)

    def test_emit_parse_emit_fixed_point(self, tmp_path):
        for report in (run(SimConfig(steps=15, rng_seed=8)), run(EMPTY_POOL)):
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

    def test_rows_and_columns_emit_the_same_bytes(self):
        simulated = [run(SimConfig(steps=25, rng_seed=4)), run(SimConfig(steps=25, rng_seed=5, workload=LEASE_HEAVY)), run(OVERFLOW)]
        assert len(simulated[1].settlement_records) > REPORT_SLICE
        for report in [*simulated, *edge_reports(), awkward_report(REPORT_SLICE + 1)]:
            expected = json.dumps(asdict_payload(report), indent=2) + "\n"
            for hold in (None, *HOLDERS):
                buffer = io.StringIO()
                emit_report(held_as(report, hold) if hold else report, "json", buffer)
                assert buffer.getvalue() == expected, hold

    def test_typed_columns_hold_the_extremes(self):
        held = held_as(typed_extremes(), as_arrays)
        int64, float64 = np.dtype(np.int64), np.dtype(np.float64)
        assert [column.dtype for column in held.settlement_records.columns] == [int64] * 3 + [float64, int64, np.dtype(bool)]
        assert [column.dtype for column in held.assignment_records.columns] == [int64] * 3 + [float64] * 5
        assert set(map(repr, EXTREME_FLOATS)) <= set(map(repr, held.assignment_records.columns[3].tolist()))
        assert set(EXTREME_INTS) <= set(held.settlement_records.columns[0].tolist())

    def test_simulated_overflow_is_written_as_json_writes_it(self):
        report = run(OVERFLOW)
        buffer = io.StringIO()
        emit_report(report, "json", buffer)
        assert '"amount": Infinity' in buffer.getvalue()
        assert any(math.isnan(v) for v in report.ledger_snapshot.values())
        amounts = report.settlement_records.columns[SettlementRecord._fields.index("amount")]
        assert amounts.dtype == np.float64 and not np.isfinite(amounts).all()

    # one record, exactly one slice, and two slices plus one
    @pytest.mark.parametrize("n", [1, REPORT_SLICE, 2 * REPORT_SLICE + 1])
    def test_json_equals_indented_dump(self, n, tmp_path):
        report = awkward_report(n)
        path = tmp_path / "r.json"
        for hold in HOLDERS:
            held = held_as(report, hold)
            emit_report(held, "json", path)
            buffer = io.StringIO()
            emit_report(held, "json", buffer)
            assert path.read_bytes() == buffer.getvalue().encode()
            assert buffer.getvalue() == json.dumps(asdict_payload(report), indent=2) + "\n", hold

    def test_csv_equals_csv_writer(self):
        rng = random.Random(27)
        for _ in range(1500):
            samples = awkward_samples(rng)
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(samples)
            buffer = io.StringIO()
            emit_report(SimReport(policy="crl", seed=0, samples=samples), "csv", buffer)
            assert buffer.getvalue() == expected.getvalue(), samples

    def test_scalars_and_ledger_equal_the_indented_dump(self):
        rng = random.Random(19)
        floats = [*AWKWARD_FLOATS, np.float64(-0.0), np.float64(math.nan), 0.1, -2.5]
        ints = [0, -1, 2**64, -(2**70), True, False]
        for _ in range(3000):
            keys = rng.sample([-(2**64), -3, -1, 0, 1, 2, 10, 2**53 + 1, 2**70], rng.randint(0, 6))
            report = SimReport(
                policy=rng.choice(AWKWARD_POLICIES), seed=rng.choice(ints),
                ledger_snapshot={k: rng.choice(floats) if rng.random() < 0.8 else rng.uniform(-1e9, 1e9) for k in keys},
                **{name: rng.choice(ints + floats) for name in ("arrived_tasks", "matched_tasks", "migrated_tasks", "pending_tasks")},
            )
            buffer = io.StringIO()
            emit_report(report, "json", buffer)
            assert buffer.getvalue() == json.dumps(asdict_payload(report), indent=2) + "\n", report

    def test_reports_take_neither_the_csv_writer_nor_the_python_json_encoder(self, monkeypatch):
        # The benchmark's three workloads and the edge reports, with json's
        # pure-Python encoder made to raise, and csv's writer too for the
        # workloads' CSV, whose policies csv never quotes.
        def refuse(*args, **kwargs):
            raise AssertionError("a report took a slow writer")

        workloads = [run(SimConfig(rng_seed=1, policy=policy)) for policy in ("crl", "cloud")]
        workloads.append(run(SimConfig(rng_seed=1, policy="crl", workload=LEASE_HEAVY)))
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        monkeypatch.setattr(csv, "writer", refuse)
        for report in workloads:
            emit_report(report, "csv", io.StringIO())
        for report in [*workloads, *edge_reports(), awkward_report(3)]:
            emit_report(report, "json", io.StringIO())

    # The last two rows have the right width but a value that does not parse.
    @pytest.mark.parametrize("row", ["1,crl,0.0,0,0,0,0.0,0.0,7", "1,crl,0.0,0,0,0,0.0",
                                     "0,crl,x,0,0,0,0.0,0.0", "0,crl,0.0,1.5,0,0,0.0,0.0"],
                             ids=["long", "short", "bad-float", "bad-int"])
    def test_csv_row_of_wrong_width_rejected(self, row, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n0,crl,0.0,0,0,0,0.0,0.0\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: ")):
            load_report_csv(path)

    def test_csv_of_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("step,policy\n0,crl\n")
        with pytest.raises(ValueError, match=re.escape(f"unexpected CSV columns in {path}: ['step', 'policy']")):
            load_report_csv(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(SimReport(policy="crl", seed=0), "xml", tmp_path / "r.xml")

    def test_write_failure_reports_path(self, tmp_path):
        bad = tmp_path / "missing_dir" / "r.csv"
        with pytest.raises(OSError, match=str(bad)):
            emit_report(SimReport(policy="crl", seed=0), "csv", bad)


def deltas(a, b, name):
    """The per-step differences a - b of the sample field ``name``."""
    return [getattr(sa, name) - getattr(sb, name) for sa, sb in zip(a.samples, b.samples, strict=True)]


def share_at_most_zero(xs):
    return sum(x <= 0 for x in xs) / len(xs)


class TestCompare:
    def test_identity_all_zero(self):
        report = run(SimConfig(steps=10, rng_seed=1))
        summary = compare_reports(report, report)
        assert all(d == 0.0 for d in deltas(report, report, "idle_capacity"))
        assert all(d == 0.0 for d in deltas(report, report, "migrated_value_cum"))
        assert summary.frac_idle_capacity_a_le_b == summary.frac_migrated_a_le_b == 1.0
        assert summary.mean_idle_capacity_a == summary.mean_idle_capacity_b

    def test_swap_negates_deltas(self):
        a = run(SimConfig(steps=10, rng_seed=1, policy="crl"))
        b = run(SimConfig(steps=10, rng_seed=1, policy="cloud"))
        ab = compare_reports(a, b)
        ba = compare_reports(b, a)
        for name in ("idle_capacity", "migrated_value_cum"):
            assert deltas(a, b, name) == [-d for d in deltas(b, a, name)]
        assert (ab.mean_idle_capacity_a, ab.mean_migrated_value_cum_a) == (ba.mean_idle_capacity_b, ba.mean_migrated_value_cum_b)
        for x, y, summary in ((a, b, ab), (b, a, ba)):
            assert summary.frac_idle_capacity_a_le_b == share_at_most_zero(deltas(x, y, "idle_capacity"))
            assert summary.frac_migrated_a_le_b == share_at_most_zero(deltas(x, y, "migrated_value_cum"))

    def test_hand_computed_two_step(self):
        a = SimReport(policy="crl", seed=0,
                      samples=[sample(0, idle=10.0, mig_v=1.0), sample(1, idle=20.0, mig_v=3.0)])
        b = SimReport(policy="cloud", seed=0,
                      samples=[sample(0, "cloud", idle=15.0, mig_v=4.0), sample(1, "cloud", idle=15.0, mig_v=8.0)])
        s = compare_reports(a, b)
        assert deltas(a, b, "idle_capacity") == [-5.0, 5.0]
        assert deltas(a, b, "migrated_value_cum") == [-3.0, -5.0]
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
