"""Per-step report series, CSV/JSON emission, and report comparison."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_type_hints

import numpy as np

from .model import ColumnLog, SourcePool
from .settlement import SettlementRecord

class StepSample(NamedTuple):
    step: int
    policy: str
    idle_capacity: float
    matched: int
    deferred: int
    migrated: int
    migrated_value_cum: float
    migrated_cycles_cum: float


CSV_COLUMNS = list(StepSample._fields)
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
# csv writes a float, numpy's float64 among them, as float.__repr__, and any other value as str():
# %s gives the same text for each, since str equals float.__repr__ for both kinds of float.
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"


class AssignmentRecord(NamedTuple):
    """One lease with the match-time snapshot needed to audit feasibility."""

    step: int
    task_id: int
    source_id: int
    busy_seconds: float
    task_cycles_required: float
    task_deadline_s: float
    source_idle_seconds: float
    source_cycles_per_second: float


@dataclass
class SimReport:
    """Full outcome of one simulation run.

    The record fields hold lists of rows or ``ColumnLog``s of them; ``run``
    gives logs.
    """

    policy: str
    seed: int
    samples: list[StepSample] = field(default_factory=list)
    ledger_snapshot: dict[int, float] = field(default_factory=dict)
    settlement_records: ColumnLog | list[SettlementRecord] = field(default_factory=list)
    assignment_records: ColumnLog | list[AssignmentRecord] = field(default_factory=list)
    arrived_tasks: int = 0
    matched_tasks: int = 0
    migrated_tasks: int = 0
    pending_tasks: int = 0


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregates for two equal-length runs, and the share of steps where a's
    value is at most b's."""

    mean_idle_capacity_a: float
    mean_idle_capacity_b: float
    mean_migrated_value_cum_a: float
    mean_migrated_value_cum_b: float
    frac_idle_capacity_a_le_b: float
    frac_migrated_a_le_b: float


def idle_capacity(pool: SourcePool) -> float:
    """Total deliverable cycles left in the unassigned source pool, the sum of ``pool.capacity()``.

    The capacities are added left to right in ascending source_id order by
    ``cumsum``, as the builtin ``sum`` of CPython <= 3.11 adds them;
    ``np.sum`` adds pairwise and would change the last bits of the reports.
    Dead rows (``idle <= 0``) add ``+0.0``, which changes no partial sum.
    """
    if not len(pool.ids):
        return 0.0
    return float(np.maximum(pool.capacity(), 0.0).cumsum()[-1])


REPORT_SLICE = 256  # records per slice, which bounds the temporary token lists
_BOOL_TOKENS = ("false", "true")


def _tokens(values) -> list[str]:
    """The JSON tokens of a slice of a column, as ``json.dumps`` writes its items.

    A numpy column of bool, int or all-finite float dtype takes its Python
    values' ``repr`` (``true``/``false`` for a bool), the text the json
    module's C encoder writes for them.  Any other column or slice, NaN and
    infinities among them, goes through that encoder.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind == "b":
            return list(map(_BOOL_TOKENS.__getitem__, values.tolist()))
        if kind in "iu" or kind == "f" and np.isfinite(values).all():
            return list(map(repr, values.tolist()))
        values = values.tolist()
    # Without indent, json takes its C encoder; no JSON token holds a raw newline, so "\n" splits them exactly.
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")


def _write_records(fh, log: ColumnLog) -> None:
    """Write a log as ``json.dump(..., indent=2)`` writes its rows' ``_asdict()`` one level
    deep.  Per ``REPORT_SLICE`` rows, ``_tokens`` gives each column's tokens, and slice
    assignment interleaves them with the fixed text between them."""
    if not len(log):
        fh.write("[]")
        return
    width = 2 * len(log.columns)
    keys = [f"      {json.dumps(name)}: " for name in log.row._fields]
    # Part 2k of a row is the text before field k, part 2k + 1 its value; a row's
    # first label closes the row before it.
    labels = ["\n    },\n    {\n" + keys[0], *(",\n" + key for key in keys[1:])]
    frame = [None] * (width * min(REPORT_SLICE, len(log)))
    for k, label in enumerate(labels):
        frame[2 * k :: width] = [label] * (len(frame) // width)
    for start in range(0, len(log), REPORT_SLICE):
        parts = frame[: width * min(REPORT_SLICE, len(log) - start)]
        for k, column in enumerate(log.columns):
            parts[2 * k + 1 :: width] = _tokens(column[start : start + REPORT_SLICE])
        if not start:
            parts[0] = "[\n    {\n" + keys[0]
        fh.write("".join(parts))
    fh.write("\n    }\n  ]")


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields: as is when it is
    alphanumeric, else as csv quotes it, by rules that vary between Python versions."""
    if text.isalnum():
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]


def emit_report(report: SimReport, format: str, destination) -> None:
    """Write the report as CSV (per-step series only) or JSON (everything).

    ``destination`` is a path or an open text file.  Emission is deterministic.
    The CSV has one row per step and ``StepSample``'s fields as columns,
    byte-identical to ``csv.writer(..., lineterminator="\\n")``'s rows; the
    JSON is byte-identical to ``json.dump(..., indent=2)`` of the report's
    fields with each row as its ``_asdict()``; ``_write_records`` writes each
    log, and each non-empty row list, from its columns.
    """
    if format not in ("csv", "json"):
        raise ValueError(f"unknown report format: {format!r}")
    if not hasattr(destination, "write"):
        try:
            with open(destination, "w", newline="") as fh:
                return emit_report(report, format, fh)
        except OSError as exc:
            raise OSError(f"cannot write report to {destination}: {exc}") from exc
    if format == "csv":
        rows = report.samples
        quoted = {p: text for p in {s.policy for s in rows} if (text := _csv_field(p)) != p}
        if quoted:
            rows = [s._replace(policy=quoted.get(s.policy, s.policy)) for s in rows]
        destination.write(_CSV_HEADER + "".join(map(_CSV_ROW.__mod__, rows)))
        return
    # The JSON object holds SimReport's fields in order; the ledger, keyed by sorted id strings, as "ledger".
    # Only a non-empty record list or ledger spans lines, so every other value is json's C encoder's text.
    separator = "{"
    for f in fields(report):
        key, value = f.name, getattr(report, f.name)
        if key == "ledger_snapshot":
            key, value = "ledger", {str(k): v for k, v in sorted(value.items())}
        destination.write(f'{separator}\n  "{key}": ')
        if isinstance(value, list) and value:
            value = ColumnLog(type(value[0]), zip(*value))
        if isinstance(value, ColumnLog):
            _write_records(destination, value)
        elif key == "ledger" and value:  # one item a line, one level deeper than its braces
            destination.write("{\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  }")
        else:
            destination.write(json.dumps(value))
        separator = ","
    destination.write("\n}\n")


def load_report_csv(path) -> list[StepSample]:
    """Parse a CSV report back into step samples (round-trip inverse of emit)."""
    parsers = get_type_hints(StepSample).values()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV columns in {path}: {header}")
        samples = []
        for row in filter(None, reader):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} fields, the header has {len(CSV_COLUMNS)}")
            try:
                samples.append(StepSample(*(parse(text) for parse, text in zip(parsers, row))))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from exc
    return samples


def compare_reports(a: SimReport, b: SimReport) -> ComparisonSummary:
    """Means and sign summary of the per-step deltas (a - b) for two runs of equal length."""
    if len(a.samples) != len(b.samples):
        raise ValueError(f"step count mismatch: {len(a.samples)} vs {len(b.samples)}")
    n = len(a.samples)
    idle_delta = [sa.idle_capacity - sb.idle_capacity for sa, sb in zip(a.samples, b.samples)]
    mig_delta = [sa.migrated_value_cum - sb.migrated_value_cum for sa, sb in zip(a.samples, b.samples)]

    def mean(xs):
        # Left to right, as the builtin sum of CPython <= 3.11 adds; 3.12's compensates.
        total = 0
        for x in xs:
            total += x
        return total / len(xs) if xs else 0.0

    return ComparisonSummary(
        mean_idle_capacity_a=mean([s.idle_capacity for s in a.samples]),
        mean_idle_capacity_b=mean([s.idle_capacity for s in b.samples]),
        mean_migrated_value_cum_a=mean([s.migrated_value_cum for s in a.samples]),
        mean_migrated_value_cum_b=mean([s.migrated_value_cum for s in b.samples]),
        frac_idle_capacity_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in idle_delta]) if n else 1.0,
        frac_migrated_a_le_b=mean([1.0 if d <= 0 else 0.0 for d in mig_delta]) if n else 1.0,
    )
