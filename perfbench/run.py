"""crlsim benchmark: run time, emission time and memory of one workload, or its
per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The program is imported from ``src/`` of the checkout and driven only through
its public API: ``cli.build_config`` -> ``simulator.run`` ->
``metrics.emit_report``.  Within ``--seconds`` the workload is run repeatedly;
every run's reports are emitted and checked (task accounting, ledger
conservation, CSV round trip, byte-identical reports across runs), and a run
that raises or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, timed without tracing and read
at a fixed machine speed through a gauge that shares the CPU (``gauge.py``):
``setup_s`` (median over fresh interpreters of importing crlsim and building
the config), ``run_s`` (median ``simulator.run``), ``emit_s`` (median CSV plus
JSON emission) and ``peak_rss_mb`` of this process.  ``--trace 1`` alternates
untraced and traced runs, timed in host seconds, and reports per-layer self
times and counts (see ``tracer.py``), cross-checked against the report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, digests, simulated counts, occupancy audit, every sample) goes to
``perfbench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checks import audit_occupancy, check_report, report_counts
from gauge import Gauge, at_nominal
from tracer import ROOT_SPAN, SPANS, Tracer, traced_layers
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 5  # fresh interpreters per invocation, after one warm-up probe
EMITS_PER_RUN = 2  # every run's reports are emitted this many times
WARMUP_STEPS = 20
HARD_LIMIT_S = 150.0  # never start a run past this, whatever --seconds says

# Per-layer metrics that are counts, by the layer span whose counter makes them.
LAYER_COUNTS = {
    "simulator.arrivals": ("tasks", "sources"),
    "simulator.aging": ("items", "expired"),
    "matching.prefer_matrix": ("cells", "feasible_cells"),
    "matching.greedy_match": ("leases", "unmatched"),
    "matching.classify": ("deferred", "escalated"),
    "settlement.apply": ("records", "floored"),
}


class WallClock:
    """Host seconds, for the traced mode, whose spans are timed in host seconds too."""

    @staticmethod
    def measure(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one crlsim workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import crlsim from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    crlsim = importlib.import_module("crlsim")
    if not Path(crlsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"crlsim imported from {crlsim.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"crlsim.{name}") for name in ("cli", "simulator", "matching", "metrics")}


def probe_setup(gauge: Gauge, workload: str, seed: int) -> list[float]:
    """setup_s samples, each from a fresh interpreter; a warm-up probe comes first."""

    def probe():
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        return json.loads(done.stdout)["setup_cpu_s"]

    probe()
    samples = []
    for _ in range(SETUP_PROBES):
        cpu, rate = gauge.rate_during(probe)
        samples.append(at_nominal(cpu, rate))
    return samples


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Bench:
    """Runs, emits and checks one workload; collects samples and failures."""

    def __init__(self, modules, workload, seed: int, clock):
        self.modules = modules
        self.sim = modules["simulator"]
        self.metrics = modules["metrics"]
        self.scenario = workload.scenario
        self.config = modules["cli"].build_config(self.scenario, {"rng_seed": seed})
        self.clock = clock
        self.csv_path = OUT / f"work_{os.getpid()}.csv"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests = None
        self.report_bytes = None
        self.counts = None
        self.audit = None
        self.trace_counts = None
        self.absent: set[str] = set()
        self.uncounted: set[str] = set()
        self.samples = defaultdict(list)  # seconds, by sample name

    def warm_up(self):
        config = self.modules["cli"].build_config(self.scenario, {"rng_seed": self.config.rng_seed, "steps": WARMUP_STEPS})
        self.sim.run(config)

    def run_once(self, traced: bool):
        self.attempted += 1
        failures = []
        try:
            gc.collect()
            if traced:
                tracer = Tracer()
                with traced_layers(tracer, self.modules) as absent:
                    report = tracer.wrap(ROOT_SPAN, self.sim.run)(self.config)
                failures += self._take_trace(tracer, absent, report)
            else:
                report, seconds = self.clock.measure(lambda: self.sim.run(self.config))
                self.samples["run_s"].append(seconds)
            failures += self._emit_and_check(report)
        except Exception as exc:  # a failing run is counted, and the benchmark goes on
            failures.append(f"{type(exc).__name__}: {exc}")
        if failures:
            self.failed += 1
            self.failures += failures

    def _emit(self, report):
        """Emit both reports into memory; return their text and host seconds.

        Reports go to text buffers rather than files, so the time is the
        program's own formatting work: the speed gauge corrects for the speed
        of Python code, not for the kernel's file system.  The text is what a
        file would hold.
        """
        texts, seconds = {}, {}
        for fmt in ("csv", "json"):
            buffer = io.StringIO()
            start = time.perf_counter()
            self.metrics.emit_report(report, fmt, buffer)
            seconds[fmt] = time.perf_counter() - start
            texts[fmt] = buffer.getvalue()
        return texts, seconds

    def _emit_and_check(self, report) -> list[str]:
        failures = []
        for _ in range(EMITS_PER_RUN):
            # Without this, a collection lands inside the emission or not
            # depending on what the run left behind: 0.043 s against 0.038 s
            # for default-crl seeds 1 and 3, in every invocation.
            gc.collect()
            (texts, host), seconds = self.clock.measure(lambda: self._emit(report))
            self.samples["emit_s"].append(seconds)
            self.samples["emit_csv_s"].append(host["csv"])
            self.samples["emit_json_s"].append(host["json"])
            data = {fmt: text.encode() for fmt, text in texts.items()}
            digests = {f"{fmt}_sha256": hashlib.sha256(b).hexdigest() for fmt, b in data.items()}
            if self.digests is None:
                self.digests = digests
                self.report_bytes = sum(len(b) for b in data.values())
            elif digests != self.digests:
                failures.append(f"reports differ from the first run's: {digests} != {self.digests}")
        self.csv_path.write_bytes(data["csv"])
        failures += check_report(report, self.csv_path, self.metrics.load_report_csv)
        counts = report_counts(report)
        if self.counts is None:
            self.counts = counts
            self.audit = audit_occupancy(report, self.config.step_seconds)
        elif counts != self.counts:
            failures.append(f"simulated counts differ from the first run's: {counts} != {self.counts}")
        return failures

    def _take_trace(self, tracer, absent, report) -> list[str]:
        failures = []
        if sum(tracer.self_ns.values()) + tracer.count_ns != tracer.total_ns:
            failures.append("per-layer self times do not add up to the traced run")
        counted = set(LAYER_COUNTS) - absent - tracer.uncounted
        leases = tracer.counts["matching.greedy_match.leases"]
        if "matching.greedy_match" in counted and leases != report.matched_tasks:
            failures.append(f"trace: {leases} leases, report: {report.matched_tasks} matched")
        records = tracer.counts["settlement.apply.records"]
        if "settlement.apply" in counted and records != len(report.settlement_records):
            failures.append(f"trace: {records} settlement records, report: {len(report.settlement_records)}")
        if self.trace_counts is None:
            self.trace_counts = dict(tracer.counts)
        elif dict(tracer.counts) != self.trace_counts:
            failures.append("trace counts differ between traced runs")
        self.absent |= absent
        self.uncounted |= tracer.uncounted
        self.samples["traced_run_s"].append(tracer.total_ns / 1e9)
        for span in SPANS:
            self.samples[f"{span}.self_s"].append(tracer.self_ns[span] / 1e9)
        return failures

    def measure(self, seconds: float, trace: bool):
        """Run repeatedly for about ``seconds``; in trace mode every other run is traced."""
        self.warm_up()
        min_runs = 4 if trace else 3
        start = time.perf_counter()
        longest = 0.0
        while True:
            now = time.perf_counter()
            runs = self.attempted
            if runs >= min_runs and now + longest > start + seconds:
                break
            if runs and now + longest > start + HARD_LIMIT_S:
                break
            self.run_once(traced=trace and runs % 2 == 1)
            longest = max(longest, time.perf_counter() - now)
        self.csv_path.unlink(missing_ok=True)
        return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(bench: Bench, setup: list[float]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup), "s"),
        "run_s": (median(bench.samples["run_s"]), "s"),
        "emit_s": (median(bench.samples["emit_s"]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def layer_metrics(bench: Bench) -> dict:
    samples, counts = bench.samples, bench.trace_counts or {}
    out = {f"{span}.self_s": (median(samples[f"{span}.self_s"]), "s") for span in SPANS}
    for span, names in LAYER_COUNTS.items():
        for name in names:
            out[f"{span}.{name}"] = (counts.get(f"{span}.{name}", 0), "count")
    for span in ("matching.prefer_matrix", "matching.greedy_match"):
        cells = counts.get(f"{span}.cells", 0)
        out[f"{span}.ns_per_cell"] = (out[f"{span}.self_s"][0] * 1e9 / cells if cells else 0.0, "ns")
    matrices = counts.get("matching.prefer_matrix.calls", 0)
    out["sim.mean_pool"] = (counts.get("sim.pool_sum", 0) / matrices if matrices else 0.0, "count")
    out["sim.mean_pending"] = (counts.get("sim.pending_sum", 0) / matrices if matrices else 0.0, "count")
    out["metrics.emit_csv_s"] = (median(samples["emit_csv_s"]), "s")
    out["metrics.emit_json_s"] = (median(samples["emit_json_s"]), "s")
    out["metrics.report_bytes"] = (bench.report_bytes or 0, "bytes")
    out["cli.build_config_s"] = (median(build_config_samples(bench)), "s")
    traced, untraced = median(samples["traced_run_s"]), median(samples["run_s"])
    out["trace.run_s"] = (traced, "s")
    out["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "ratio")
    for key, value in (bench.audit or {}).items():
        out[f"audit.{key}"] = (value, "count")
    for key, value in (bench.counts or {}).items():
        out[f"sim.{key}"] = (value, "count")
    return out


def build_config_samples(bench: Bench, n: int = 101) -> list[float]:
    build = bench.modules["cli"].build_config
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        build(bench.scenario, {"rng_seed": bench.config.rng_seed})
        samples.append(time.perf_counter() - start)
    return samples


def measure_workload(args, workload):
    """Set up, run and measure; returns the bench, the setup samples and the window."""
    if args.trace:
        bench = Bench(import_program(), workload, args.seed, WallClock)
        return bench, [], bench.measure(args.seconds, trace=True)
    # The gauge must share this process's CPU, and so must the setup probes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = Gauge()
    try:
        setup = probe_setup(gauge, args.workload, args.seed)
        bench = Bench(import_program(), workload, args.seed, gauge)
        return bench, setup, bench.measure(args.seconds, trace=False)
    finally:
        gauge.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "crlsim" / "__init__.py").is_file():
        print(f"error: no crlsim sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    bench, setup, window = measure_workload(args, workload)
    metrics = layer_metrics(bench) if args.trace else end_to_end_metrics(bench, setup)

    correct = bench.failed == 0 and bench.attempted > 0
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "window_s": window,
        "env": environment(args.seed),
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "digests": bench.digests,
        "counts": bench.counts,
        "audit": bench.audit,
        "absent_layers": sorted(bench.absent),
        "uncounted_layers": sorted(bench.uncounted),
        "samples": {"setup_s": setup, **bench.samples},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} runs, {bench.failed} failed, in {window:.1f} s")
    print(f"counts {json.dumps(bench.counts)}")
    print(f"audit {json.dumps(bench.audit)}")
    print(f"digests {json.dumps(bench.digests)}")
    if bench.absent or bench.uncounted:
        print(f"absent layers {sorted(bench.absent)}, uncounted layers {sorted(bench.uncounted)}")
    for failure in bench.failures[:10]:
        print(f"FAILED: {failure}")
    print(f"record {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
