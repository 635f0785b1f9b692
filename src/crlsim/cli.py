"""Command-line entry point: run one policy, a policy pair, or a W sweep."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .simulator import SimConfig, run, POLICIES
from .metrics import emit_report, compare_reports

# Each config field is one scenario key and one flag.  The sections are the
# SimConfig fields that hold a nested config (weights, workload).
SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(SimConfig)
    if dataclasses.is_dataclass(f.default_factory)
}
# Every non-section field, by name, and the section holding it (None: top level).
FIELDS = {f.name: (None, f) for f in dataclasses.fields(SimConfig) if f.name not in SECTIONS}
FIELDS.update((f.name, (section, f)) for section, cls in SECTIONS.items() for f in dataclasses.fields(cls))
# The flags not spelled as their field's name with dashes.
FLAG_NAMES = {
    "rng_seed": "--seed", "conversion_rate_r": "--conversion-rate",
    "task_arrival_rate": "--task-rate", "source_arrival_rate": "--source-rate",
}


class ConfigError(Exception):
    pass


def _check_keys(section: dict, cls, where: str):
    unknown = set(section) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def load_scenario(path: Path) -> dict:
    """Load and structurally validate a scenario JSON file."""
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than int() converts
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    _check_keys(raw, SimConfig, str(path))
    for section, cls in SECTIONS.items():
        values = raw.get(section, {})
        if not isinstance(values, dict):
            raise ConfigError(f"{path}:{section} must hold a JSON object, got {json.dumps(values)}")
        _check_keys(values, cls, f"{path}:{section}")
    return raw


def build_config(scenario: dict, overrides: dict) -> SimConfig:
    """Merge file values with flag overrides (flags win) into a SimConfig."""
    values = {section: dict(scenario.get(section, {})) for section in SECTIONS}
    top = {k: v for k, v in scenario.items() if k not in SECTIONS}
    for key, value in overrides.items():
        if value is not None:
            section, _ = FIELDS.get(key, (None, None))
            values.get(section, top)[key] = value
    try:
        return SimConfig(**{section: cls(**values[section]) for section, cls in SECTIONS.items()}, **top)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _add_override_flags(p: argparse.ArgumentParser, sets_itself: tuple[str, ...] = ()):
    """Add a flag for every field except those the subcommand sets itself."""
    p.set_defaults(sets_itself=sets_itself)
    p.add_argument("--config", type=Path, help="scenario JSON file")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, (_, f) in FIELDS.items():
        if name in sets_itself:
            continue
        flag = FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        if isinstance(f.default, str):  # the policy
            p.add_argument(flag, choices=POLICIES, dest=name)
        elif isinstance(f.default, tuple):
            p.add_argument(flag, type=_parse_range, dest=name, metavar="LO,HI")
        else:
            p.add_argument(flag, type=type(f.default), dest=name)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_w_values(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad W list {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("W list is empty")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"bad W list {text!r}: every W must be >= 1")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"bad W list {text!r}: every W must differ")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crlsim",
        description="Simulate priority-based leasing of idle local compute versus cloud offloading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single policy and write its report")
    _add_override_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run both policies on one seed and summarize deltas")
    _add_override_flags(p_cmp, sets_itself=("policy",))

    p_sweep = sub.add_parser("sweep-w", help="run the leasing policy across several retry limits")
    _add_override_flags(p_sweep, sets_itself=("policy", "max_rounds_w"))
    p_sweep.add_argument("--w-values", type=_parse_w_values, default=[1, 2, 3, 5], metavar="W1,W2,...")
    return parser


def _prepare(args) -> tuple[SimConfig, str]:
    scenario: dict = {}
    name = "default"
    if args.config is not None:
        scenario = load_scenario(args.config)
        name = args.config.stem
    # build_config skips None, the value of every flag not given or not defined
    # (a subcommand has no flag for a field it sets itself).
    return build_config(scenario, {k: getattr(args, k, None) for k in FIELDS}), name


def _run_and_write(config: SimConfig, name: str, out_dir: Path, fmt: str):
    report = run(config)
    path = out_dir / f"{name}_{config.policy}_seed{config.rng_seed}.{fmt}"
    emit_report(report, fmt, path)
    return report, path


def cmd_run(args, config: SimConfig, name: str) -> int:
    report, path = _run_and_write(config, name, args.out, args.format)
    final = report.samples[-1]
    print(f"policy={config.policy} steps={config.steps} seed={config.rng_seed}")
    print(f"  matched={report.matched_tasks} migrated={report.migrated_tasks} pending={report.pending_tasks}")
    print(f"  final idle_capacity={final.idle_capacity:.1f} migrated_value_cum={final.migrated_value_cum:.1f}")
    print(f"  report: {path}")
    return 0


def cmd_compare(args, config: SimConfig, name: str) -> int:
    reports = {}
    for policy in POLICIES:
        cfg = dataclasses.replace(config, policy=policy)
        reports[policy], _ = _run_and_write(cfg, name, args.out, args.format)
    summary = compare_reports(reports["crl"], reports["cloud"])
    summary_path = args.out / f"{name}_compare_seed{config.rng_seed}.json"
    summary_path.write_text(
        json.dumps(
            {
                "mean_idle_capacity_crl": summary.mean_idle_capacity_a,
                "mean_idle_capacity_cloud": summary.mean_idle_capacity_b,
                "mean_migrated_value_cum_crl": summary.mean_migrated_value_cum_a,
                "mean_migrated_value_cum_cloud": summary.mean_migrated_value_cum_b,
                "frac_steps_idle_crl_le_cloud": summary.frac_idle_capacity_a_le_b,
                "frac_steps_migrated_crl_le_cloud": summary.frac_migrated_a_le_b,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"compare seed={config.rng_seed} steps={config.steps}")
    print(f"  mean idle capacity: crl={summary.mean_idle_capacity_a:.1f} cloud={summary.mean_idle_capacity_b:.1f}")
    print(
        "  final migrated value: "
        f"crl={reports['crl'].samples[-1].migrated_value_cum:.1f} "
        f"cloud={reports['cloud'].samples[-1].migrated_value_cum:.1f}"
    )
    print(f"  summary: {summary_path}")
    return 0


def cmd_sweep_w(args, config: SimConfig, name: str) -> int:
    print(f"W sweep seed={config.rng_seed} steps={config.steps} values={args.w_values}")
    for w in args.w_values:
        cfg = dataclasses.replace(
            config,
            policy="crl",
            weights=dataclasses.replace(config.weights, max_rounds_w=w),
        )
        report, path = _run_and_write(cfg, f"{name}_w{w}", args.out, args.format)
        print(
            f"  W={w}: migrated_value_cum={report.samples[-1].migrated_value_cum:.1f} "
            f"migrated_tasks={report.migrated_tasks} ({path.name})"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "compare": cmd_compare, "sweep-w": cmd_sweep_w}
    try:
        config, name = _prepare(args)
        args.out.mkdir(parents=True, exist_ok=True)
        effective = dataclasses.asdict(config)
        for field in args.sets_itself:  # the runs take the subcommand's value, not the merged one
            effective.get(FIELDS[field][0], effective).pop(field)
        (args.out / "effective_config.json").write_text(json.dumps(effective, indent=2) + "\n")
        return handlers[args.command](args, config, name)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
