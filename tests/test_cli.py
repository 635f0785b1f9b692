import argparse
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crlsim.cli import main, load_scenario, build_config, build_parser, ConfigError, FIELDS, FLAG_NAMES, _parse_range
from crlsim.metrics import emit_report
from crlsim.model import WeightsConfig
from crlsim.simulator import SimConfig, WorkloadConfig, run

from records import check_json_report


def scenario_file(tmp_path, name="scen", **extra):
    body = {
        "steps": 40,
        "rng_seed": 3,
        "weights": {"gamma_t": 0.5, "gamma_p": 0.5},
        "workload": {"task_arrival_rate": 4.0, "source_arrival_rate": 8.0},
    }
    body.update(extra)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(body))
    return path


def test_run_writes_effective_config(tmp_path):
    cfg = scenario_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--steps", "10"]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["steps"] == 10          # flag overrides file
    assert effective["rng_seed"] == 3        # file value preserved
    assert effective["weights"]["gamma_t"] == 0.5


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "usage" in captured.err.lower()
    assert f"cannot read config {missing}" in captured.err
    assert not (tmp_path / "o").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for body, key in (({"steps": 10, "bogus": 1}, "bogus"), ({"weights": {"tau_s": 0.1}}, "tau_s")):
        path.write_text(json.dumps(body))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "unknown key(s)" in err and key in err


@pytest.mark.parametrize("command", ["run", "compare", "sweep-w"])
def test_tau_flag_rejected(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--tau", "0.1", "--steps", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--tau" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_w_sets_w_itself(tmp_path, capsys):
    # --w-values gives every W the sweep runs; a --max-rounds-w would be ignored.
    with pytest.raises(SystemExit) as exc:
        main(["sweep-w", "--max-rounds-w", "4", "--w-values", "1,2", "--steps", "5", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--max-rounds-w" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"workload": {"task_arrival_rate": 1.0, "oops": 2}}))
    with pytest.raises(ConfigError, match="oops"):
        load_scenario(path)


def test_invalid_field_named_in_diagnostic(tmp_path, capsys):
    path = scenario_file(tmp_path, steps=0)
    assert main(["run", "--config", str(path)]) == 2
    assert "steps" in capsys.readouterr().err


def test_compare_zero_arrivals_no_migration(tmp_path, capsys):
    cfg = scenario_file(tmp_path, workload={"task_arrival_rate": 0.0, "source_arrival_rate": 0.0})
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--steps", "10"]) == 0
    summary = json.loads((out / "scen_compare_seed3.json").read_text())
    assert summary["mean_migrated_value_cum_crl"] == 0.0
    assert summary["mean_migrated_value_cum_cloud"] == 0.0
    assert (out / "scen_crl_seed3.csv").exists()
    assert (out / "scen_cloud_seed3.csv").exists()


def test_sweep_w_writes_the_report_of_each_w(tmp_path):
    # Each W's CSV is a crl run's at that W; how migration trends over W is
    # test_criteria_4_and_5_over_seeds' to check.
    for steps in (5, 30):
        out = tmp_path / str(steps)
        assert main(["sweep-w", "--w-values", "1,2,3,5", "--steps", str(steps), "--out", str(out)]) == 0
        for w in (1, 2, 3, 5):
            expected = io.StringIO()
            emit_report(run(SimConfig(steps=steps, weights=WeightsConfig(max_rounds_w=w))), "csv", expected)
            assert (out / f"default_w{w}_crl_seed1.csv").read_bytes() == expected.getvalue().encode(), (steps, w)


@pytest.mark.parametrize(("w_values", "error"),
                         [("0", "every W must be >= 1"), ("2,-1", "every W must be >= 1"), ("2,2", "every W must differ"),
                          ("x", "bad W list 'x': invalid literal for int()"), (",", "W list is empty")],
                         ids=["0", "2,-1", "2,2", "x", ","])
def test_sweep_w_rejects_w_below_one(tmp_path, capsys, w_values, error):
    # A repeated W would run twice and overwrite its own report.
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["sweep-w", "--w-values", w_values, "--steps", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()  # rejected before any run or report


def test_json_format_output(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--steps", "5", "--seed", "2", "--format", "json", "--out", str(out)]) == 0
    text = (out / "default_crl_seed2.json").read_text(encoding="utf-8")
    check_json_report(text, run(SimConfig(steps=5, rng_seed=2)))


# The override flags as they are spelled today, flag -> dest.  Pinned so that
# deriving them from the config dataclasses cannot drop, add or rename one.
FIELD_FLAGS = {
    "--seed": "rng_seed", "--steps": "steps", "--step-seconds": "step_seconds",
    "--gamma-t": "gamma_t", "--gamma-p": "gamma_p", "--gamma-n": "gamma_n", "--gamma-m": "gamma_m",
    "--conversion-rate": "conversion_rate_r", "--max-rounds-w": "max_rounds_w",
    "--task-rate": "task_arrival_rate", "--source-rate": "source_arrival_rate",
    "--device-count": "device_count",
    "--cycles-range": "cycles_range", "--value-range": "value_range",
    "--deadline-range": "deadline_range", "--idle-range": "idle_range", "--rate-range": "rate_range",
}
FLAG_VALUES = {
    "--seed": "9", "--steps": "5", "--step-seconds": "2.0", "--policy": "cloud",
    "--gamma-t": "0.1", "--gamma-p": "0.2", "--gamma-n": "0.3", "--gamma-m": "0.4",
    "--conversion-rate": "2.0", "--max-rounds-w": "4",
    "--task-rate": "1.0", "--source-rate": "2.0", "--device-count": "7",
    "--cycles-range": "1,2", "--value-range": "0,1", "--deadline-range": "1,9",
    "--idle-range": "1,5", "--rate-range": "1,3",
}


def _subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _fields_of(config):
    """A config's fields by name, its weights' and workload's among them."""
    fields = dataclasses.asdict(config)
    return {**fields.pop("weights"), **fields.pop("workload"), **fields}


# extra: the flags a subcommand adds to the field flags, flag -> dest, and
# those it drops (dest None) because it sets their field itself.
@pytest.mark.parametrize("command, extra", [
    ("run", {"--policy": "policy"}),
    ("compare", {}),
    ("sweep-w", {"--w-values": "w_values", "--max-rounds-w": None}),
])
def test_cli_surface_is_pinned(command, extra):
    actions = _subparser(command)._actions
    options = {opt: a.dest for a in actions for opt in a.option_strings}
    common = {"-h": "help", "--help": "help", "--config": "config", "--out": "out", "--format": "format"}
    assert options == {flag: dest for flag, dest in {**common, **FIELD_FLAGS, **extra}.items() if dest is not None}
    by_dest = {a.dest: a for a in actions}
    assert {d for d, a in by_dest.items() if a.metavar == "LO,HI"} == {d for d in FIELD_FLAGS.values() if d.endswith("_range")}
    if command == "run":
        assert tuple(by_dest["policy"].choices) == ("crl", "cloud")


def test_every_field_flag_reaches_the_overrides():
    argv = [tok for flag, value in FLAG_VALUES.items() for tok in (flag, value)]
    args = _subparser("run").parse_args(argv)
    overrides = {k: getattr(args, k) for k in FIELDS}
    default = _fields_of(SimConfig())
    assert set(overrides) == set(default) and None not in overrides.values()
    expected = SimConfig(
        steps=5, step_seconds=2.0, rng_seed=9, policy="cloud",
        weights=WeightsConfig(gamma_t=0.1, gamma_p=0.2, gamma_n=0.3, gamma_m=0.4, conversion_rate_r=2.0, max_rounds_w=4),
        workload=WorkloadConfig(task_arrival_rate=1.0, source_arrival_rate=2.0, device_count=7, cycles_range=(1.0, 2.0),
                                value_range=(0.0, 1.0), deadline_range=(1.0, 9.0), idle_range=(1.0, 5.0),
                                rate_range=(1.0, 3.0)),
    )
    # Every value differs from its field's default, so an override that does not reach its field shows.
    assert all(value != default[name] for name, value in _fields_of(expected).items())
    assert build_config({}, overrides) == expected


def test_effective_config_round_trips(tmp_path):
    out = tmp_path / "o"
    argv = ["--steps", "3", "--idle-range", "10,50", "--max-rounds-w", "5", "--task-rate", "2.5"]
    assert main(["run", *argv, "--out", str(out)]) == 0
    effective = out / "effective_config.json"
    expected = build_config({}, {"steps": 3, "idle_range": (10.0, 50.0), "max_rounds_w": 5,
                                 "task_arrival_rate": 2.5})
    assert build_config(load_scenario(effective), {}) == expected
    again = tmp_path / "again"
    assert main(["run", "--config", str(effective), "--out", str(again)]) == 0
    assert (again / "effective_config.json").read_bytes() == effective.read_bytes()


@pytest.mark.parametrize("command, argv, sets_itself", [
    ("compare", [], {"policy"}),
    ("sweep-w", ["--w-values", "1,2"], {"policy", "max_rounds_w"}),
], ids=["compare", "sweep-w"])
def test_effective_config_leaves_out_what_the_subcommand_sets(tmp_path, command, argv, sets_itself):
    cfg = tmp_path / "scen.json"
    cfg.write_text(json.dumps({"weights": {"max_rounds_w": 4}, "policy": "cloud"}))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--steps", "5", *argv, "--out", str(out)]) == 0
    effective = json.loads((out / "effective_config.json").read_text())
    written = {*effective, *effective["weights"]}
    assert {"policy", "max_rounds_w"} - written == sets_itself
    assert build_config(effective, {}).steps == 5


# Every report the three subcommands write with their defaults and --steps 5.
CLI_REPORTS = {
    "effective_config.json", "default_crl_seed1.csv", "default_cloud_seed1.csv", "default_compare_seed1.json",
    "default_w1_crl_seed1.csv", "default_w2_crl_seed1.csv", "default_w3_crl_seed1.csv", "default_w5_crl_seed1.csv",
}


def _module_cli(*argv):
    """``python -m crlsim.cli ARGV`` in a fresh interpreter, with warnings as errors,
    among them each text file opened without an explicit encoding."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error", "PYTHONWARNDEFAULTENCODING": "1"}
    return subprocess.run([sys.executable, "-m", "crlsim.cli", *argv], env=env, capture_output=True, text=True)


def test_every_subcommand_writes_its_reports(tmp_path):
    done = _module_cli("run", "--steps", "5", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert {p.name for p in tmp_path.iterdir() if p.stat().st_size} == {"effective_config.json", "default_crl_seed1.csv"}
    for command in ("compare", "sweep-w"):
        assert main([command, "--steps", "5", "--out", str(tmp_path)]) == 0
    assert {p.name for p in tmp_path.iterdir() if p.stat().st_size} == CLI_REPORTS


def test_module_entry_point_exits_2_on_a_huge_step_seconds(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"step_seconds": 1' + "0" * 400 + "}")
    done = _module_cli("run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert done.returncode == 2
    assert "step_seconds" in done.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, field, section", [
    ("--idle-range", "40,inf", "idle_range", "workload"),
    ("--idle-range", "nan,80", "idle_range", "workload"),
    ("--task-rate", "nan", "task_arrival_rate", "workload"),
    ("--task-rate", "inf", "task_arrival_rate", "workload"),
    ("--step-seconds", "nan", "step_seconds", None),
    ("--conversion-rate", "inf", "conversion_rate_r", "weights"),
    # finite, but above the largest mean numpy's Poisson draw accepts
    ("--task-rate", "1e300", "task_arrival_rate", "workload"),
    ("--source-rate", "1e19", "source_arrival_rate", "workload"),
])
def test_non_finite_value_rejected(tmp_path, capsys, flag, value, field, section):
    assert main(["run", "--steps", "2", flag, value, "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    parsed = _parse_range(value) if "," in value else float(value)
    cls = {None: SimConfig, "weights": WeightsConfig, "workload": WorkloadConfig}[section]
    with pytest.raises(ValueError, match=field):
        cls(**{field: parsed})


@pytest.mark.parametrize("body", [{"weights": 5}, {"weights": [1]}, {"workload": "fast"}, [1]])
def test_section_that_is_not_an_object_rejected(tmp_path, capsys, body):
    # The last file is not an object itself.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    where = f"{path}:{next(iter(body))}" if isinstance(body, dict) else f"config {path}"
    assert f"{where} must hold a JSON object" in capsys.readouterr().err
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_scenario(path)


def test_range_flag_of_one_number_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--rate-range", "5", "--steps", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "expected LO,HI, got '5'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_below_a_regular_file_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--steps", "2", "--out", str(blocker / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "o") in err


@pytest.mark.parametrize("body, field", [
    ({"workload": {"device_count": 2.5}}, "device_count"),
    ({"steps": True}, "steps"),
    ({"rng_seed": 1.0}, "rng_seed"),
    ({"weights": {"max_rounds_w": "3"}}, "max_rounds_w"),
])
def test_non_int_value_rejected(tmp_path, capsys, body, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_rejected_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--seed", "-1", "--steps", "2", "--out", str(out)]) == 2
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_device_count_beyond_int64_rejected_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "--steps", "5", "--device-count", str(2**63 + 1), "--out", str(out)]) == 2
    assert f"device_count must be >= 1 and <= {2**63}, got {2**63 + 1}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ({"workload": {"cycles_range": 5}}, "cycles_range must be a [low, high] pair of real numbers, got 5"),
    ({"workload": {"cycles_range": [1]}}, "cycles_range must be a [low, high] pair of real numbers, got [1]"),
    ({"workload": {"task_arrival_rate": "3"}}, "task_arrival_rate must be a real number, got '3'"),
], ids=["range-int", "range-short", "float-str"])
def test_malformed_number_names_its_field(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, field", [
    ('{"step_seconds": 1' + "0" * 400 + "}", "step_seconds"),
    ('{"workload": {"idle_range": [40, 1' + "0" * 400 + "]}}", "idle_range"),
    # more digits than int() converts: the JSON reader itself rejects the number
    ('{"steps": 1' + "0" * 5000 + "}", "cannot parse config"),
], ids=["float", "range-bound", "beyond-int-digits"])
def test_huge_integer_in_a_scenario_rejected(tmp_path, capsys, text, field):
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _interval(low, high, above):
    return f"{'(' if above else '['}{low}, " + ("∞)" if high == math.inf else f"{high}]")


def test_readme_matches_the_cli():
    """The README's table of renamed flags, its table of allowed values and its
    example scenario are the CLI's own."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = dict(re.findall(r"^\| `(--[a-z-]+)` +\| `(\w+)` +\|$", readme, re.M))
    assert table == {flag: name for name, flag in FLAG_NAMES.items()}
    allowed = re.findall(r"^\| `(\w+)` +\| (integer|number|pair) +\| (\S.*?) +\|$", readme, re.M)
    kinds = {int: "integer", float: "number", tuple: "pair"}
    assert allowed == [(name, kinds[type(f.default)], _interval(*f.metadata["bounds"]))
                       for name, (_, f) in FIELDS.items() if "bounds" in f.metadata]
    example = re.search(r"A scenario file mirrors.*?```json\n(.*?)```", readme, re.S).group(1)
    assert json.loads(example) == json.loads(json.dumps(dataclasses.asdict(SimConfig())))
