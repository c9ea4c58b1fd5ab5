import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from do_icbf import cli
from do_icbf.cli import (EXIT_BLOWUP, EXIT_CONFIG, EXIT_ERROR, EXIT_INFEASIBLE,
                         EXIT_INVALID, EXIT_OK, main)

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "do_icbf" / "schemas"
     / "summary.schema.json").read_text()
)


def run_cli(*argv):
    return main(list(argv))


def load(path):
    return json.loads(Path(path).read_text())


def validate_summary(path):
    payload = load(path)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_run_acc_short_horizon(tmp_path):
    rc = run_cli("run", "--scenario", "acc", "--filter", "do_icbf",
                 "--t-end", "2.0", "--out", str(tmp_path))
    assert rc == EXIT_OK
    assert (tmp_path / "trajectory.csv").exists()
    summary = validate_summary(tmp_path / "summary.json")
    assert summary["kind"] == "run"
    assert summary["filter"] == "do_icbf"
    assert not summary["metrics"]["unsafe"]


def test_run_unfiltered_flags_unsafe(tmp_path):
    rc = run_cli("run", "--scenario", "acc", "--filter", "off",
                 "--t-end", "10.0", "--out", str(tmp_path))
    assert rc == EXIT_OK
    summary = validate_summary(tmp_path / "summary.json")
    assert summary["metrics"]["unsafe"] is True
    assert summary["metrics"]["barrier_min"]["h_x"] < 0.0


@pytest.mark.parametrize("scenario", ["acc", "bicycle", "example1"])
def test_run_emits_plot_script(tmp_path, scenario):
    rc = run_cli("run", "--scenario", scenario, "--t-end", "1.0",
                 "--dt", "1e-2", "--out", str(tmp_path), "--emit-plot")
    assert rc == EXIT_OK
    script = (tmp_path / "plot.gp").read_text()
    assert "trajectory.csv" in script
    assert "multiplot" in script
    marker = {"acc": "headway barrier", "bicycle": "circle at 0,0", "example1": "title 'h_u'"}
    assert marker[scenario] in script
    ncols = len((tmp_path / "trajectory.csv").read_text().splitlines()[0].split(","))
    for a, b in re.findall(r"using (\d+):(\d+)", script):
        assert 1 <= int(a) <= ncols and 1 <= int(b) <= ncols


def test_run_csv_is_byte_identical_across_reruns(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = run_cli("run", "--scenario", "acc", "--t-end", "1.0",
                     "--out", str(out))
        assert rc == EXIT_OK
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_run_csv_header_layout(tmp_path):
    rc = run_cli("run", "--scenario", "acc", "--t-end", "0.1", "--dt", "1e-2",
                 "--out", str(tmp_path))
    assert rc == EXIT_OK
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == ("t,x0,x1,x2,u0,phi0,vstar0,d0,dhat0,"
                      "b_h_x,b_h_e,b_h_u,slack_h_u,slack_h_e,c_margin,infeasible")


def test_check_example1_lists_the_boundary_counterexample(tmp_path):
    rc = run_cli("check", "--scenario", "example1", "--out", str(tmp_path))
    assert rc == EXIT_INVALID
    report = load(tmp_path / "validity.json")
    assert report["valid"] is False
    assert any(c["x"] == [4.0] and c["u"] == [0.0]
               for c in report["counterexamples"])


def test_check_bicycle_is_valid_degree_two(tmp_path):
    rc = run_cli("check", "--scenario", "bicycle", "--out", str(tmp_path))
    assert rc == EXIT_OK
    report = load(tmp_path / "validity.json")
    assert report["valid"] is True
    assert report["relative_degree"] == 2


def test_check_acc_is_valid(tmp_path):
    rc = run_cli("check", "--scenario", "acc", "--out", str(tmp_path))
    assert rc == EXIT_OK


def test_check_empty_barrier_selection_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "scenario": "example1", "check": {"barriers": []},
        "out": str(tmp_path),
    }))
    rc = run_cli("check", "--config", str(cfg))
    assert rc == EXIT_CONFIG


def _check_config(tmp_path, check, scenario="acc"):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": scenario, "check": check,
                               "out": str(tmp_path / "out")}))
    return cfg


def test_check_barrier_selection(tmp_path, monkeypatch, capsys):
    checked = []

    def recording_check(target, *args, **kwargs):
        labels = target.labels if hasattr(target, "labels") else [b.label for b in target]
        checked.append(tuple(labels))
        return real_check(target, *args, **kwargs)

    real_check = cli.check_validity
    monkeypatch.setattr(cli, "check_validity", recording_check)
    # chain first, then plain barriers; any chain label selects the whole chain
    for wanted, expected in ((None, [("h_x", "h_e"), ("h_u",)]),
                             (["h_e", "h_u"], [("h_x", "h_e"), ("h_u",)]),
                             (["h_x"], [("h_x", "h_e")]),
                             (["h_u"], [("h_u",)])):
        check = {"resolution": 2} if wanted is None else {"resolution": 2, "barriers": wanted}
        checked.clear()
        assert run_cli("check", "--config", str(_check_config(tmp_path, check))) == EXIT_OK
        assert checked == expected, wanted
    checked.clear()
    cfg = _check_config(tmp_path, {"barriers": ["h_u", "h_q"]})
    assert run_cli("check", "--config", str(cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'h_q'" in err and "['h_x', 'h_e', 'h_u']" in err
    assert checked == []


def test_check_config_is_validated_before_writing(tmp_path, capsys):
    bad = [({"times": "5"}, "check.times"),
           ({"times": [0.0, -1.0]}, "check.times"),
           ({"times": [float("nan")]}, "check.times"),
           ({"times": []}, "check.times"),
           ({"resolution": "7777"}, "check.resolution"),
           ({"resolution": 1}, "check.resolution"),
           ({"resolution": True}, "check.resolution"),
           ({"resolution": [3, 3]}, "check.resolution"),
           ({"resolution": [3, 3, 3, 2.5]}, "check.resolution")]
    for check, field in bad:
        cfg = _check_config(tmp_path, check)
        assert run_cli("check", "--config", str(cfg)) == EXIT_CONFIG, check
        assert field in capsys.readouterr().err, check
        assert not (tmp_path / "out").exists(), check
    cfg = _check_config(tmp_path, {"times": [0, 2.5], "resolution": [2, 3, 2, 2]})
    assert run_cli("check", "--config", str(cfg)) == EXIT_OK


def _entry(*argv, cwd, launch=("-c", "from do_icbf.cli import entry; entry()")):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *launch, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_entry_exit_codes(tmp_path):
    for command in ("compare", "run"):
        out = tmp_path / command
        proc = _entry(command, "--scenario", "acc", "--dt", "-1", "--out", str(out),
                      cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("do-icbf: error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()
    proc = _entry("check", "--scenario", "example1", "--out", str(tmp_path / "chk"),
                  cwd=tmp_path)
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert (tmp_path / "chk" / "validity.json").exists()


def test_module_forms_run_the_cli(tmp_path):
    argv = ("run", "--scenario", "example1", "--t-end", "0.1")
    script = _entry(*argv, "--out", str(tmp_path / "script"), cwd=tmp_path)
    assert script.returncode == EXIT_OK, script.stderr
    for module in ("do_icbf.cli", "do_icbf"):
        out = tmp_path / module
        proc = _entry(*argv, "--out", str(out), cwd=tmp_path, launch=("-m", module))
        assert proc.returncode == script.returncode, (module, proc.stderr)
        assert (out / "trajectory.csv").exists(), module


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, rather than hang, a compare whose forked child is never joined."""
    def hung(signum, frame):
        raise TimeoutError("compare did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("scenario,modes", [("acc", ("do_icbf", "icbf")),
                                            ("bicycle", ("high_order", "off"))])
def test_compare_matches_one_run_per_mode(tmp_path, scenario, modes):
    # the baseline mode runs in a forked child; its CSV and metrics must be
    # those of its own `run`, and stdout must carry each mode line once
    cmp_out = tmp_path / "compare"
    proc = _entry("compare", "--scenario", scenario, "--t-end", "1.5",
                  "--out", str(cmp_out), cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    summary = validate_summary(cmp_out / "summary.json")
    assert summary["modes"] == list(modes)
    for mode in modes:
        run_out = tmp_path / mode
        assert run_cli("run", "--scenario", scenario, "--filter", mode, "--t-end", "1.5",
                       "--out", str(run_out)) == EXIT_OK
        assert ((cmp_out / f"trajectory_{mode}.csv").read_bytes()
                == (run_out / "trajectory.csv").read_bytes()), mode
        assert summary["per_mode"][mode] == load(run_out / "summary.json")["metrics"], mode
    assert proc.stdout.splitlines() == [
        f"{mode}: min barrier values " + ", ".join(
            f"{k}={v:.4g}" for k, v in sorted(summary["per_mode"][mode]["barrier_min"].items()))
        for mode in modes]
    assert proc.stdout.endswith("\n") and proc.stderr == ""
    assert_no_child_left()


def test_compare_error_halts_report_in_mode_order(tmp_path, capsys, deadline):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "bicycle", "t_end": 8.0,
                               "overrides": {"accel": -0.1}, "out": str(tmp_path / "out")}))
    assert run_cli("compare", "--config", str(cfg)) == EXIT_ERROR
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[2].strip() for line in lines] == ["high_order", "off"]
    assert all(line.startswith("do-icbf: error: ") and "speed must be > 0" in line
               for line in lines)
    per_mode = load(tmp_path / "out" / "summary.json")["per_mode"]
    assert {m["halt_reason"] for m in per_mode.values()} == {"error"}
    assert_no_child_left()


@pytest.mark.parametrize("blocked", ["icbf", "do_icbf"], ids=["baseline", "filter"])
def test_compare_unwritable_csv_raises_after_joining(tmp_path, blocked, deadline):
    (tmp_path / f"trajectory_{blocked}.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        run_cli("compare", "--scenario", "acc", "--t-end", "0.2", "--out", str(tmp_path))
    assert_no_child_left()
    # the other mode's CSV is whole; no summary is written
    other = {"icbf": "do_icbf", "do_icbf": "icbf"}[blocked]
    rows = (tmp_path / f"trajectory_{other}.csv").read_text().splitlines()
    assert len(rows) == 1 + round(0.2 / 1e-3) + 1
    assert not (tmp_path / "summary.json").exists()


def test_compare_child_death_is_an_error(tmp_path, monkeypatch, deadline):
    real = cli.run_closed_loop

    def dies_as_baseline(scenario, sim):
        if sim.filter_mode == "icbf":
            os._exit(9)
        return real(scenario, sim)

    monkeypatch.setattr(cli, "run_closed_loop", dies_as_baseline)
    with pytest.raises(RuntimeError, match=r"^icbf: .*exited with code 9 "):
        run_cli("compare", "--scenario", "acc", "--t-end", "0.2", "--out", str(tmp_path))
    assert_no_child_left()
    assert (tmp_path / "trajectory_do_icbf.csv").exists()


def test_compare_acc_contrast(tmp_path):
    rc = run_cli("compare", "--scenario", "acc", "--t-end", "20.0",
                 "--out", str(tmp_path))
    assert rc == EXIT_OK
    summary = validate_summary(tmp_path / "summary.json")
    assert summary["kind"] == "compare"
    assert summary["modes"] == ["do_icbf", "icbf"]
    assert summary["per_mode"]["do_icbf"]["barrier_min"]["h_x"] >= -1e-3
    assert summary["per_mode"]["icbf"]["barrier_min"]["h_x"] < 0.0
    assert (tmp_path / "trajectory_do_icbf.csv").exists()
    assert (tmp_path / "trajectory_icbf.csv").exists()


def test_compare_bicycle_baseline_enters_disk(tmp_path):
    rc = run_cli("compare", "--scenario", "bicycle", "--t-end", "60.0",
                 "--out", str(tmp_path))
    assert rc == EXIT_OK
    summary = validate_summary(tmp_path / "summary.json")
    assert summary["modes"] == ["high_order", "off"]
    assert summary["per_mode"]["high_order"]["barrier_min"]["b0"] >= -1e-3
    assert summary["per_mode"]["off"]["barrier_min"]["b0"] < 0.0


def test_compare_identical_modes_is_degenerate(tmp_path):
    rc = run_cli("compare", "--scenario", "acc", "--filter", "off",
                 "--baseline", "off", "--out", str(tmp_path))
    assert rc == EXIT_CONFIG


def test_exit_codes_partition(tmp_path):
    # 0: clean run
    assert run_cli("run", "--scenario", "acc", "--t-end", "0.5",
                   "--out", str(tmp_path / "ok")) == EXIT_OK
    # 1: unreadable config
    assert run_cli("run", "--config", str(tmp_path / "missing.json")) == EXIT_CONFIG
    # 1: config without schema tag
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli("run", "--config", str(bad)) == EXIT_CONFIG
    # 1: output path already exists as a file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert run_cli("run", "--scenario", "acc", "--t-end", "0.5",
                   "--out", str(blocker)) == EXIT_CONFIG
    # 2: infeasible filter (state barrier already failing at the start point)
    cfg = tmp_path / "infeasible.json"
    cfg.write_text(json.dumps({
        "schema": 1, "scenario": "example1", "filter": "do_icbf",
        "t_end": 1.0, "overrides": {"initial_x": [3.9]},
        "out": str(tmp_path / "inf"),
    }))
    assert run_cli("run", "--config", str(cfg)) == EXIT_INFEASIBLE
    # 3: numerical blow-up (absurd step size on an unstable loop)
    assert run_cli("run", "--scenario", "acc", "--filter", "off", "--dt", "2.0",
                   "--t-end", "2000", "--out", str(tmp_path / "blow")) == EXIT_BLOWUP
    # 4: validity counterexamples
    assert run_cli("check", "--scenario", "example1",
                   "--out", str(tmp_path / "chk")) == EXIT_INVALID


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DO_ICBF_OUT", str(tmp_path / "from-env"))
    rc = run_cli("run", "--scenario", "acc", "--t-end", "0.2", "--dt", "1e-2")
    assert rc == EXIT_OK
    assert (tmp_path / "from-env" / "summary.json").exists()


def test_config_file_overrides_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "scenario": "acc", "filter": "off", "t_end": 0.5,
        "dt": 1e-2, "out": str(tmp_path / "a"),
        "overrides": {"disturbance": {"kind": "sinusoid", "amplitude": 1.0,
                                      "omega": 0.5}},
    }))
    rc = run_cli("run", "--config", str(cfg), "--filter", "do_icbf",
                 "--out", str(tmp_path / "b"))
    assert rc == EXIT_OK
    summary = validate_summary(tmp_path / "b" / "summary.json")
    assert summary["filter"] == "do_icbf"  # the flag beat the file
    assert not (tmp_path / "a").exists()


def test_usage_errors_exit_config_not_infeasible(tmp_path, capsys):
    # argparse's own status 2 would read as EXIT_INFEASIBLE
    assert run_cli("run", "--scenario", "acc", "--dt", "abc",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("run", "--scenario", "acc", "--seed", "42",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert "--dt" in capsys.readouterr().err
    assert run_cli("run", "--help") == EXIT_OK
    # check integrates nothing, so it takes no step or horizon
    assert run_cli("check", "--scenario", "example1", "--dt", "-1",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "trajectory.csv").exists()


def test_unknown_override_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema": 1, "scenario": "bicycle", "t_end": 0.1,
        "overrides": {"gamma3": 1.0}, "out": str(tmp_path / "out"),
    }))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'gamma3'" in err
    assert "gamma2" in err and "initial_x" in err
    cfg.write_text(json.dumps({"schema": 1, "scenario": "acc", "overrides": {"disturbance": 5},
                               "out": str(tmp_path / "out")}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    assert "overrides.disturbance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # only numeric builder keywords are reachable from JSON, plus the
    # initial_x / initial_u / disturbance fields; x0 / u0 are not second names
    for scenario, key, value in [("bicycle", "path", [1, 2]), ("acc", "bounds", 1),
                                 ("acc", "d_true", 1), ("acc", "x0", [0, 10, 25]),
                                 ("acc", "u0", [0]), ("bicycle", "x0", [15, 10, 1.5, 0.5])]:
        cfg.write_text(json.dumps({"schema": 1, "scenario": scenario, "t_end": 0.1,
                                   "overrides": {key: value}, "out": str(tmp_path / "out")}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unknown override {key!r} for scenario {scenario!r}" in err
        accepted = err.split("accepted: ")[1].strip().split(", ")
        assert key not in accepted and "initial_x" in accepted
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,fields,name", [
    ("acc", {"overrides": {"mass": "abc"}}, "overrides.mass must be a number"),
    ("bicycle", {"overrides": {"speed": None}}, "overrides.speed must be a number"),
    ("acc", {"overrides": {"mass": True}}, "overrides.mass must be a number"),
    ("acc", {"overrides": {"initial_x": [0, "10", 25]}}, "overrides.initial_x[1]"),
    ("acc", {"overrides": {"initial_u": "0"}}, "overrides.initial_u must be a list"),
    ("acc", {"overrides": {"disturbance": {"kind": "constant", "value": "2"}}},
     "overrides.disturbance.value must be a number"),
    ("acc", {"overrides": {"disturbance": {"kind": "sinusoid", "amplitude": True,
                                           "omega": 0.5}}},
     "overrides.disturbance.amplitude must be a number"),
    ("acc", {"log_stride": 2.7}, "log_stride must be an integer"),
    ("acc", {"log_stride": "3"}, "log_stride must be an integer"),
    ("acc", {"t_end": "0.01"}, "t_end must be a number"),
    ("acc", {"dt": True}, "dt must be a number"),
    ("acc", {"overrides": {"alpha": math.nan}}, "overrides.alpha must be finite"),
    ("acc", {"overrides": {"mass": -math.inf}}, "overrides.mass must be finite"),
    ("acc", {"overrides": {"initial_x": [0, math.inf, 25]}},
     "overrides.initial_x[1] must be finite"),
    ("acc", {"overrides": {"disturbance": {"kind": "constant", "value": math.inf}}},
     "overrides.disturbance.value must be finite"),
    ("bicycle", {"overrides": {"wheelbase": math.nan}}, "overrides.wheelbase must be finite"),
    ("acc", {"t_end": math.inf}, "t_end must be finite"),
], ids=["str-keyword", "null-keyword", "bool-keyword", "str-initial-entry",
        "str-initial", "str-disturbance", "bool-disturbance", "float-stride",
        "str-stride", "str-t_end", "bool-dt", "nan-keyword", "minus-inf-keyword",
        "inf-initial-entry", "inf-disturbance", "nan-wheelbase", "inf-t_end"])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, scenario, fields, name):
    # a JSON true is no number, a stride is no fraction, and the NaN and
    # Infinity tokens that Python's json module parses are no finite number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"schema": 1, "scenario": scenario, "t_end": 0.1,
                                    "out": str(tmp_path / "out")}, **fields)))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_integers_are_numbers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "acc", "t_end": 1, "dt": 0.01,
                               "log_stride": 10, "out": str(tmp_path / "out"),
                               "overrides": {"mass": 1650, "initial_x": [0, 10, 25],
                                             "disturbance": {"kind": "constant",
                                                             "value": 2}}}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_OK
    echo = load(tmp_path / "out" / "summary.json")["config"]
    assert (echo["t_end"], echo["log_stride"]) == (1.0, 10)


def test_initial_u_is_offered_only_to_scenarios_with_a_start_input(tmp_path, capsys):
    # bicycle derives its start steering from the Stanley law, so it takes no u0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "bicycle", "t_end": 0.1,
                               "overrides": {"initial_u": [0.1]},
                               "out": str(tmp_path / "out")}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown override 'initial_u' for scenario 'bicycle'" in err
    assert "accepted:" in err and "initial_x" in err and "gamma2" in err
    assert "u0" not in err.split("accepted:")[1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,overrides,message", [
    ("acc", {"initial_x": [1, 2]}, "initial_x: expected a vector of length 3"),
    ("acc", {"initial_u": [0, 0]}, "initial_u: expected a vector of length 1"),
    ("bicycle", {"initial_x": [15, 10, 1.5]}, "initial_x: expected a vector of length 4"),
], ids=["acc-initial_x", "acc-initial_u", "bicycle-initial_x"])
def test_wrong_length_initial_state_is_a_config_error(tmp_path, capsys, scenario, overrides,
                                                      message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": scenario, "t_end": 0.1,
                               "overrides": overrides, "out": str(tmp_path / "out")}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,fields,message", [
    ("acc", {"dt": 1e-320}, "t_end / dt must be a finite step count"),
    ("acc", {"dt": 1e-200, "t_end": 1e200}, "t_end / dt must be a finite step count"),
    ("acc", {"overrides": {"mass": 0}}, "mass must be > 0"),
    ("acc", {"overrides": {"horizon": 1e-300}}, "exp(-c1 T / mass) rounds to 1"),
    ("acc", {"overrides": {"mass": 1e308}}, "exp(-c1 T / mass) rounds to 1"),
    ("bicycle", {"overrides": {"wheelbase": 0}}, "wheelbase must be > 0, got 0"),
    ("bicycle", {"overrides": {"wheelbase": -1}}, "wheelbase must be > 0, got -1"),
], ids=["tiny-dt", "huge-step-count", "zero-mass", "tiny-horizon", "huge-mass",
        "zero-wheelbase", "negative-wheelbase"])
@pytest.mark.filterwarnings("error")
def test_degenerate_numbers_are_config_errors(tmp_path, capsys, scenario, fields, message):
    # each is a config error of the prepare step, raised before --out is created
    # and before any arithmetic that would warn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"schema": 1, "scenario": scenario, "t_end": 0.1,
                                    "out": str(tmp_path / "out")}, **fields)))
    assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("do-icbf: error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_mid_run_error_halts_with_partial_output(tmp_path, capsys):
    # a braking bicycle reaches zero speed at t = 5 s, where the Stanley law
    # raises: the run halts with reason "error" and still writes its files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "bicycle", "t_end": 8.0,
                               "overrides": {"accel": -0.1}, "out": str(tmp_path / "out")}))
    assert run_cli("run", "--config", str(cfg)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("do-icbf: error: high_order: t=5")
    assert "speed must be > 0" in err
    summary = validate_summary(tmp_path / "out" / "summary.json")
    metrics = summary["metrics"]
    assert metrics["halt_reason"] == "error"
    assert metrics["t_final"] == pytest.approx(5.0)
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + metrics["steps_logged"]
