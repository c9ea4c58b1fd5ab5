import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest

from do_icbf import build_acc, build_example1, cli, simulate
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
    marker = {"acc": "title 'dhat0'", "bicycle": "title 'u0'", "example1": "title 'b_h_u'"}
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


def _check_config(tmp_path, check, scenario="acc", **fields):
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": scenario, "check": check,
                               "out": str(tmp_path / "out"), **fields}))
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
           ({"resolution": [3, 3, 3, 2.5]}, "check.resolution"),
           ({"resolutions": 3}, "unknown check key(s) 'resolutions'; accepted: barriers, "
                                "resolution, times"),
           (5, "check must be a JSON object")]
    for check, field in bad:
        cfg = _check_config(tmp_path, check)
        assert run_cli("check", "--config", str(cfg)) == EXIT_CONFIG, check
        assert field in capsys.readouterr().err, check
        assert not (tmp_path / "out").exists(), check
    # a key that only run or compare reads is unknown to check, not ignored
    for key, value in (("t_end", 5), ("dt", 0.01), ("log_stride", 2), ("filter", "off"),
                       ("baseline", "off"), ("emit_plot", True)):
        cfg = _check_config(tmp_path, {"resolution": 2}, **{key: value})
        assert run_cli("check", "--config", str(cfg)) == EXIT_CONFIG, key
        assert (f"unknown config key(s) '{key}' for command 'check'; accepted: check, out, "
                f"overrides, scenario, schema") in capsys.readouterr().err, key
        assert not (tmp_path / "out").exists(), key
    cfg = _check_config(tmp_path, {"times": [0, 2.5], "resolution": [2, 3, 2, 2]})
    assert run_cli("check", "--config", str(cfg)) == EXIT_OK


def test_config_must_declare_its_schema(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for cfg, message in (({"scenario": "example1"}, 'config must declare "schema": 1'),
                         ({"schema": 2, "scenario": "example1"}, 'declare "schema": 1'),
                         ({"schema": True, "scenario": "example1"}, 'declare "schema": 1'),
                         ([], "config must be a JSON object, got []")):
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "out")
        assert run_cli("check", "--config", str(path), "--out", out) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_runs_close_their_spools(tmp_path, command):
    # in development mode an unclosed file is reported when it is collected;
    # the module form of compare writes the CSV of each of its modes
    proc = _entry(command, "--scenario", "example1", "--t-end", "0.1", "--out", str(tmp_path),
                  cwd=tmp_path, launch=("-X", "dev", "-W", "error::ResourceWarning",
                                        "-m", "do_icbf"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr
    csvs = (["trajectory.csv"] if command == "run"
            else ["trajectory_do_icbf.csv", "trajectory_off.csv"])
    assert all((tmp_path / csv).is_file() for csv in csvs), csvs


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # none running, none unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch, forks):
    """Let compare and check fork as on a host with two CPUs, whatever this
    host has; returns the list of forks this process makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return forks


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


def _one_error_line(capsys, *parts):
    """stderr is a single error line that contains each of parts."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("do-icbf: error: "), err
    assert all(part in err for part in parts), err


@pytest.mark.parametrize("blocked", ["icbf", "do_icbf"], ids=["baseline", "filter"])
def test_compare_unwritable_csv_raises_after_joining(tmp_path, capsys, blocked, deadline,
                                                      two_cpus):
    (tmp_path / f"trajectory_{blocked}.csv").mkdir()
    assert run_cli("compare", "--scenario", "acc", "--t-end", "0.2",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    _one_error_line(capsys, f"trajectory_{blocked}.csv")
    assert_no_child_left()
    assert len(two_cpus) == 1
    # the other mode's CSV is whole; no summary is written
    other = {"icbf": "do_icbf", "do_icbf": "icbf"}[blocked]
    rows = (tmp_path / f"trajectory_{other}.csv").read_text().splitlines()
    assert len(rows) == 1 + round(0.2 / 1e-3) + 1
    assert not (tmp_path / "summary.json").exists()


def test_compare_child_death_is_an_error(tmp_path, capsys, monkeypatch, deadline, two_cpus):
    real = cli.run_closed_loop

    def dies_as_baseline(scenario, sim):
        if sim.filter_mode == "icbf":
            os._exit(9)
        return real(scenario, sim)

    monkeypatch.setattr(cli, "run_closed_loop", dies_as_baseline)
    assert run_cli("compare", "--scenario", "acc", "--t-end", "0.2",
                   "--out", str(tmp_path)) == EXIT_ERROR
    _one_error_line(capsys, "do-icbf: error: icbf: ", "exited with code 9 ")
    assert_no_child_left()
    # the other mode's CSV is whole; no summary is written
    rows = (tmp_path / "trajectory_do_icbf.csv").read_text().splitlines()
    assert len(rows) == 1 + round(0.2 / 1e-3) + 1
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, blocked", [("run", "trajectory.csv"),
                                              ("run", "summary.json"),
                                              ("check", "validity.json"),
                                              ("compare", "trajectory_off.csv")])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, deadline, two_cpus, command,
                                            blocked):
    # compare's trajectory_off.csv is written by its forked child
    (tmp_path / blocked).mkdir()
    argv = [command, "--scenario", "example1", "--out", str(tmp_path)]
    assert run_cli(*argv, *(["--t-end", "0.1"] if command != "check" else [])) == EXIT_CONFIG
    _one_error_line(capsys, blocked)
    assert len(two_cpus) == (1 if command == "compare" else 0)


def test_forked_compare_spools_each_log(tmp_path, monkeypatch, deadline, two_cpus):
    # each process spools the log of its own mode: with a chunk of 3 rows,
    # compare's files are those of the default chunk
    width = len(simulate.TrajectoryLog(build_acc(), simulate.SimConfig()).header)
    default = simulate.LOG_CHUNK_BYTES
    files = []
    for chunk in (default, 8 * width * 3):
        monkeypatch.setattr(simulate, "LOG_CHUNK_BYTES", chunk)
        out = tmp_path / str(chunk)
        assert run_cli("compare", "--scenario", "acc", "--t-end", "1.0",
                       "--out", str(out)) == EXIT_OK
        assert_no_child_left()
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(two_cpus) == 2
    assert sorted(files[0]) == ["summary.json", "trajectory_do_icbf.csv", "trajectory_icbf.csv"]
    assert files[1] == files[0]


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_spool_that_cannot_be_made_is_one_error_line(tmp_path, monkeypatch, capsys, deadline,
                                                       two_cpus, command):
    # every run spools its log, however short: with a regular file for the
    # temporary directory, run and compare's forked baseline each fail to
    # make the spool, exit 1 and write no summary
    not_a_dir = tmp_path / "tmp"
    not_a_dir.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(not_a_dir))
    out = tmp_path / "out"
    assert run_cli(command, "--scenario", "example1", "--t-end", "0.1",
                   "--out", str(out)) == EXIT_CONFIG
    _one_error_line(capsys, "Not a directory")
    assert_no_child_left()
    assert len(two_cpus) == (1 if command == "compare" else 0)
    assert not (out / "summary.json").exists()


def test_one_cpu_runs_every_command_in_process(tmp_path, monkeypatch, deadline, two_cpus):
    # the same files whether compare's baseline and check's second block run
    # in forked children or, on one CPU, here in turn
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        two_cpus.clear()
        out = tmp_path / str(len(cpus))
        assert run_cli("compare", "--scenario", "acc", "--t-end", "1.0",
                       "--out", str(out / "compare")) == EXIT_OK
        assert run_cli("check", "--scenario", "bicycle", "--out", str(out / "check")) == EXIT_OK
        assert len(two_cpus) == (2 if len(cpus) > 1 else 0)
        assert_no_child_left()
    for name in ("compare/trajectory_do_icbf.csv", "compare/trajectory_icbf.csv",
                 "compare/summary.json", "check/validity.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


class BlockError(Exception):
    """Raised by a barrier in one block of a split grid check."""


@pytest.mark.parametrize("where", ["child", "parent"])
def test_check_error_in_a_block_is_raised_after_joining(tmp_path, monkeypatch, deadline,
                                                        two_cpus, where):
    monkeypatch.setattr(cli, "CHECK_POINTS_PER_PROCESS", 1)
    sc = build_example1()
    h_x, h_u = sc.barriers

    def h(x, u):  # on the 9 states 0 .. 4, block 1 of 2 holds x >= 2
        if (x[0] >= 2.0) == (where == "child"):
            raise BlockError(f"h_x at x = {x[0]}")
        return h_x.h(x, u)

    targets = [[dataclasses.replace(h_x, h=h), h_u]]
    with pytest.raises(BlockError, match="h_x at x = "):
        cli.cmd_check(sc, targets, sc.check_box, 9, None, tmp_path)
    assert len(two_cpus) == 1
    assert_no_child_left()
    assert not (tmp_path / "validity.json").exists()


def test_check_has_no_more_blocks_than_states(tmp_path, monkeypatch, deadline, forks):
    # example1 on a 2 x 9 grid with eight CPUs: two blocks of one state each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(cli, "CHECK_POINTS_PER_PROCESS", 1)
    cfg = _check_config(tmp_path, {"resolution": [2, 9]}, scenario="example1")
    assert run_cli("check", "--config", str(cfg)) == EXIT_INVALID
    assert len(forks) == 1
    assert_no_child_left()


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


def test_compare_config_takes_only_its_keys(tmp_path, capsys):
    # compare reads baseline, not run's emit_plot nor check's block
    cfg = tmp_path / "cfg.json"
    for key, value in (("emit_plot", True), ("check", {"resolution": 3})):
        cfg.write_text(json.dumps({"schema": 1, "scenario": "acc", "t_end": 0.1, key: value,
                                   "out": str(tmp_path / "out")}))
        assert run_cli("compare", "--config", str(cfg)) == EXIT_CONFIG, key
        assert (f"unknown config key(s) '{key}' for command 'compare'; accepted: baseline, "
                f"dt, filter, log_stride,") in capsys.readouterr().err, key
        assert not (tmp_path / "out").exists(), key


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
    ("acc", {"overrides": {"mass": 10 ** 400}}, "overrides.mass must be finite"),
    ("acc", {"overrides": 5}, "overrides must be a JSON object, got 5"),
    ("acc", {"overrides": [["x0", [1.0]]]}, "overrides must be a JSON object"),
    ("acc", {"overrides": {"disturbance": {"kind": "constant"}}},
     "overrides.disturbance.value is required"),
    ("acc", {"overrides": {"disturbance": {"kind": "sinusoid", "amplitude": 1.0}}},
     "overrides.disturbance.omega is required"),
    ("acc", {"overrides": {"disturbance": {"value": 2.0}}},
     "overrides.disturbance.kind must be"),
    ("acc", {"out": 5}, "out must be a string, got 5"),
    ("acc", {"scenario": ["acc"]}, "scenario must be a string"),
    ("acc", {"emit_plot": "no"}, "emit_plot must be a bool, got 'no'"),
    ("acc", {"check": {"resolutions": 3}}, "unknown config key(s) 'check' for command 'run'"),
    ("acc", {"check": {"resolution": 3}}, "unknown config key(s) 'check' for command 'run'"),
    ("acc", {"baseline": "icbf"}, "unknown config key(s) 'baseline' for command 'run'; "
                                  "accepted: dt, emit_plot, filter, log_stride, out, "
                                  "overrides, scenario, schema, t_end"),
], ids=["str-keyword", "null-keyword", "bool-keyword", "str-initial-entry",
        "str-initial", "str-disturbance", "bool-disturbance", "float-stride",
        "str-stride", "str-t_end", "bool-dt", "nan-keyword", "minus-inf-keyword",
        "inf-initial-entry", "inf-disturbance", "nan-wheelbase", "inf-t_end",
        "huge-int-keyword", "int-overrides", "list-overrides", "constant-without-value",
        "sinusoid-without-omega", "disturbance-without-kind", "int-out", "list-scenario",
        "str-emit_plot", "run-with-bad-check", "run-with-check", "run-with-baseline"])
def test_config_numbers_must_be_json_numbers(tmp_path, capsys, scenario, fields, name):
    # a JSON true is no number, a stride is no fraction, and neither the NaN
    # and Infinity tokens that Python's json module parses nor an integer
    # beyond the range of a float is a finite number; every other field has
    # its JSON type too, the required fields of a disturbance must be there,
    # and a key that run does not read (check's block, compare's baseline),
    # valid or not, is unknown to it
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
    ("example1", {"tend": 0.01}, "unknown config key(s) 'tend' for command 'run'; "
                                 "accepted: dt, emit_plot,"),
    ("acc", {"overrides": {"disturbance": {"kind": "sinusoid", "amplitude": 1.0, "omega": 0.5,
                                           "phse": 1.0}}},
     "unknown overrides.disturbance key(s) 'phse'; accepted: amplitude, kind, omega, phase"),
    ("acc", {"overrides": {"disturbance": {"kind": "constant", "value": 1.0, "omega": 0.5}}},
     "unknown overrides.disturbance key(s) 'omega'; accepted: kind, value"),
], ids=["tiny-dt", "huge-step-count", "zero-mass", "tiny-horizon", "huge-mass",
        "zero-wheelbase", "negative-wheelbase", "unknown-top-level-key",
        "unknown-disturbance-key", "key-of-another-disturbance-kind"])
@pytest.mark.filterwarnings("error")
def test_degenerate_numbers_are_config_errors(tmp_path, capsys, scenario, fields, message):
    # each is a config error of the prepare step, raised before --out is created
    # and before any arithmetic that would warn; so is a key the config, or
    # its disturbance, does not take
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
