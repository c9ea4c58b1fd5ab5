"""The CLI knows no scenario by name: the plot script is read from the log
header and the scenario's disturbance bounds, the `disturbance` override is
offered to any builder that takes d_true and bounds, and a run is named by
its config's `scenario`. A config number is
checked without converting it to a float, so one too large for a float is a
config error that names its field, and so is a registered builder's box that
does not fit its model, start outside its safe set (or at an infinite barrier
value), potential other than L_d x for a constant gain, disturbance of the
wrong length, or fast_loop scenario that the float kernel cannot run. A law that
fails before a run's first step, or a barrier that fails during a check, is
one error line with exit 5, and so is any exception but an OSError that
halts a run after its first step, which still writes its partial CSV."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from do_icbf import (DomainBox, build_acc, build_bicycle, build_example1, cli, scenarios,
                     simulate)


def panels(script):
    """The (ylabel, plot command) of each panel of a plot script."""
    return re.findall(r"set ylabel '([^']*)'\nplot ((?:.*, \\\n)*.*)\n", script)


@pytest.mark.parametrize("name,build,last", [
    ("custom", build_acc, ("disturbance", ["d0", "dhat0"])),
    ("bicycle", build_bicycle, ("inputs", ["u0"])),
    ("example1", build_example1, ("inputs", ["u0"])),
], ids=["renamed-acc", "bicycle", "example1"])
def test_plot_script_is_read_from_the_header(name, build, last):
    scenario = build()
    log = simulate.TrajectoryLog(scenario, simulate.SimConfig())
    header = log.header
    script = cli.plot_script(log, scenario, name)
    assert f"set output '{name}_do_icbf.png'" in script
    drawn = []
    for ylabel, plot in panels(script):
        curves = re.findall(r"using (\d+):(\d+) with lines title '([^']*)'", plot)
        for a, b, title in curves:
            # t against the column the curve is titled by, both in range
            assert 1 <= int(a) <= len(header) and 1 <= int(b) <= len(header)
            assert (header[int(a) - 1], header[int(b) - 1]) == ("t", title)
        drawn.append((ylabel, [title for _, _, title in curves],
                      "0 with lines dashtype 2" in plot))
    assert drawn == [
        ("states", [name for name in header if re.fullmatch(r"x\d+", name)], False),
        ("barrier values", [name for name in header if name.startswith("b_")], True),
        (*last, False),
    ]
    assert "circle" not in script


def test_disturbance_override_is_offered_by_signature(tmp_path, monkeypatch, capsys):
    # a builder registered under any name that takes d_true and bounds gets it
    monkeypatch.setitem(scenarios.BUILDERS, "platoon", build_acc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "platoon", "t_end": 0.1, "dt": 0.01,
                               "overrides": {"disturbance": {"kind": "constant", "value": 0.5}},
                               "out": str(tmp_path / "out")}))
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_OK
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    d0 = rows[0].split(",").index("d0")
    assert {float(row.split(",")[d0]) for row in rows[1:]} == {0.5}
    # builders without those keywords do not
    for name in ("bicycle", "example1"):
        cfg.write_text(json.dumps({"schema": 1, "scenario": name, "t_end": 0.1,
                                   "overrides": {"disturbance": {"kind": "constant",
                                                                 "value": 0.5}},
                                   "out": str(tmp_path / name)}))
        assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"unknown override 'disturbance' for scenario {name!r}" in err
        assert "disturbance" not in err.split("accepted: ")[1].strip().split(", ")
        assert not (tmp_path / name).exists()


def test_a_run_is_named_by_its_config(tmp_path, monkeypatch):
    # a builder registered under another name runs under that name in the
    # summary, its config echo and the plot script's output file
    monkeypatch.setitem(scenarios.BUILDERS, "platoon", build_acc)
    for command, extra in (("run", ["--emit-plot"]), ("compare", [])):
        out = tmp_path / command
        assert cli.main([command, "--scenario", "platoon", "--t-end", "0.1", "--out", str(out),
                         *extra]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == summary["config"]["scenario"] == "platoon"
    assert "set output 'platoon_do_icbf.png'\n" in (tmp_path / "run" / "plot.gp").read_text()


def test_check_time_beyond_a_float_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema": 1, "scenario": "example1", "check": {"times": [10 ** 400]},
                               "out": str(tmp_path / "out")}))
    assert cli.main(["check", "--config", str(cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("do-icbf: error: check.times must be a non-empty list of finite")
    assert not (tmp_path / "out").exists()


def test_a_builder_whose_domain_does_not_fit_its_model_is_a_config_error(tmp_path, monkeypatch,
                                                                         capsys):
    # a two-state domain on one-state example1 fails where the scenario is
    # built, before a row is packed or the output directory is made
    wide = DomainBox(x_low=(-10.0, -10.0), x_high=(10.0, 10.0), u_low=(-2.0,), u_high=(2.0,))
    monkeypatch.setitem(scenarios.BUILDERS, "wide",
                        lambda: dataclasses.replace(build_example1(), domain=wide))
    assert cli.main(["run", "--scenario", "wide", "--t-end", "0.1",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("do-icbf: error: domain has state bounds of shape (2,)")
    assert not (tmp_path / "out").exists()


def _one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"do-icbf: error: {start}"), err
    return err


def _shifted():
    # a constant gain's potential is L_d x: acc's gain with another q_fn is
    # refused by ObserverConfig
    acc = build_acc()
    return dataclasses.replace(acc, obs_cfg=dataclasses.replace(acc.obs_cfg,
                                                                q_fn=lambda x: x[1:2] + 1.0))


def _state_gain():
    # acc takes the float kernel, which cannot run a state-map gain
    acc = build_acc()
    obs = acc.obs_cfg
    return dataclasses.replace(acc, obs_cfg=dataclasses.replace(obs, L_d=lambda x: obs.L_d,
                                                                q_fn=obs.q))


def _short_d():
    # example1 has p = 1: a two-entry d_true is refused where the scenario is
    # made, not when the loop packs the first row
    example1 = build_example1()
    model = dataclasses.replace(example1.model, d_true=lambda t: np.zeros(2))
    return dataclasses.replace(example1, model=model)


def _infinite():
    # h_x = +inf at the start is not a margin, and would halt "blowup" at t = 0
    example1 = build_example1()
    h_x, h_u = example1.barriers
    h_inf = dataclasses.replace(h_x, h=lambda x, u: math.inf)
    return dataclasses.replace(example1, barriers=(h_inf, h_u))


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("build,message", [
    # x = 5 is past example1's wall x <= 4: not run and reported as an
    # infeasible filter at t = 0
    (lambda: dataclasses.replace(build_example1(), x0=[5.0]),
     "initial state is outside the safe set: {'h_x': -1.0} "),
    (_shifted, "q_fn is given only with a state-map L_d; the potential of a constant L_d "
               "is L_d x\n"),
    (_state_gain, "fast_loop (the float kernel) needs a constant L_d\n"),
    (_short_d, "d_true(0): expected a vector of length 1"),
    (_infinite, "initial state is outside the safe set: {'h_x': inf} "
                "(all barrier values must be finite and >= 0)\n"),
], ids=["outside", "shifted", "state-gain", "short-d", "infinite"])
def test_an_unrunnable_scenario_is_a_config_error(command, build, message, tmp_path, monkeypatch,
                                                  capsys):
    # a registered builder whose scenario cannot run is refused where the
    # scenario is made: exit 1, its own error line and no output directory
    monkeypatch.setitem(scenarios.BUILDERS, "unrunnable", build)
    assert cli.main([command, "--scenario", "unrunnable", "--t-end", "0.1",
                     "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    _one_error_line(capsys, message)
    assert not (tmp_path / "out").exists()


def _fails_at_start():
    class FailsAtStart:
        def rate(self, t, x, u, dt):
            raise ValueError("no rate at t = 0")

    return dataclasses.replace(build_example1(), law=FailsAtStart())


def _fails_past_3():
    # example1 whose h_x is undefined past x = 3, inside its check box
    def h_x(x, u):
        if x[0] > 3.0:
            raise ValueError("h_x is undefined past x = 3")
        return 4.0 - x[0]

    example1 = build_example1()
    h_x_spec, h_u_spec = example1.barriers
    return dataclasses.replace(example1, barriers=(dataclasses.replace(h_x_spec, h=h_x), h_u_spec))


@pytest.mark.parametrize("command,build,message", [
    ("run", _fails_at_start, "do_icbf: t=0: no rate at t = 0"),
    ("compare", _fails_at_start, "do_icbf: t=0: no rate at t = 0"),
    ("check", _fails_past_3, "h_x is undefined past x = 3"),
], ids=["run", "compare", "check"])
def test_a_run_or_check_that_cannot_start_is_one_error_line(
        command, build, message, tmp_path, monkeypatch, capsys, deadline):
    # a run that fails before its first step has no row to halt on, and a
    # check has no halt at all: the error leaves the command as exit 5 and
    # one line, with no CSV, summary.json or validity.json written
    monkeypatch.setitem(scenarios.BUILDERS, "fails", build)
    extra = [] if command == "check" else ["--t-end", "0.1"]
    out = tmp_path / "out"
    assert cli.main([command, "--scenario", "fails", *extra, "--out", str(out)]) == cli.EXIT_ERROR
    _one_error_line(capsys, f"{message}\n")
    assert list(out.iterdir()) == []


def test_an_index_error_after_the_first_step_is_an_error_halt(tmp_path, monkeypatch, capsys):
    # example1 whose law indexes past its one state from t = 0.06 on: the
    # run halts "error" there with its partial CSV and summary.json
    class IndexesPastX:
        def rate(self, t, x, u, dt):
            return (x[3],) if t > 0.05 else (0.0,)

    monkeypatch.setitem(scenarios.BUILDERS, "fails-late",
                        lambda: dataclasses.replace(build_example1(), law=IndexesPastX()))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "fails-late", "--dt", "0.01", "--t-end", "0.1",
                     "--out", str(out)]) == cli.EXIT_ERROR
    err = _one_error_line(capsys, "do_icbf: t=0.06: ")
    assert "index" in err
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 6
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"]["halt_reason"] == "error"
