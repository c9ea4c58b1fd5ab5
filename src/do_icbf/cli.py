"""Command-line front end.

    do-icbf run     --scenario acc --filter do_icbf --out results/
    do-icbf check   --scenario example1
    do-icbf compare --scenario acc

Exit codes partition the outcomes: 0 clean finish, 1 unusable arguments,
config or I/O failure, 2 filter infeasibility, 3 numerical blow-up, 4 validity
counterexamples found, 5 an error raised during a run or a check, or a dead
forked child; each failure is a "do-icbf: error:" line on stderr. Config files
are JSON with a versioned top-level "schema": 1 field; command-line flags
override config values. The default output directory comes from --out, else
$DO_ICBF_OUT, else ./do-icbf-out.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import pickle
import re
import sys
from pathlib import Path

from .errors import ConfigurationError
from .filter import ValidityReport, _grid_axes, check_validity
from .model import DisturbanceBounds
from .scenarios import BUILDERS, build_scenario, constant_disturbance, sinusoid_disturbance
from .simulate import FILTER_MODES, SimConfig, run_closed_loop, summarize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_BLOWUP = 3
EXIT_INVALID = 4
EXIT_ERROR = 5

# Grid points per process of a check. Forking a child and joining its report
# took about 7 ms on a 2-core x86 host (Python 3.11), the scan of 1000 to 2000
# points of the built-in grids, so a grid is split only where each process
# scans at least this many points.
CHECK_POINTS_PER_PROCESS = 2000

_HALT_EXIT = {"completed": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "blowup": EXIT_BLOWUP,
              "error": EXIT_ERROR}


def _fail(message: str, code: int = EXIT_CONFIG) -> int:
    print(f"do-icbf: error: {message}", file=sys.stderr)
    return code


class ChildDiedError(RuntimeError):
    """A forked child exited before it sent its result."""


# The keys of a config that each command reads and of its `check`; the JSON
# type of each top-level field but schema and the two objects, and the name of
# each type in an error; and the override names of the builder's x0 and u0.
_SHARED_KEYS = ("schema", "scenario", "out", "overrides")
_SIM_KEYS = _SHARED_KEYS + ("filter", "dt", "t_end", "log_stride")
CONFIG_KEYS = {"run": _SIM_KEYS + ("emit_plot",), "compare": _SIM_KEYS + ("baseline",),
               "check": _SHARED_KEYS + ("check",)}
CHECK_KEYS = ("resolution", "times", "barriers")
FIELD_TYPES = {"scenario": str, "filter": str, "baseline": str, "out": str, "emit_plot": bool,
               "dt": float, "t_end": float, "log_stride": int}
_KIND_NAMES = {str: "a string", bool: "a bool", int: "an integer", float: "a number"}
_INITIAL = {"initial_x": "x0", "initial_u": "u0"}
# Each kind of the `disturbance` override: its constructor, the constructor's
# keywords (all but "phase" required) and its (k0, k1) bounds.
DISTURBANCES = {
    "constant": (constant_disturbance, ("value",), lambda value: (abs(value), 0.0)),
    "sinusoid": (sinusoid_disturbance, ("amplitude", "omega", "phase"),
                 lambda amplitude, omega, phase=0.0: (abs(amplitude), abs(amplitude * omega))),
}


def _json_object(value, name: str, accepted, required=(),
                 unknown: str = "{name} key(s) {keys}") -> dict:
    """value if it is a JSON object with the required keys and no key outside
    accepted; else a ConfigurationError naming the field or the unknown keys."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {value!r}")
    keys = ", ".join(map(repr, sorted(set(value) - set(accepted))))
    if keys:
        raise ConfigurationError(f"unknown {unknown.format(name=name, keys=keys)}; "
                                 f"accepted: {', '.join(sorted(accepted))}")
    for key in required:
        if key not in value:
            raise ConfigurationError(f"{name}.{key} is required")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = _json_object(json.load(fh), "config", CONFIG_KEYS[args.command],
                               unknown=f"config key(s) {{keys}} for command {args.command!r}")
        if type(cfg.get("schema")) is not int or cfg["schema"] != 1:  # a JSON true is no 1
            raise ConfigurationError("config must declare \"schema\": 1")
    for key, kind in FIELD_TYPES.items():
        if getattr(args, key, None) is not None:  # flags win; log_stride has none
            cfg[key] = getattr(args, key)
        if key in cfg:
            cfg[key] = _typed(cfg[key], kind, key)
    if "scenario" not in cfg:
        raise ConfigurationError("no scenario given (use --scenario or a config file)")
    return cfg


def _typed(value, kind: type, name: str):
    """A JSON value of the given kind (str, bool or int; float is any JSON
    number, returned as a float); anything else, a bool for a number, NaN or
    Infinity too, is a ConfigurationError naming the field."""
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigurationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind in (int, float) and not abs(value) <= sys.float_info.max:  # NaN fails too
        got = "an integer too large for a float" if type(value) is int else repr(value)
        raise ConfigurationError(f"{name} must be finite, got {got}")
    return float(value) if kind is float else value


def _build_from_config(cfg: dict):
    name = cfg["scenario"]
    if name not in BUILDERS:
        raise ConfigurationError(f"unknown scenario {name!r}; available: {sorted(BUILDERS)}")
    params = inspect.signature(BUILDERS[name]).parameters
    # JSON reaches the numeric keywords; initial_x / initial_u rename x0 / u0,
    # offered where the builder has them
    accepted = {key for key, param in params.items() if isinstance(param.default, (int, float))}
    accepted |= {field for field, param in _INITIAL.items() if param in params}
    if {"d_true", "bounds"} <= params.keys():
        accepted.add("disturbance")
    overrides = dict(_json_object(cfg.get("overrides", {}), "overrides", accepted,
                                  unknown=f"override {{keys}} for scenario {name!r}"))
    dist = overrides.pop("disturbance", None)
    for key, value in overrides.items():
        if key not in _INITIAL:
            _typed(value, float, f"overrides.{key}")
        elif isinstance(value, list):  # the builder checks the length
            for i, v in enumerate(value):
                _typed(v, float, f"overrides.{key}[{i}]")
        else:
            raise ConfigurationError(f"overrides.{key} must be a list of numbers, got {value!r}")
    if dist is not None:
        kind = dist.get("kind") if isinstance(dist, dict) else None
        if isinstance(dist, dict) and kind not in DISTURBANCES:
            raise ConfigurationError(f"overrides.disturbance.kind must be "
                                     f"{' or '.join(map(json.dumps, DISTURBANCES))}, got {kind!r}")
        make, keys, bounds = DISTURBANCES.get(kind, (None, (), None))  # a non-object fails next
        num = {key: _typed(v, float, f"overrides.disturbance.{key}") for key, v in
               _json_object(dist, "overrides.disturbance", ("kind",) + keys,
                            ("kind",) + tuple(key for key in keys if key != "phase")).items()
               if key != "kind"}
        overrides["d_true"] = make(**num)
        overrides["bounds"] = DisturbanceBounds(*bounds(**num))
    return build_scenario(name, **{_INITIAL.get(key, key): v for key, v in overrides.items()})


def _outdir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get("DO_ICBF_OUT") or "do-icbf-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    probe = path / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return path


def _sim_configs(cfg: dict, scenario, command: str) -> list:
    """One SimConfig per mode: the filter mode and, for compare, its baseline."""
    modes = [cfg.get("filter", scenario.designated_mode)]
    if command == "compare":
        modes.append(cfg.get("baseline", scenario.baseline_mode))
        if modes[0] == modes[1]:
            raise ConfigurationError(f"degenerate comparison: both modes are {modes[0]!r}")
    settings = {"t_end": scenario.default_t_end}
    settings.update((key, cfg[key]) for key in ("dt", "t_end", "log_stride") if key in cfg)
    return [SimConfig(filter_mode=mode, **settings) for mode in modes]


def _check_plan(cfg: dict, scenario) -> tuple:
    """The validated `check` block as (targets, box, resolution, times).

    Targets come chain first, then the plain barriers; any label of the
    chain selects the whole chain. Without `barriers` every label is wanted.
    """
    check = _json_object(cfg.get("check", {}), "check", CHECK_KEYS)
    accepted = scenario.value_labels
    wanted = check.get("barriers", accepted)
    if not (isinstance(wanted, list) and wanted and all(lab in accepted for lab in wanted)):
        raise ConfigurationError(f"check.barriers must be a non-empty list of labels from "
                                 f"{accepted}, got {wanted!r}")
    chain = scenario.chain
    targets = [chain] if chain is not None and set(chain.labels) & set(wanted) else []
    specs = [b for b in scenario.barriers if b.label in wanted]
    targets += [specs] if specs else []
    box = scenario.check_box or scenario.domain
    resolution = check.get("resolution", scenario.check_resolution)
    try:
        _grid_axes(box, resolution)
    except ConfigurationError as exc:
        raise ConfigurationError(f"check.{exc}") from None
    times = check.get("times")
    if times is not None and not (isinstance(times, list) and times and all(
            type(t) in (int, float) and 0 <= t <= sys.float_info.max for t in times)):
        raise ConfigurationError(f"check.times must be a non-empty list of finite numbers "
                                 f">= 0, got {times!r}")
    return targets, box, resolution, times


def _config_echo(cfg: dict, sim: SimConfig) -> dict:
    echo = {"scenario": cfg["scenario"], "dt": sim.dt, "t_end": sim.t_end,
            "log_stride": sim.log_stride}
    if cfg.get("overrides"):
        echo["overrides"] = dict(cfg["overrides"])  # JSON values, as loaded
    return echo


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_mode(scenario, sim: SimConfig, csv: Path, name: str, plot: bool) -> tuple:
    """Simulate, summarize and write the CSV of one mode, and with plot the
    gnuplot script plot.gp of the run `name` beside it; returns the mode's
    (metrics, halt_message). An error raised before step 0, where no row
    halts the run, reads as a halt at t = 0 would."""
    try:
        log = run_closed_loop(scenario, sim)
    except OSError:
        raise
    except Exception as exc:
        raise RuntimeError(f"{sim.filter_mode}: t=0: {exc}") from exc
    try:
        metrics = summarize(log, scenario)
        log.write_csv(csv)
    finally:
        log.close()
    if plot:
        (csv.parent / "plot.gp").write_text(plot_script(log, scenario, name), encoding="utf-8")
    return metrics, log.halt_message


def _fork(name: str, work) -> tuple:
    """Start work() in a forked child, which pickles what it returns, or the
    exception it raised, into a pipe and exits; returns (name, pid, read end
    of the pipe)."""
    sys.stdout.flush()  # nothing the parent buffered may be written twice
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return name, pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        try:
            reply = work()
        except BaseException as exc:
            reply = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(reply, pipe)
        code = 0
    finally:
        os._exit(code)  # no atexit handler, no flush of inherited buffers


def _join(name: str, pid: int, read_fd: int):
    """Wait for a forked child; returns what it sent, or a ChildDiedError if
    it died first."""
    with os.fdopen(read_fd, "rb") as pipe:
        blob = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return ChildDiedError(f"{name}: the process running this task exited with code "
                              f"{code} before sending its result")
    return pickle.loads(blob)


def _run_tasks(tasks: list) -> list:
    """Call each task, a (name, no-argument callable) pair, and return what
    they return, in task order.

    With more than one task and more than one CPU this process may use,
    every task after the first runs in a forked child while this process
    runs the first; the children are joined even when the first raises,
    and the first exception in task order is raised once all are joined.
    Otherwise the tasks run here, one after the other."""
    if len(tasks) < 2 or len(os.sched_getaffinity(0)) < 2:
        return [work() for _, work in tasks]
    children = []
    try:
        for name, work in tasks[1:]:
            children.append(_fork(name, work))
        first = tasks[0][1]()
    finally:
        replies = [_join(*child) for child in children]
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return [first, *replies]


def cmd_simulate(command: str, cfg: dict, scenario, sims: list, out: Path) -> int:
    """Run, summarize and write the CSV of each mode, then the summary of the
    `run` or `compare` kind, all under the run's name cfg["scenario"];
    returns the exit code of the worst halt.

    When the process may use more than one CPU, each mode after the first
    runs at the same time in a forked child, which writes its own CSV and
    sends back only its metrics and halt, so each process holds one log;
    children are joined even when the first mode raises. On one CPU the modes
    run here in turn. Output, and an exception a mode raised, come in mode
    order, as from one mode after the other."""
    csvs = [out / ("trajectory.csv" if command == "run" else f"trajectory_{sim.filter_mode}.csv")
            for sim in sims]
    name, plot = cfg["scenario"], command == "run" and bool(cfg.get("emit_plot"))
    tasks = [(sim.filter_mode, lambda sim=sim, csv=csv: _run_mode(scenario, sim, csv, name, plot))
             for sim, csv in zip(sims, csvs)]
    per_mode = {}
    for sim, (metrics, halt_message) in zip(sims, _run_tasks(tasks)):
        per_mode[sim.filter_mode] = metrics
        if metrics["halt_reason"] == "error":
            print(f"do-icbf: error: {sim.filter_mode}: {halt_message}", file=sys.stderr)
    summary = {"schema": 1, "kind": command, "scenario": name}
    if command == "run":
        summary.update(filter=sim.filter_mode, metrics=metrics)
        lines = [f"wrote {csvs[0]} ({metrics['steps_logged']} rows, "
                 f"halt={metrics['halt_reason']})"]
    else:
        summary.update(modes=list(per_mode), per_mode=per_mode)
        lines = [f"{mode}: min barrier values "
                 + ", ".join(f"{k}={v:.4g}" for k, v in sorted(m["barrier_min"].items()))
                 for mode, m in per_mode.items()]
    summary["config"] = _config_echo(cfg, sim)
    _write_json(out / "summary.json", summary)
    print("\n".join(lines))
    return max(_HALT_EXIT[m["halt_reason"]] for m in per_mode.values())


def cmd_check(scenario, targets: list, box, resolution, times, out: Path) -> int:
    """Grid-check each target, fold the reports into the first and write it.

    The state grid is cut into as many contiguous blocks as the process may
    use CPUs, but no more than it has states and no more than one per
    CHECK_POINTS_PER_PROCESS grid points, so a small grid is scanned here
    alone. This process scans block 0 of every target and a forked child
    each other block; the blocks' reports merge, in block order, into the
    report of the whole grid."""
    phi_zero = lambda x, u: (0.0,) * scenario.model.m
    nx = len(box.x_low)
    counts = [len(axis) for axis in _grid_axes(box, resolution)]
    parts = max(1, min(len(os.sched_getaffinity(0)), math.prod(counts[:nx]),
                       math.prod(counts) // CHECK_POINTS_PER_PROCESS))

    def scan(k):
        return [check_validity(target, scenario.model, phi_zero, box, resolution,
                               obs_cfg=scenario.obs_cfg, times=times, block=(k, parts))
                for target in targets]

    blocks = _run_tasks([(f"grid block {k} of {parts}", lambda k=k: scan(k))
                         for k in range(parts)])
    report, *extra = [ValidityReport.merge(per_target) for per_target in zip(*blocks)]
    for other in extra:
        report.valid = report.valid and other.valid
        report.counterexamples.extend(other.counterexamples)
    _write_json(out / "validity.json", vars(report))
    verdict = "valid" if report.valid else f"{len(report.counterexamples)} counterexamples"
    print(f"wrote {out / 'validity.json'} ({verdict}, "
          f"relative_degree={report.relative_degree})")
    return EXIT_OK if report.valid else EXIT_INVALID


def plot_script(log, scenario, name: str) -> str:
    """gnuplot script rendering three panels of the run `name` from the CSV
    header: every state; every barrier value, with a dashed zero line; and
    each disturbance with its estimate where the scenario bounds the
    disturbance away from zero, else each input; all against time."""
    bounds = scenario.obs_cfg.bounds
    last = ("disturbance", r"d\d+|dhat\d+") if bounds.k0 or bounds.k1 else ("inputs", r"u\d+")
    lines = [
        "# gnuplot script; run from the directory containing trajectory.csv",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo noenhanced size 1500,420",  # labels keep their underscores
        f"set output '{name}_{log.filter_mode}.png'",
        "set multiplot layout 1,3",
        "set xlabel 't [s]'",
        "data = 'trajectory.csv'",
    ]
    for ylabel, pattern in [("states", r"x\d+"), ("barrier values", r"b_.*"), last]:
        curves = [f"data using 1:{i + 1} with lines title '{col}'"  # columns count from 1
                  for i, col in enumerate(log.header) if re.fullmatch(pattern, col)]
        if ylabel == "barrier values":
            curves.append("0 with lines dashtype 2 title ''")
        lines += [f"set ylabel '{ylabel}'", "plot " + ", \\\n     ".join(curves)]
    lines.append("unset multiplot")
    return "\n".join(lines) + "\n"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="do-icbf",
        description="Safety-filtered closed-loop simulation and barrier validity checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, simulates: bool):
        p.add_argument("--scenario", help=f"built-in scenario name ({', '.join(sorted(BUILDERS))})")
        p.add_argument("--config", help="path to a JSON config file (schema 1)")
        if simulates:
            p.add_argument("--filter", help=f"filter mode: {' | '.join(FILTER_MODES)}")
            p.add_argument("--dt", type=float, help="integration step [s]")
            p.add_argument("--t-end", dest="t_end", type=float, help="horizon [s]")
        p.add_argument("--out", help="output directory (default $DO_ICBF_OUT or ./do-icbf-out)")

    p_run = sub.add_parser("run", help="simulate one scenario and write CSV + summary")
    common(p_run, simulates=True)
    p_run.add_argument("--emit-plot", action="store_true", default=None,
                       help="also write a gnuplot script plot.gp")

    p_check = sub.add_parser("check", help="grid-check barrier validity")
    common(p_check, simulates=False)

    p_cmp = sub.add_parser("compare", help="run two filter modes and contrast them")
    common(p_cmp, simulates=True)
    p_cmp.add_argument("--baseline", help="second filter mode (default: scenario's ablation)")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    # One prepare step: every config error exits 1 here, before anything is
    # written (a ConfigurationError is a ValueError; a builder's arithmetic on
    # a degenerate parameter raises ArithmeticError).
    try:
        cfg = _merge_config(args)
        scenario = _build_from_config(cfg)
        plan = (_check_plan(cfg, scenario) if args.command == "check"
                else _sim_configs(cfg, scenario, args.command))
        out = _outdir(cfg)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return _fail(str(exc))
    # After prepare, an unwritable output exits 1, and a dead forked child or
    # any other error no run halts on (before step 0, or in check) 5;
    # _run_tasks raises any of them only once every child is joined.
    try:
        if args.command == "check":
            return cmd_check(scenario, *plan, out)
        return cmd_simulate(args.command, cfg, scenario, plan, out)
    except OSError as exc:
        return _fail(str(exc))
    except Exception as exc:
        return _fail(str(exc), EXIT_ERROR)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
