"""Command-line front end.

    do-icbf run     --scenario acc --filter do_icbf --out results/
    do-icbf check   --scenario example1
    do-icbf compare --scenario acc

Exit codes partition the outcomes: 0 clean finish, 1 unusable arguments,
config or I/O failure, 2 filter infeasibility, 3 numerical blow-up, 4 validity
counterexamples found, 5 an error raised during a run. Config files are JSON
with a versioned top-level "schema": 1 field; command-line flags override
config values. The default output directory comes from --out, else
$DO_ICBF_OUT, else ./do-icbf-out.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import pickle
import sys
from pathlib import Path

from .errors import ConfigurationError
from .filter import ValidityReport, check_validity
from .model import DisturbanceBounds
from .scenarios import BUILDERS, build_scenario, constant_disturbance, sinusoid_disturbance
from .simulate import SimConfig, run_closed_loop, summarize

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


def _fail(message: str) -> int:
    print(f"do-icbf: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


# The keys of a config that each command reads, of its `check` and of an acc
# disturbance of each kind (all but "phase" required).
_SHARED_KEYS = ("schema", "scenario", "out", "overrides")
_SIM_KEYS = _SHARED_KEYS + ("filter", "dt", "t_end", "log_stride")
CONFIG_KEYS = {"run": _SIM_KEYS + ("emit_plot",), "compare": _SIM_KEYS + ("baseline",),
               "check": _SHARED_KEYS + ("check",)}
CHECK_KEYS = ("resolution", "times", "barriers")
DISTURBANCE_KEYS = {"constant": ("kind", "value"),
                    "sinusoid": ("kind", "amplitude", "omega", "phase")}


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
    for key in ("scenario", "filter", "baseline", "dt", "t_end", "out", "emit_plot"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if "scenario" not in cfg:
        raise ConfigurationError("no scenario given (use --scenario or a config file)")
    for key, kind in (("scenario", str), ("filter", str), ("baseline", str), ("out", str),
                      ("emit_plot", bool)):
        if key in cfg and type(cfg[key]) is not kind:
            raise ConfigurationError(f"{key} must be {'a string' if kind is str else 'a bool'}, "
                                     f"got {cfg[key]!r}")
    return cfg


_INITIAL = (("initial_x", "x0"), ("initial_u", "u0"))


def _number(value, name: str, integer: bool = False):
    """A JSON number as a float, or with integer=True a JSON integer as an int;
    anything else (a bool, NaN or Infinity too) is a ConfigurationError naming
    the field."""
    if type(value) not in ((int,) if integer else (int, float)):
        raise ConfigurationError(f"{name} must be {'an integer' if integer else 'a number'}, "
                                 f"got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the range of a float
        raise ConfigurationError(f"{name} must be finite, got an integer too large for a "
                                 f"float") from None
    if not finite:
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value if integer else float(value)


def _build_from_config(cfg: dict):
    name = cfg["scenario"]
    if name not in BUILDERS:
        raise ConfigurationError(f"unknown scenario {name!r}; available: {sorted(BUILDERS)}")
    params = inspect.signature(BUILDERS[name]).parameters
    # JSON reaches the numeric keywords; initial_x / initial_u rename x0 / u0,
    # offered where the builder has them
    accepted = {key for key, param in params.items() if isinstance(param.default, (int, float))}
    accepted |= {field for field, param in _INITIAL if param in params}
    if name == "acc":
        accepted.add("disturbance")
    overrides = dict(_json_object(cfg.get("overrides", {}), "overrides", accepted,
                                  unknown=f"override {{keys}} for scenario {name!r}"))
    dist = overrides.pop("disturbance", None)
    for key, value in overrides.items():
        if key not in ("initial_x", "initial_u"):
            _number(value, f"overrides.{key}")
        elif isinstance(value, list):  # the builder checks the length
            for i, v in enumerate(value):
                _number(v, f"overrides.{key}[{i}]")
        else:
            raise ConfigurationError(f"overrides.{key} must be a list of numbers, got {value!r}")
    if dist is not None:
        kind = dist.get("kind") if isinstance(dist, dict) else None
        if isinstance(dist, dict) and kind not in ("constant", "sinusoid"):
            raise ConfigurationError(f"overrides.disturbance.kind must be \"constant\" or "
                                     f"\"sinusoid\", got {kind!r}")
        accepted = DISTURBANCE_KEYS.get(kind, ())
        required = [key for key in accepted if key != "phase"]
        num = {key: _number(v, f"overrides.disturbance.{key}") for key, v in
               _json_object(dist, "overrides.disturbance", accepted, required).items()
               if key != "kind"}
        if kind == "constant":
            overrides["d_true"] = constant_disturbance(num["value"])
            overrides["bounds"] = DisturbanceBounds(k0=abs(num["value"]), k1=0.0)
        else:
            amp, omega = num["amplitude"], num["omega"]
            overrides["d_true"] = sinusoid_disturbance(amp, omega, num.get("phase", 0.0))
            overrides["bounds"] = DisturbanceBounds(k0=abs(amp), k1=abs(amp * omega))
    for field_name, param in _INITIAL:
        if field_name in overrides:
            overrides[param] = overrides.pop(field_name)
    return build_scenario(name, **overrides)


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
    settings = {key: _number(cfg[key], key, integer=key == "log_stride")
                for key in ("dt", "log_stride") if key in cfg}
    t_end = _number(cfg.get("t_end", scenario.default_t_end), "t_end")
    return [SimConfig(t_end=t_end, filter_mode=mode, **settings) for mode in modes]


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
    dims = len(box.x_low) + len(box.u_low)
    resolution = check.get("resolution", scenario.check_resolution)
    if not (_grid_count(resolution) or isinstance(resolution, list)
            and len(resolution) == dims and all(map(_grid_count, resolution))):
        raise ConfigurationError(f"check.resolution must be an int >= 2 or a list of {dims} "
                                 f"such ints, got {resolution!r}")
    times = check.get("times")
    if times is not None and not (isinstance(times, list) and times and all(
            type(t) in (int, float) and math.isfinite(t) and t >= 0 for t in times)):
        raise ConfigurationError(f"check.times must be a non-empty list of finite numbers "
                                 f">= 0, got {times!r}")
    return targets, box, resolution, times


def _grid_count(r) -> bool:
    return type(r) is int and r >= 2  # a JSON true is no count


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


def _run_mode(scenario, sim: SimConfig, csv: Path) -> tuple:
    """Simulate, summarize and write the CSV of one mode; returns the log and
    the mode's (metrics, halt_reason, halt_message)."""
    log = run_closed_loop(scenario, sim)
    metrics = summarize(log, scenario)
    log.write_csv(csv)
    return log, (metrics, log.halt_reason, log.halt_message)


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
    """Wait for a forked child; returns what it sent, or a RuntimeError if it
    died first."""
    with os.fdopen(read_fd, "rb") as pipe:
        blob = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        return RuntimeError(f"{name}: the process running this task exited with code "
                            f"{code} before sending its result")
    return pickle.loads(blob)


def _run_tasks(tasks: list, fork: bool) -> list:
    """Call each task, a (name, no-argument callable) pair, and return what
    they return, in task order.

    With fork, every task after the first runs in a forked child while this
    process runs the first; the children are joined even when the first
    raises, and the first exception in task order is raised once all are
    joined. Without fork the tasks run here, one after the other."""
    if not fork:
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
    `run` or `compare` kind; returns the exit code of the worst halt.

    When the process may use more than one CPU, each mode after the first
    runs at the same time in a forked child, which writes its own CSV and
    sends back only its metrics and halt, so each process holds one log;
    children are joined even when the first mode raises. On one CPU the modes
    run here in turn. Output, and an exception a mode raised, come in mode
    order, as from one mode after the other."""
    csvs = [out / ("trajectory.csv" if command == "run" else f"trajectory_{sim.filter_mode}.csv")
            for sim in sims]
    tasks = [(sims[0].filter_mode, lambda: _run_mode(scenario, sims[0], csvs[0]))]
    tasks += [(sim.filter_mode, lambda sim=sim, csv=csv: _run_mode(scenario, sim, csv)[1])
              for sim, csv in zip(sims[1:], csvs[1:])]
    fork = len(tasks) > 1 and len(os.sched_getaffinity(0)) > 1
    (log, first), *replies = _run_tasks(tasks, fork)
    per_mode = {}
    for sim, (metrics, halt_reason, halt_message) in zip(sims, [first, *replies]):
        per_mode[sim.filter_mode] = metrics
        if halt_reason == "error":
            print(f"do-icbf: error: {sim.filter_mode}: {halt_message}", file=sys.stderr)
    summary = {"schema": 1, "kind": command, "scenario": scenario.name}
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
    if command == "run" and cfg.get("emit_plot"):
        (out / "plot.gp").write_text(plot_script(log), encoding="utf-8")
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
    counts = [resolution] * (nx + len(box.u_low)) if isinstance(resolution, int) else resolution
    parts = max(1, min(len(os.sched_getaffinity(0)), math.prod(counts[:nx]),
                       math.prod(counts) // CHECK_POINTS_PER_PROCESS))

    def scan(k):
        return [check_validity(target, scenario.model, phi_zero, box, resolution,
                               obs_cfg=scenario.obs_cfg, times=times, block=(k, parts))
                for target in targets]

    blocks = _run_tasks([(f"grid block {k} of {parts}", lambda k=k: scan(k))
                         for k in range(parts)], fork=parts > 1)
    report, *extra = [ValidityReport.merge(per_target) for per_target in zip(*blocks)]
    for other in extra:
        report.valid = report.valid and other.valid
        report.counterexamples.extend(other.counterexamples)
    (out / "validity.json").write_text(report.to_json() + "\n", encoding="utf-8")
    verdict = "valid" if report.valid else f"{len(report.counterexamples)} counterexamples"
    print(f"wrote {out / 'validity.json'} ({verdict}, "
          f"relative_degree={report.relative_degree})")
    return EXIT_OK if report.valid else EXIT_INVALID


def plot_script(log) -> str:
    """gnuplot script rendering the run's three standard panels from the CSV."""
    col = {name: i + 1 for i, name in enumerate(log.header)}  # gnuplot is 1-based
    lines = [
        "# gnuplot script; run from the directory containing trajectory.csv",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set terminal pngcairo size 1500,420",
        f"set output '{log.scenario_name}_{log.filter_mode}.png'",
        "set multiplot layout 1,3",
    ]
    if log.scenario_name == "bicycle":
        lines += [
            "set size ratio -1",
            "set object 1 circle at 0,0 size 1 fillcolor rgb 'green' fillstyle solid 0.3",
            "set xlabel 'x [m]'; set ylabel 'y [m]'",
            f"plot 'trajectory.csv' using {col['x0']}:{col['x1']} with lines title 'trajectory'",
            "unset object 1",
            "set size noratio",
            "set xlabel 't [s]'; set ylabel 'barrier values'",
            f"plot 'trajectory.csv' using {col['t']}:{col['b_b0']} with lines title 'b0', \\",
            f"     '' using {col['t']}:{col['b_b1']} with lines title 'b1', \\",
            f"     '' using {col['t']}:{col['b_b2']} with lines title 'b2'",
            "set xlabel 't [s]'; set ylabel 'heading [rad]'",
            f"plot 'trajectory.csv' using {col['t']}:{col['x2']} with lines title 'psi'",
        ]
    elif log.scenario_name == "example1":
        lines += [
            "set xlabel 't [s]'; set ylabel 'state'",
            f"plot 'trajectory.csv' using {col['t']}:{col['x0']} with lines title 'x'",
            "set xlabel 't [s]'; set ylabel 'barrier values'",
            f"plot 'trajectory.csv' using {col['t']}:{col['b_h_x']} with lines title 'h_x', \\",
            f"     '' using {col['t']}:{col['b_h_u']} with lines title 'h_u'",
            "set xlabel 't [s]'; set ylabel 'input'",
            f"plot 'trajectory.csv' using {col['t']}:{col['u0']} with lines title 'u'",
        ]
    else:
        lines += [
            "set xlabel 't [s]'; set ylabel 'speed [m/s]'",
            f"plot 'trajectory.csv' using {col['t']}:{col['x1']} with lines title 'x2'",
            "set xlabel 't [s]'; set ylabel 'headway barrier'",
            f"plot 'trajectory.csv' using {col['t']}:{col.get('b_h_x', col['t'])} with lines title 'h_x', 0 with lines dashtype 2 title ''",
            "set xlabel 't [s]'; set ylabel 'disturbance [m/s]'",
            f"plot 'trajectory.csv' using {col['t']}:{col['d0']} with lines title 'd', \\",
            f"     '' using {col['t']}:{col['dhat0']} with lines title 'd estimate'",
        ]
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
            p.add_argument("--filter", help="filter mode: off | icbf | do_icbf | high_order")
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
    # written (ConfigurationError and ContractViolationError are ValueErrors;
    # a builder's arithmetic on a degenerate parameter raises ArithmeticError).
    try:
        cfg = _merge_config(args)
        scenario = _build_from_config(cfg)
        plan = (_check_plan(cfg, scenario) if args.command == "check"
                else _sim_configs(cfg, scenario, args.command))
        out = _outdir(cfg)
    except (OSError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return _fail(str(exc))
    if args.command == "check":
        return cmd_check(scenario, *plan, out)
    return cmd_simulate(args.command, cfg, scenario, plan, out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
