"""Command-line front end.

    do-icbf run     --scenario acc --filter do_icbf --out results/
    do-icbf check   --scenario example1
    do-icbf compare --scenario acc

Exit codes partition the outcomes: 0 clean finish, 1 unusable arguments,
config or I/O failure, 2 filter infeasibility, 3 numerical blow-up, 4 validity
counterexamples found. Config files are JSON with a versioned top-level
"schema": 1 field; command-line flags override config values. The default
output directory comes from --out, else $DO_ICBF_OUT, else ./do-icbf-out.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, ContractViolationError
from .filter import check_validity
from .model import DisturbanceBounds
from .scenarios import BUILDERS, build_scenario, sinusoid_disturbance
from .simulate import FILTER_MODES, SimConfig, run_closed_loop, summarize

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_BLOWUP = 3
EXIT_INVALID = 4

_HALT_EXIT = {"completed": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "blowup": EXIT_BLOWUP}


def _fail(message: str) -> int:
    print(f"do-icbf: error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigurationError("config must declare \"schema\": 1")
    return cfg


def _merge_config(args: argparse.Namespace) -> dict:
    cfg: dict = {"schema": 1}
    if args.config:
        cfg.update(load_config(args.config))
    if args.scenario:
        cfg["scenario"] = args.scenario
    if getattr(args, "filter", None):
        cfg["filter"] = args.filter
    if getattr(args, "baseline", None):
        cfg["baseline"] = args.baseline
    if args.dt is not None:
        cfg["dt"] = args.dt
    if args.t_end is not None:
        cfg["t_end"] = args.t_end
    if args.out is not None:
        cfg["out"] = args.out
    if getattr(args, "emit_plot", False):
        cfg["emit_plot"] = True
    cfg.setdefault("log_stride", 1)
    if "scenario" not in cfg:
        raise ConfigurationError("no scenario given (use --scenario or a config file)")
    return cfg


def _build_from_config(cfg: dict):
    name = cfg["scenario"]
    if name not in BUILDERS:
        raise ConfigurationError(f"unknown scenario {name!r}; available: {sorted(BUILDERS)}")
    overrides = dict(cfg.get("overrides", {}))
    accepted = set(inspect.signature(BUILDERS[name]).parameters) | {"initial_x", "initial_u"}
    if name == "acc":
        accepted.add("disturbance")
    unknown = sorted(set(overrides) - accepted)
    if unknown:
        raise ConfigurationError(f"unknown override {', '.join(map(repr, unknown))} for "
                                 f"scenario {name!r}; accepted: {', '.join(sorted(accepted))}")
    dist = overrides.pop("disturbance", None)
    if dist is not None:
        kind = dist.get("kind")
        if kind == "constant":
            value = float(dist["value"])
            import numpy as np
            arr = np.array([value])
            overrides["d_true"] = lambda t: arr
            overrides["bounds"] = DisturbanceBounds(k0=abs(value), k1=0.0)
        elif kind == "sinusoid":
            amp = float(dist["amplitude"])
            omega = float(dist["omega"])
            phase = float(dist.get("phase", 0.0))
            overrides["d_true"] = sinusoid_disturbance(amp, omega, phase)
            overrides["bounds"] = DisturbanceBounds(k0=abs(amp), k1=abs(amp * omega))
        else:
            raise ConfigurationError(f"unknown disturbance kind {kind!r}")
    if "initial_x" in overrides:
        overrides["x0"] = tuple(overrides.pop("initial_x"))
    if "initial_u" in overrides:
        overrides["u0"] = tuple(overrides.pop("initial_u"))
    return build_scenario(name, **overrides)


def _outdir(cfg: dict) -> Path:
    out = cfg.get("out") or os.environ.get("DO_ICBF_OUT") or "do-icbf-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    probe = path / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return path


def _sim_config(cfg: dict, scenario, mode: str) -> SimConfig:
    return SimConfig(
        dt=float(cfg.get("dt", 1e-3)),
        t_end=float(cfg.get("t_end", scenario.default_t_end)),
        log_stride=int(cfg.get("log_stride", 1)),
        filter_mode=mode,
    )


def _config_echo(cfg: dict) -> dict:
    echo = {
        "scenario": cfg["scenario"],
        "dt": float(cfg.get("dt", 1e-3)),
        "t_end": float(cfg.get("t_end", -1.0)),
        "log_stride": int(cfg.get("log_stride", 1)),
    }
    if cfg.get("overrides"):
        echo["overrides"] = {
            k: v for k, v in cfg["overrides"].items() if _json_safe(v)
        }
    return echo


def _json_safe(v) -> bool:
    return isinstance(v, (int, float, str, bool, list, dict, type(None)))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _merge_config(args)
        scenario = _build_from_config(cfg)
        mode = cfg.get("filter", scenario.designated_mode)
        if mode not in FILTER_MODES:
            raise ConfigurationError(f"unknown filter mode {mode!r}")
        out = _outdir(cfg)
        sim_cfg = _sim_config(cfg, scenario, mode)
    except (ConfigurationError, ContractViolationError, OSError, KeyError,
            ValueError) as exc:
        return _fail(str(exc))

    log = run_closed_loop(scenario, sim_cfg)
    metrics = summarize(log, scenario)
    log.write_csv(out / "trajectory.csv")
    echo = _config_echo(cfg)
    echo["t_end"] = sim_cfg.t_end
    summary = {
        "schema": 1,
        "kind": "run",
        "scenario": scenario.name,
        "filter": mode,
        "metrics": metrics,
        "config": echo,
    }
    _write_json(out / "summary.json", summary)
    if cfg.get("emit_plot"):
        (out / "plot.gp").write_text(plot_script(log), encoding="utf-8")
    print(f"wrote {out / 'trajectory.csv'} ({metrics['steps_logged']} rows, "
          f"halt={metrics['halt_reason']})")
    return _HALT_EXIT[metrics["halt_reason"]]


def cmd_check(args: argparse.Namespace) -> int:
    try:
        cfg = _merge_config(args)
        scenario = _build_from_config(cfg)
        out = _outdir(cfg)
        check_cfg = cfg.get("check", {})
        resolution = check_cfg.get("resolution", scenario.check_resolution)
        times = check_cfg.get("times")
        target = scenario.chain if scenario.chain is not None else list(scenario.barriers)
        if "barriers" in check_cfg:
            wanted = set(check_cfg["barriers"])
            if scenario.chain is not None and scenario.chain.levels[-1].label in wanted:
                target = scenario.chain
            else:
                target = [b for b in scenario.barriers if b.label in wanted]
            if not target:
                raise ConfigurationError(f"no barriers match {sorted(wanted)}")
        box = scenario.check_box or scenario.domain
        phi_zero = lambda x, u: (0.0,) * scenario.model.m
        report = check_validity(target, scenario.model, phi_zero, box, resolution,
                                obs_cfg=scenario.obs_cfg, times=times)
        # A chained scenario may carry plain barriers too; fold their check in.
        if scenario.chain is not None and scenario.barriers and "barriers" not in check_cfg:
            extra = check_validity(list(scenario.barriers), scenario.model, phi_zero,
                                   box, resolution, obs_cfg=scenario.obs_cfg, times=times)
            report.valid = report.valid and extra.valid
            report.counterexamples.extend(extra.counterexamples)
    except (ConfigurationError, ContractViolationError, OSError, KeyError,
            ValueError) as exc:
        return _fail(str(exc))
    (out / "validity.json").write_text(report.to_json() + "\n", encoding="utf-8")
    verdict = "valid" if report.valid else f"{len(report.counterexamples)} counterexamples"
    print(f"wrote {out / 'validity.json'} ({verdict}, "
          f"relative_degree={report.relative_degree})")
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        cfg = _merge_config(args)
        scenario = _build_from_config(cfg)
        mode_a = cfg.get("filter", scenario.designated_mode)
        mode_b = cfg.get("baseline", scenario.baseline_mode)
        for mode in (mode_a, mode_b):
            if mode not in FILTER_MODES:
                raise ConfigurationError(f"unknown filter mode {mode!r}")
        if mode_a == mode_b:
            raise ConfigurationError(
                f"degenerate comparison: both modes are {mode_a!r}")
        out = _outdir(cfg)
    except (ConfigurationError, ContractViolationError, OSError, KeyError,
            ValueError) as exc:
        return _fail(str(exc))

    per_mode = {}
    worst = EXIT_OK
    for mode in (mode_a, mode_b):
        sim_cfg = _sim_config(cfg, scenario, mode)
        log = run_closed_loop(scenario, sim_cfg)
        metrics = summarize(log, scenario)
        log.write_csv(out / f"trajectory_{mode}.csv")
        per_mode[mode] = metrics
        worst = max(worst, _HALT_EXIT[metrics["halt_reason"]])
    echo = _config_echo(cfg)
    echo["t_end"] = float(cfg.get("t_end", scenario.default_t_end))
    summary = {
        "schema": 1,
        "kind": "compare",
        "scenario": scenario.name,
        "modes": [mode_a, mode_b],
        "per_mode": per_mode,
        "config": echo,
    }
    _write_json(out / "summary.json", summary)
    for mode in (mode_a, mode_b):
        mins = per_mode[mode]["barrier_min"]
        print(f"{mode}: min barrier values "
              + ", ".join(f"{k}={v:.4g}" for k, v in sorted(mins.items())))
    return worst


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

    def common(p, with_modes: bool):
        p.add_argument("--scenario", help=f"built-in scenario name ({', '.join(sorted(BUILDERS))})")
        p.add_argument("--config", help="path to a JSON config file (schema 1)")
        if with_modes:
            p.add_argument("--filter", help="filter mode: off | icbf | do_icbf | high_order")
        p.add_argument("--dt", type=float, help="integration step [s]")
        p.add_argument("--t-end", dest="t_end", type=float, help="horizon [s]")
        p.add_argument("--out", help="output directory (default $DO_ICBF_OUT or ./do-icbf-out)")

    p_run = sub.add_parser("run", help="simulate one scenario and write CSV + summary")
    common(p_run, with_modes=True)
    p_run.add_argument("--emit-plot", action="store_true",
                       help="also write a gnuplot script plot.gp")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="grid-check barrier validity")
    common(p_check, with_modes=False)
    p_check.set_defaults(fn=cmd_check)

    p_cmp = sub.add_parser("compare", help="run two filter modes and contrast them")
    common(p_cmp, with_modes=True)
    p_cmp.add_argument("--baseline", help="second filter mode (default: scenario's ablation)")
    p_cmp.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    return args.fn(args)


def entry() -> None:
    sys.exit(main())
