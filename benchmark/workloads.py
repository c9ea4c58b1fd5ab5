"""The four seeded workloads of the closed-loop simulator benchmark.

Every operation calls the package through its public API and is checked
against `references.json`, recorded with `record_references.py`:

    cli-trajectories  cli.main(run|compare) on acc and bicycle at the CLI
                      defaults; checks exit code, halt reasons, CSV sha256
    variant-sweep     the pool acc/bicycle variants through the fast loop at a
                      coarse log_stride, then summarize; checks halt + rows
    custom-scenario   the same variants with fast_loop=False (generic loop)
    check-grid        cli.main(check) on fine acc/bicycle grids and example1;
                      checks exit code, verdict, counterexample count

Module functions are looked up at call time (`simulate.run_closed_loop`,
not a local alias) so the traced run can patch them.

Golden references need a finite input set, so the variants are drawn once
from POOL_SEED into fixed pools. A run repeats a deck of operations: for the
variant workloads every pool member once, in an order the workload seed
shuffles through SplitMix64, so every run does the same work whatever its
seed. The CLI and grid workloads have fixed inputs and a fixed order (the
order moves the process's peak memory by several MB), so their seed only
labels the run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from do_icbf import cli, scenarios, simulate
from do_icbf.model import DisturbanceBounds
from do_icbf.rng import SplitMix64

POOL_SEED = 20230927
# Eight per family keep a deck near 20 s; the first eight acc members hold
# two unsafe and two infeasible variants (see README.md).
POOL_SIZE = 8
COARSE_STRIDE = 1000
DT = 1e-3
# Horizons chosen so acc and bicycle operations take about the same time.
SWEEP_T_END = {"acc": 50.0, "bicycle": 40.0}
CUSTOM_T_END = {"acc": 8.0, "bicycle": 8.0}
FAMILY_MODE = {"acc": "do_icbf", "bicycle": "high_order"}
# Finer than the built-in grids ([3, 7, 7, 7] and [7, 7, 7, 4, 7]), which
# finish too fast to time. The recorded verdict is whatever these give.
CHECK_RESOLUTION = {"acc": [9, 21, 21, 21], "bicycle": [9, 9, 9, 9, 9]}

WORKLOADS = ("cli-trajectories", "variant-sweep", "custom-scenario", "check-grid")


@dataclass(frozen=True)
class Variant:
    family: str  # "acc" or "bicycle"
    index: int
    params: tuple  # acc: (amplitude, omega, phase, gap); bicycle: (dist, bearing, offset)

    @property
    def key(self) -> str:
        return f"{self.family}-{self.index:02d}"


def variant_pools() -> dict:
    """The fixed variant pools, drawn from POOL_SEED."""
    root = SplitMix64(POOL_SEED)
    acc_rng, bic_rng = root.spawn(), root.spawn()
    acc = [Variant("acc", i, (acc_rng.uniform(0.5, 2.0), acc_rng.uniform(0.2, 2.0),
                              acc_rng.uniform(0.0, 2.0 * math.pi), acc_rng.uniform(20.0, 35.0)))
           for i in range(POOL_SIZE)]
    bicycle = [Variant("bicycle", i, (bic_rng.uniform(12.0, 18.0),
                                      bic_rng.uniform(0.0, 2.0 * math.pi),
                                      bic_rng.uniform(0.3, 0.7)))
               for i in range(POOL_SIZE)]
    return {"acc": acc, "bicycle": bicycle}


def build_variant(v: Variant):
    if v.family == "acc":
        amp, omega, phase, gap = v.params
        return scenarios.build_acc(d_true=scenarios.sinusoid_disturbance(amp, omega, phase),
                                   bounds=DisturbanceBounds(k0=amp, k1=amp * omega),
                                   x0=(0.0, 10.0, gap))
    dist, bearing, offset = v.params
    x, y = dist * math.cos(bearing), dist * math.sin(bearing)
    # Start on the obstacle's bearing, headed straight at it.
    return scenarios.build_bicycle(x0=(x, y, math.atan2(-y, -x), 0.5), path_offset=offset)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def rows_sha256(log) -> str:
    """Hash of the header and the exact bits of every logged row."""
    h = hashlib.sha256(",".join(log.header).encode())
    h.update(np.asarray(log.rows, dtype="<f8").tobytes())
    return h.hexdigest()


def log_steps(log) -> int:
    """Integration steps a run took: its last logged time over dt."""
    return round(log.rows[-1][0] / log.dt)


@dataclass
class Op:
    """One operation: `run` is timed; `observe` turns its result into the
    record compared with the reference and the work done (steps or points)."""

    key: str
    run: Callable[[], object]
    observe: Callable[[object], tuple]
    prepare: Callable[[], None] = lambda: None
    variant: Variant | None = None


def _quiet_main(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def cli_sim_op(command: str, scenario: str, out: Path, t_end=None) -> Op:
    argv = [command, "--scenario", scenario, "--out", str(out)]
    if t_end is not None:
        argv += ["--t-end", str(t_end)]

    def observe(rc):
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        per_mode = ({summary["filter"]: summary["metrics"]} if command == "run"
                    else summary["per_mode"])
        dt = summary["config"]["dt"]
        csv = {p.name: sha256_file(p) for p in sorted(out.glob("*.csv"))}
        record = {"exit": rc,
                  "halts": {mode: m["halt_reason"] for mode, m in per_mode.items()},
                  "csv_sha256": csv}
        steps = sum(round(m["t_final"] / dt) for m in per_mode.values())
        return record, steps

    return Op(f"{command}-{scenario}", lambda: _quiet_main(argv), observe,
              lambda: _fresh_dir(out))


def grid_points(resolution, dims: int) -> int:
    return resolution ** dims if isinstance(resolution, int) else math.prod(resolution)


def check_op(scenario: str, out: Path) -> Op:
    config = {"schema": 1, "scenario": scenario, "out": str(out)}
    if scenario in CHECK_RESOLUTION:
        config["check"] = {"resolution": CHECK_RESOLUTION[scenario]}
    config_path = out.parent / f"check-{scenario}.json"

    def prepare():
        _fresh_dir(out)
        config_path.write_text(json.dumps(config), encoding="utf-8")

    def observe(rc):
        report = json.loads((out / "validity.json").read_text(encoding="utf-8"))
        record = {"exit": rc, "valid": report["valid"],
                  "counterexamples": len(report["counterexamples"]),
                  "relative_degree": report["relative_degree"]}
        built = scenarios.build_scenario(scenario)
        resolution = CHECK_RESOLUTION.get(scenario, built.check_resolution)
        return record, grid_points(resolution, built.model.n + built.model.m)

    return Op(f"check-{scenario}", lambda: _quiet_main(["check", "--config", str(config_path)]),
              observe, prepare)


def variant_run(v: Variant, fast: bool, t_end=None) -> tuple:
    """The scenario and SimConfig of one variant operation; fast=False routes
    the variant through the generic loop, as a user-defined scenario would."""
    if t_end is None:
        t_end = (SWEEP_T_END if fast else CUSTOM_T_END)[v.family]
    scenario = build_variant(v)
    if not fast:
        scenario = dataclasses.replace(scenario, fast_loop=False)
    return scenario, simulate.SimConfig(dt=DT, t_end=t_end, log_stride=COARSE_STRIDE,
                                        filter_mode=FAMILY_MODE[v.family])


def variant_op(v: Variant, fast: bool, t_end=None) -> Op:
    def run():
        scenario, cfg = variant_run(v, fast, t_end)
        log = simulate.run_closed_loop(scenario, cfg)
        return log, simulate.summarize(log, scenario)

    def observe(result):
        log, _ = result
        return {"halt": log.halt_reason, "rows_sha256": rows_sha256(log)}, log_steps(log)

    return Op(v.key, run, observe, variant=v)


class Workload:
    """A named workload: a deck of operations, ordered by the workload seed."""

    def __init__(self, name: str, seed: int, out_root: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self._fast = name == "variant-sweep"
        self.out = out_root / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.work_unit = "grid_points" if name == "check-grid" else "steps"
        if name == "cli-trajectories":
            self._deck = [cli_sim_op(c, s, self.out / f"{c}-{s}")
                          for c in ("run", "compare") for s in ("acc", "bicycle")]
        elif name == "check-grid":
            self._deck = [check_op(s, self.out / f"check-{s}")
                          for s in ("acc", "bicycle", "example1")]
        else:
            self._pools = variant_pools()
            members = self._pools["acc"] + self._pools["bicycle"]
            rng = SplitMix64(seed)
            for i in range(len(members) - 1, 0, -1):  # Fisher-Yates
                j = rng.integer(0, i)
                members[i], members[j] = members[j], members[i]
            self._deck = [variant_op(v, self._fast) for v in members]

    def deck(self) -> list:
        """The operations a run repeats, in order. Every run of a workload
        holds the same operations; the seed only sets the variants' order."""
        return list(self._deck)

    def trace_ops(self) -> list:
        """The operations of one traced pass: the whole deck of the CLI and
        grid workloads, and the deck's first acc and first bicycle variant."""
        if self.name in ("cli-trajectories", "check-grid"):
            return self.deck()
        return [next(op for op in self._deck if op.variant.family == f)
                for f in ("acc", "bicycle")]

    def all_ops(self) -> list:
        """Every operation the workload can run; references.json covers these."""
        if self.name in ("cli-trajectories", "check-grid"):
            return self.deck()
        return [variant_op(v, self._fast) for f in ("acc", "bicycle") for v in self._pools[f]]

    def warmup(self) -> None:
        """Short untimed calls that load lazily imported code paths."""
        warm = self.out / "warmup"
        if self.name == "cli-trajectories":
            ops = [cli_sim_op(c, "acc", warm, t_end=0.05) for c in ("run", "compare")]
        elif self.name == "check-grid":
            ops = [check_op("example1", warm)]
        else:
            ops = [variant_op(self._pools[f][0], self._fast, t_end=0.05)
                   for f in ("acc", "bicycle")]
        for op in ops:
            op.prepare()
            op.run()

    def loop_probe(self, ops):
        """(scenario, SimConfig) of a closed-loop run typical of the workload,
        or None for the grid workload."""
        if self.name == "check-grid":
            return None
        if self.name == "cli-trajectories":
            scenario = scenarios.build_acc()
            return scenario, simulate.SimConfig(dt=DT, t_end=scenario.default_t_end,
                                                filter_mode=scenario.designated_mode)
        return variant_run(ops[0].variant, self._fast)

    def build_scenarios(self) -> None:
        """What the workload needs built before its first operation."""
        if self.name in ("cli-trajectories", "check-grid"):
            names = ["acc", "bicycle"] + (["example1"] if self.name == "check-grid" else [])
            for n in names:
                scenarios.build_scenario(n)
        else:
            for op in self._deck:
                build_variant(op.variant)
