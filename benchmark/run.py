"""Closed-loop simulator benchmark: one workload, one seed, one JSON line.

    python3 benchmark/run.py --workload variant-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from `src/` of the
tree this file sits in, never from an installed copy. With `--trace 0` the
run measures end-to-end metrics; with `--trace 1` it measures the per-layer
split (see README.md). The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full result, with its environment, goes to
`.bench_out/result-<workload>-seed<seed>-trace<0|1>.json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11
# Host speed: CAL_PER_OP runs of the calibration kernel go before and after
# every operation and every set-up probe. Each time is reported scaled to a
# host on which one kernel run takes CAL_REF_S (see README.md).
CAL_STEPS = 4000
CAL_PER_OP = 2
CAL_REF_S = 0.025
COUNT_METRICS = ("model.F_calls_per_step", "barriers.calls_per_step", "filter.solve_calls",
                 "barriers.check_points", "simulate.rows_logged")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Put this tree's `src/` first on the path and import the package from it."""
    if not (SRC / "do_icbf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'do_icbf'}; "
                         "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import do_icbf
    if Path(do_icbf.__file__).resolve().parent != SRC / "do_icbf":
        raise SystemExit(f"benchmark: imported do_icbf from {do_icbf.__file__}, not {SRC}")
    return do_icbf


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree. git may not
    look above the checkout, so an enclosing repository is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def calibration_sample() -> float:
    """Wall seconds of one run of a fixed kernel that does no package work:
    a scalar RK4 loop in pure Python with a small numpy update per step, the
    same mix of work as the simulator's loops. Its time tracks the speed the
    host gives this process at the moment."""
    import math
    import numpy as np

    def f(x, v):
        return v, -4.0 * x - 0.3 * v + math.sin(x)

    t0 = time.perf_counter()
    a = np.array([0.5, -0.25, 0.125, 1.0])
    x, v, dt = 1.0, 0.0, 1e-3
    for _ in range(CAL_STEPS):
        k1 = f(x, v)
        k2 = f(x + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1])
        k3 = f(x + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1])
        k4 = f(x + dt * k3[0], v + dt * k3[1])
        x += dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        v += dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        a = np.clip(a * 0.999 + x * 1e-3, -2.0, 2.0)
        x += 1e-9 * float(np.dot(a, a))
    return time.perf_counter() - t0


def calibrate(n: int) -> list:
    return [calibration_sample() for _ in range(n)]


def measure_setup(workload: str, seed: int) -> tuple:
    """Wall seconds from a fresh interpreter until the workload is ready,
    measured SETUP_SAMPLES times, one child process after another, with
    calibration samples between them."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    samples, calibration = [], calibrate(CAL_PER_OP)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        calibration += calibrate(CAL_PER_OP)
    return samples, calibration


def key_medians(durations: list) -> dict:
    """Median seconds of each operation of the deck."""
    times: dict = {}
    for key, d in durations:
        times.setdefault(key, []).append(d)
    return {key: statistics.median(ts) for key, ts in times.items()}


class Runner:
    """Runs operations one after another (a closed loop with one client),
    times each, and checks each against the recorded references."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references[workload.name]
        self.attempted = 0
        self.failed = 0
        self.durations: list = []  # (op key, seconds)
        self.work_of: dict = {}    # op key -> steps or grid points of one run
        self.work = 0

    def run(self, op, call=lambda fn: fn()) -> float:
        self.attempted += 1
        op.prepare()
        try:
            t0 = time.perf_counter()
            result = call(op.run)
            elapsed = time.perf_counter() - t0
            record, work = op.observe(result)
        except Exception:  # a crashing operation counts as failed; keep measuring
            self.failed += 1
            traceback.print_exc()
            return 0.0
        expected = self.references.get(op.key)
        if record != expected:
            self.failed += 1
            print(f"benchmark: {op.key} differs from its reference:\n"
                  f"  got      {record}\n  expected {expected}", file=sys.stderr)
            return elapsed
        self.durations.append((op.key, elapsed))
        self.work_of[op.key] = work
        self.work += work
        return elapsed

    @property
    def busy(self) -> float:
        return sum(d for _, d in self.durations)


def end_to_end(args, workload, references) -> tuple:
    setup, setup_cal = measure_setup(args.workload, args.seed)
    workload.warmup()
    runner = Runner(workload, references)
    deck = workload.deck()
    scaled = []  # (op key, seconds scaled to the host speed around the operation)
    calibration = [calibrate(CAL_PER_OP)]
    done = 0
    start = time.perf_counter()
    # At least one whole deck, so every operation has a time.
    while done < len(deck) or time.perf_counter() - start < args.seconds:
        ok = len(runner.durations)
        runner.run(deck[done % len(deck)])
        done += 1
        calibration.append(calibrate(CAL_PER_OP))
        if len(runner.durations) > ok:
            key, d = runner.durations[-1]
            scaled.append((key, d * CAL_REF_S / statistics.median(calibration[-2] + calibration[-1])))
    raw, medians = key_medians(runner.durations), key_medians(scaled)
    op_s = statistics.fmean(medians.values()) if medians else 0.0
    work = sum(runner.work_of[k] for k in medians)
    metrics = {
        "setup_s": (statistics.median(setup) * CAL_REF_S / statistics.median(setup_cal), "s"),
        "op_s": (op_s, "s"),
        "work_per_s": (work / sum(medians.values()) if medians else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    cal_all = setup_cal + [c for block in calibration for c in block]
    samples = {"setup_s": setup, "setup_calibration_s": setup_cal, "ops": runner.durations,
               "ops_scaled": scaled, "calibration_s": calibration}
    rate_name = "grid_points_per_s" if workload.work_unit == "grid_points" else "steps_per_s"
    unscaled_op = statistics.fmean(raw.values()) if raw else 0.0
    report = [
        f"host speed: calibration kernel median {statistics.median(cal_all) * 1e3:.2f} ms over "
        f"{len(cal_all)} runs; times below are scaled to {CAL_REF_S * 1e3:g} ms",
        f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh interpreters; "
        f"unscaled {statistics.median(setup):.4f} s)",
        f"op_s = {op_s:.4f} s (mean over the deck's {len(medians)} operations of each one's "
        f"median; {len(scaled)} operations; unscaled {unscaled_op:.4f} s)",
        f"{rate_name} = {metrics['work_per_s'][0]:.1f} 1/s ({work} {workload.work_unit} in one "
        f"deck over the sum of those medians)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_frac = {runner.failed / max(runner.attempted, 1):.4f} "
        f"({runner.failed} of {runner.attempted} operations)",
    ]
    return runner, metrics, samples, report


def log_us_per_row(workload, ops) -> float:
    """Loop time at log_stride 1 minus loop time at the coarse stride, per
    extra row logged. Measured untraced from outside the loop, alternating
    the two strides; the fastest of three runs of each is used, because
    machine noise only adds time and the difference is small. 0 for a
    workload that runs no loop, and never below 0."""
    from do_icbf import simulate
    import workloads

    probe = workload.loop_probe(ops)
    if probe is None:
        return 0.0
    scenario, base = probe
    times: dict = {1: [], workloads.COARSE_STRIDE: []}
    rows = {}
    for _ in range(3):
        for stride in times:
            cfg = dataclasses.replace(base, log_stride=stride)
            t0 = time.perf_counter()
            log = simulate.run_closed_loop(scenario, cfg)
            times[stride].append(time.perf_counter() - t0)
            rows[stride] = len(log.rows)
    coarse = workloads.COARSE_STRIDE
    extra_rows = rows[1] - rows[coarse]
    # Noise can make the difference come out negative; logging never saves time.
    return max(0.0, (min(times[1]) - min(times[coarse])) / extra_rows * 1e6)


def per_layer(args, workload, references) -> tuple:
    import tracing

    ops = workload.trace_ops()
    workload.warmup()
    runner = Runner(workload, references)
    start = time.perf_counter()
    for op in ops:
        runner.run(op)
    untraced_rate = runner.work / runner.busy if runner.busy else 0.0
    traced = Runner(workload, references)
    tracer = tracing.Tracer()
    passes = 0
    with tracer:
        while passes == 0 or time.perf_counter() - start < args.seconds:
            for i, op in enumerate(ops):
                traced.run(op, lambda fn, i=i: tracer.run_op(i, fn))
            passes += 1
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    values = tracing.layer_metrics(tracer, passes)
    values["simulate.log_us_per_row"] = log_us_per_row(workload, ops)
    traced_rate = traced.work / traced.busy if traced.busy else 0.0
    values["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    units = {spec["name"]: spec["unit"] for spec in load_spec()["per_layer"]}
    metrics = {name: (values[name], units[name]) for name in units}
    runner.attempted += traced.attempted
    runner.failed += traced.failed
    samples = {"ops": runner.durations + traced.durations, "passes": passes}
    report = [f"{name} = {v:.6g} {u}" for name, (v, u) in metrics.items()]
    report.append(f"traced passes = {passes}; count metrics: "
                  + ", ".join(f"{n}={values[n]:.6g}" for n in COUNT_METRICS))
    return runner, metrics, samples, report


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    workload = workloads.Workload(args.workload, args.seed, OUT)
    measure = per_layer if args.trace else end_to_end
    runner, metrics, samples, report = measure(args, workload, references)
    env = environment(args)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, environment=env, samples=samples)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
