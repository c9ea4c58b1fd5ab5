"""Span tracing for the benchmark's traced run, installed from outside `src/`.

Wrappers go around calls into the package's public functions:

* module-attribute patches of `cli.main`, `cli.build_scenario`,
  `cli.run_closed_loop`, `cli.summarize`, `cli.check_validity`,
  `cli._write_json`, the `scenarios.build_*` builders, and in `simulate`
  `run_closed_loop`, `summarize`, `build_constraints`, `solve_multi`,
  `rk4_step` and `error_envelope` (plus `filter.error_envelope`, which the
  generic loop's constraint assembly calls), and `TrajectoryLog.write_csv`;
* per run, `dataclasses.replace` copies of the scenario whose `model.F`,
  `model.d_true`, barrier `h`/`grad_x`/`grad_u` and law `rate` are wrapped.

Coarse spans (operations, CLI commands, builds, runs, summaries, writes,
grid checks) are kept as (name, start, end, parent, op) records. The hot
per-step callables would add millions of records a run, so their spans are
folded as they close into (count, total, self) per (name, context), where the
context is the nearest enclosing coarse span. Self time is a span's duration
minus the time its child spans cover. Everything stays in memory until
`dump` writes it out.

The wrappers roughly double the per-step time of the fast loop, so layer
times come from the traced run only and end-to-end numbers from untraced
runs only.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from do_icbf import cli, filter as qp, scenarios, simulate
from do_icbf.barriers import BarrierChain, BarrierSpec
from workloads import grid_points

LOOP = "simulate.run_closed_loop"
CHECK = "barriers.check_validity"
_BUILDERS = ("build_acc", "build_bicycle", "build_example1")


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter_ns
        # frame: [child_ns, context name for children, span name]
        self._stack: list = []
        self.agg: dict = {}       # (name, context) -> [count, total_ns, self_ns]
        self.spans: list = []     # coarse spans: (name, start_ns, end_ns, parent, op)
        self.runs: list = []      # one dict per closed-loop run
        self.checks: list = []    # one dict per grid check
        self.csv: list = []       # (bytes, ns) per CSV written
        self.active_solves = 0    # solve_multi results with v* != 0
        self.op = -1
        self._patches: list = []
        self._real_min = math.inf

    # -- span recording ---------------------------------------------------
    def _enter(self, name: str, coarse: bool):
        ctx = self._stack[-1][1] if self._stack else None
        frame = [0, name if coarse else ctx, name]
        self._stack.append(frame)
        return frame, ctx, self._clock()

    def _leave(self, name: str, frame, ctx, start: int, coarse: bool) -> int:
        end = self._clock()
        dur = end - start
        self._stack.pop()
        rec = self.agg.get((name, ctx))
        if rec is None:
            rec = self.agg[(name, ctx)] = [0, 0, 0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if coarse:
            parent = self._stack[-1][2] if self._stack else None
            self.spans.append((name, start, end, parent, self.op))
        return dur

    def wrap(self, name: str, fn, coarse: bool = False):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame, ctx, start = enter(name, coarse)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame, ctx, start, coarse)
        return traced

    def run_op(self, index: int, fn):
        """Run one operation under a root span tagged with its index."""
        self.op = index
        return self.wrap("op", fn, coarse=True)()

    # -- scenario instrumentation ----------------------------------------
    def _wrap_spec(self, spec, real: bool):
        h = self.wrap("barriers.h", spec.h)
        if real:
            h = self._track_min(h)
        return dataclasses.replace(spec, h=h,
                                   grad_x=self.wrap("barriers.grad_x", spec.grad_x),
                                   grad_u=self.wrap("barriers.grad_u", spec.grad_u))

    def _track_min(self, h):
        """Also record the least value the loop sees of a real barrier."""
        def tracked(x, u):
            val = h(x, u)
            if self._in_loop() and val < self._real_min:
                self._real_min = float(val)
            return val
        return tracked

    def _in_loop(self) -> bool:
        return bool(self._stack) and self._stack[-1][1] == LOOP

    def _wrap_model(self, model):
        return dataclasses.replace(model, F=self.wrap("model.F", model.F),
                                   d_true=self.wrap("model.d_true", model.d_true))

    def _wrap_target(self, target):
        if isinstance(target, BarrierChain):
            return dataclasses.replace(target, levels=tuple(
                self._wrap_spec(lv, False) for lv in target.levels))
        if isinstance(target, BarrierSpec):
            return self._wrap_spec(target, False)
        return [self._wrap_spec(s, False) for s in target]

    def instrument(self, scenario):
        """A copy of the scenario whose callables record spans. The real
        barriers are the chain's level 0 and the plain barriers."""
        chain = scenario.chain
        if chain is not None:
            levels = tuple(self._wrap_spec(lv, i == 0) for i, lv in enumerate(chain.levels))
            chain = dataclasses.replace(chain, levels=levels)
        return dataclasses.replace(
            scenario, model=self._wrap_model(scenario.model),
            barriers=tuple(self._wrap_spec(b, True) for b in scenario.barriers),
            chain=chain, law=TracedLaw(scenario.law, self))

    # -- wrappers with bookkeeping ----------------------------------------
    def _traced_run(self, orig):
        def run_closed_loop(scenario, cfg, *args, **kwargs):
            scenario = self.instrument(scenario)
            self._real_min = math.inf
            frame, ctx, start = self._enter(LOOP, True)
            try:
                log = orig(scenario, cfg, *args, **kwargs)
            finally:
                dur = self._leave(LOOP, frame, ctx, start, True)
            self.runs.append({
                "fast": bool(scenario.fast_loop), "steps": round(log.rows[-1][0] / log.dt),
                "rows": len(log.rows), "halt": log.halt_reason, "ns": dur,
                "self_ns": dur - frame[0], "real_min": self._real_min})
            return log
        return run_closed_loop

    def _traced_check(self, orig):
        def check_validity(target, model, phi, box, resolution, *args, **kwargs):
            points = grid_points(resolution, box.x_low.shape[0] + box.u_low.shape[0])
            frame, ctx, start = self._enter(CHECK, True)
            try:
                report = orig(self._wrap_target(target), self._wrap_model(model), phi, box,
                              resolution, *args, **kwargs)
            finally:
                dur = self._leave(CHECK, frame, ctx, start, True)
            self.checks.append({"points": points, "ns": dur,
                                "counterexamples": len(report.counterexamples)})
            return report
        return check_validity

    def _traced_solve(self, orig):
        traced = self.wrap("filter.solve_multi", orig)

        def solve_multi(constraints):
            result = traced(constraints)
            if self._in_loop() and np.any(result.v_star != 0.0):
                self.active_solves += 1
            return result
        return solve_multi

    def _traced_write_csv(self, orig):
        def write_csv(log, path):
            frame, ctx, start = self._enter("simulate.write_csv", True)
            try:
                orig(log, path)
            finally:
                dur = self._leave("simulate.write_csv", frame, ctx, start, True)
            self.csv.append((os.path.getsize(path), dur))
        return write_csv

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        """Wrap owner.attr. A missing attribute raises: a layer that is gone
        must stop the traced run, not read as 0."""
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _coarse(self, name: str):
        return lambda orig: self.wrap(name, orig, coarse=True)

    def _hot(self, name: str):
        return lambda orig: self.wrap(name, orig)

    def install(self) -> None:
        coarse, hot = self._coarse, self._hot
        self._patch(cli, "main", coarse("cli.main"))
        self._patch(cli, "build_scenario", coarse("scenarios.build"))
        for name in _BUILDERS:
            self._patch(scenarios, name, coarse("scenarios.build"))
        run = self._traced_run
        self._patch(cli, "run_closed_loop", run)
        self._patch(simulate, "run_closed_loop", run)
        self._patch(cli, "summarize", coarse("simulate.summarize"))
        self._patch(simulate, "summarize", coarse("simulate.summarize"))
        self._patch(cli, "check_validity", self._traced_check)
        self._patch(cli, "_write_json", coarse("cli.write_json"))
        self._patch(simulate.TrajectoryLog, "write_csv", self._traced_write_csv)
        self._patch(simulate, "build_constraints", hot("filter.build_constraints"))
        self._patch(simulate, "solve_multi", self._traced_solve)
        self._patch(simulate, "rk4_step", hot("simulate.rk4_step"))
        self._patch(simulate, "error_envelope", hot("observer.error_envelope"))
        self._patch(qp, "error_envelope", hot("observer.error_envelope"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reduction ----------------------------------------------------------
    def totals(self, name: str, ctx=None, any_ctx: bool = False) -> tuple:
        """(count, total_ns, self_ns) of a span name in one context, or in all."""
        count = total = self_ns = 0
        for (n, c), (k, t, s) in self.agg.items():
            if n == name and (any_ctx or c == ctx):
                count += k
                total += t
                self_ns += s
        return count, total, self_ns

    def dump(self, path: Path) -> None:
        payload = {
            "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": op}
                      for n, s, e, p, op in self.spans],
            "aggregates": [{"name": n, "context": c, "count": k, "total_ns": t, "self_ns": s}
                           for (n, c), (k, t, s) in sorted(self.agg.items(), key=str)],
            "runs": self.runs,
            "checks": self.checks,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class TracedLaw:
    """Rate-law proxy: forwards reset/rate and records rate spans. Deep copies
    (the loop copies its law) copy the law but keep the tracer."""

    def __init__(self, law, tracer: Tracer):
        self.law = law
        self.tracer = tracer
        self.rate = tracer.wrap("control_laws.rate", law.rate)

    def reset(self, x0, u0) -> None:
        self.law.reset(x0, u0)

    def __deepcopy__(self, memo):
        return TracedLaw(copy.deepcopy(self.law, memo), self.tracer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics from a traced run of `passes` identical op lists.

    Times are means per call, per step or per point; counts are per pass.
    A layer the workload never reaches reports 0.
    """
    runs = tr.runs
    steps = sum(r["steps"] for r in runs)
    fast = [r for r in runs if r["fast"]]
    generic = [r for r in runs if not r["fast"]]

    def per_call_us(name, ctx=None, any_ctx=False):
        k, t, _ = tr.totals(name, ctx, any_ctx)
        return _ratio(t, k) / 1e3

    def loop_calls(name):
        return tr.totals(name, LOOP)[0]

    cli_k, _, cli_self = tr.totals("cli.main", any_ctx=True)
    barrier_names = ("barriers.h", "barriers.grad_x", "barriers.grad_u")
    barrier_calls = sum(loop_calls(n) for n in barrier_names)
    barrier_ns = sum(tr.totals(n, LOOP)[1] for n in barrier_names)
    solves = loop_calls("filter.solve_multi")
    check_points = sum(c["points"] for c in tr.checks)
    csv_bytes = sum(b for b, _ in tr.csv)
    csv_ns = sum(ns for _, ns in tr.csv)
    sum_k, sum_t, _ = tr.totals("simulate.summarize", any_ctx=True)
    return {
        "cli.self_s": _ratio(cli_self, cli_k) / 1e9,
        "cli.write_json_ms": per_call_us("cli.write_json", any_ctx=True) / 1e3,
        "scenarios.build_ms": per_call_us("scenarios.build", any_ctx=True) / 1e3,
        "control_laws.rate_us": per_call_us("control_laws.rate", LOOP),
        "control_laws.calls_per_step": _ratio(loop_calls("control_laws.rate"), steps),
        "model.F_us": per_call_us("model.F", any_ctx=True),
        "model.F_calls_per_step": _ratio(loop_calls("model.F"), steps),
        "model.d_true_calls_per_step": _ratio(loop_calls("model.d_true"), steps),
        "observer.envelope_us": per_call_us("observer.error_envelope", any_ctx=True),
        "observer.envelope_calls_per_step": _ratio(loop_calls("observer.error_envelope"), steps),
        "barriers.eval_us_per_step": _ratio(barrier_ns, steps) / 1e3,
        "barriers.calls_per_step": _ratio(barrier_calls, steps),
        "barriers.check_us_per_point": _ratio(sum(c["ns"] for c in tr.checks), check_points) / 1e3,
        "barriers.check_points": check_points / passes,
        "barriers.counterexamples": sum(c["counterexamples"] for c in tr.checks) / passes,
        "filter.assemble_us": per_call_us("filter.build_constraints", LOOP),
        "filter.solve_us": per_call_us("filter.solve_multi", LOOP),
        "filter.solve_calls": solves / passes,
        "filter.active_frac": _ratio(tr.active_solves, solves),
        "filter.infeasible_halts": sum(r["halt"] == "infeasible" for r in runs) / passes,
        "simulate.kernel_us_per_step": _ratio(sum(r["ns"] for r in fast),
                                              sum(r["steps"] for r in fast)) / 1e3,
        "simulate.kernel_self_us_per_step": _ratio(sum(r["self_ns"] for r in fast),
                                                   sum(r["steps"] for r in fast)) / 1e3,
        "simulate.generic_us_per_step": _ratio(sum(r["ns"] for r in generic),
                                               sum(r["steps"] for r in generic)) / 1e3,
        "simulate.rk4_us": per_call_us("simulate.rk4_step", LOOP),
        "simulate.rows_logged": sum(r["rows"] for r in runs) / passes,
        "simulate.write_csv_s": _ratio(csv_ns, len(tr.csv)) / 1e9,
        "simulate.csv_bytes": _ratio(csv_bytes, len(tr.csv)),
        "simulate.csv_mb_per_s": _ratio(csv_bytes / 1e6, csv_ns / 1e9),
        "simulate.summarize_s": _ratio(sum_t, sum_k) / 1e9,
        "simulate.unsafe_variants": sum(r["real_min"] < 0.0 for r in runs) / passes,
    }
