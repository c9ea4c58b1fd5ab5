"""Acceptance suite: one test per criterion, each printing a pass line and
asserting its stated tolerance and runtime budget. Run with -s to see the
per-criterion lines."""

import math
import time

import numpy as np
import pytest

from do_icbf import (DisturbanceBounds, SimConfig, SplitMix64, build_acc,
                     build_bicycle, build_example1, error_envelope, rk4_step,
                     run_closed_loop, sinusoid_disturbance, solve_multi)
from do_icbf.cli import EXIT_INVALID, main
from do_icbf.filter import FilterConstraint

from oracles import (active_set_oracle, closed_form_single, column, exact_oracle,
                     gradient_error, level_values, random_instances)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit:.0f}s budget")
        return False


def _report(name, detail, budget):
    print(f"[PASS] {name}: {detail} ({budget.elapsed:.2f}s < {budget.limit:.0f}s)")


def test_criterion_1_acc_safety_contrast():
    scenario = build_acc()
    with Budget(5.0) as budget:
        robust = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=50.0,
                                                     filter_mode="do_icbf"))
        ablation = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=50.0,
                                                       filter_mode="icbf"))
    min_robust = float(column(robust, "b_h_x").min())
    min_ablation = float(column(ablation, "b_h_x").min())
    assert robust.halt_reason == "completed"
    assert ablation.halt_reason == "completed"
    assert min_robust >= -1e-3
    assert min_ablation < 0.0
    # the full invariance claim: every logged barrier stays above -1e-3
    for lab in ("h_x", "h_e", "h_u"):
        assert float(column(robust, f"b_{lab}").min()) >= -1e-3, lab
    _report("criterion 1 (safety contrast)",
            f"min h_x robust={min_robust:.2e}, non-robust={min_ablation:.3f}",
            budget)


def test_criterion_2_observer_convergence():
    scenario = build_acc()
    lam = scenario.obs_cfg.lam
    assert lam == pytest.approx(0.5)  # beta = 1, mu1 = 1
    with Budget(5.0) as budget:
        log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=50.0,
                                                  filter_mode="do_icbf"))
    t = column(log, "t")
    err = np.abs(column(log, "dhat0") - 2.0)
    tail = err[t >= 5.0 / lam]
    assert float(tail.max()) <= 0.05
    # decay ratio over one-second windows anchored anywhere in [1, 10]
    steps_per_second = int(round(1.0 / log.dt))
    window = (t >= 1.0) & (t <= 10.0)
    idx = np.where(window)[0]
    ratios = err[idx + steps_per_second] / err[idx]
    assert float(ratios.max()) <= math.exp(-lam) + 1e-3
    _report("criterion 2 (observer convergence)",
            f"max error after 5/lam = {float(tail.max()):.2e}, "
            f"worst decay ratio = {float(ratios.max()):.4f}",
            budget)


def test_criterion_3_acc_settles_at_lead_speed():
    scenario = build_acc()
    with Budget(5.0) as budget:
        log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=50.0,
                                                  filter_mode="do_icbf"))
    final_speed = float(column(log, "x1")[-1])
    assert abs(final_speed - 13.89) <= 0.5
    _report("criterion 3 (settling)", f"x2(50) = {final_speed:.4f}", budget)


def test_criterion_4_bicycle_invariance():
    scenario = build_bicycle()
    assert np.allclose(scenario.x0, [15.0, 10.0, math.pi / 2, 0.5])
    with Budget(5.0) as budget:
        log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=60.0,
                                                  filter_mode="high_order"))
    assert log.halt_reason == "completed"
    mins = {lab: float(column(log, f"b_{lab}").min()) for lab in ("b0", "b1", "b2")}
    assert all(v >= -1e-3 for v in mins.values()), mins
    x = column(log, "x0")
    y = column(log, "x1")
    min_r2 = float((x * x + y * y).min())
    assert min_r2 >= 1.0 - 1e-3
    _report("criterion 4 (bicycle invariance)",
            "min " + ", ".join(f"{k}={v:.2e}" for k, v in mins.items())
            + f", min x^2+y^2 = {min_r2:.3f}",
            budget)


def test_criterion_5_error_envelope_soundness():
    with Budget(30.0) as budget:
        worst = -math.inf
        cases = []
        for scenario, cfg in [
            (build_acc(), SimConfig(dt=1e-3, t_end=50.0, filter_mode="do_icbf")),
            (build_bicycle(), SimConfig(dt=1e-3, t_end=60.0, filter_mode="high_order")),
            (build_example1(), SimConfig(dt=1e-3, t_end=5.0, filter_mode="do_icbf")),
        ]:
            cases.append((scenario, cfg))
        rng = SplitMix64(515151)
        for _ in range(20):
            amp = rng.uniform(0.5, 2.0)
            omega = rng.uniform(0.2, 2.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            scenario = build_acc(
                d_true=sinusoid_disturbance(amp, omega, phase),
                bounds=DisturbanceBounds(k0=amp, k1=amp * omega),
            )
            cases.append((scenario, SimConfig(dt=1e-3, t_end=10.0,
                                              filter_mode="do_icbf")))
        for scenario, cfg in cases:
            log = run_closed_loop(scenario, cfg)
            t = column(log, "t")
            err = np.linalg.norm(
                np.column_stack([column(log, "dhat0") - column(log, "d0")]), axis=1)
            envelope = np.array([error_envelope(scenario.obs_cfg, ti) for ti in t])
            worst = max(worst, float((err - envelope).max()))
    assert worst <= 1e-6
    _report("criterion 5 (envelope soundness)",
            f"max envelope violation over {len(cases)} runs = {worst:.2e}",
            budget)


def test_criterion_6_qp_oracle_equivalence():
    with Budget(10.0) as budget:
        rng = SplitMix64(424242)
        instances = random_instances(rng, 1000)
        kkt_exact = 0
        for P, r in instances:
            cons = [FilterConstraint(p, f) for p, f in zip(P, r)]
            res = solve_multi(cons)

            # single-constraint closed form is reproduced exactly
            single = solve_multi(cons[:1])
            expected = closed_form_single(P[0], r[0])
            assert single.infeasible == (expected is None)
            if expected is not None:
                assert np.array_equal(single.v_star, expected)
                kkt_exact += 1

            v_exact = exact_oracle(P, r)
            assert res.infeasible == (v_exact is None)
            if v_exact is not None:
                assert float(np.linalg.norm(res.v_star - v_exact)) <= 1e-9
            if not res.infeasible:
                v_as = active_set_oracle(P, r)
                assert v_as is not None
                assert float(np.linalg.norm(res.v_star - v_as)) <= 1e-9
    _report("criterion 6 (QP oracle equivalence)",
            f"1000 instances checked, {kkt_exact} exact closed-form matches",
            budget)


def test_criterion_7_validity_checker_reproduces_the_counterexample(tmp_path):
    import json
    with Budget(1.0) as budget:
        rc = main(["check", "--scenario", "example1", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "validity.json").read_text())
    assert rc == EXIT_INVALID == 4
    hits = [c for c in report["counterexamples"]
            if c["x"] == [4.0] and c["u"] == [0.0]]
    assert hits
    _report("criterion 7 (validity checker)",
            f"exit code 4 with counterexample at x=4, u=0 (w={hits[0]['w']:.1f})",
            budget)


def test_criterion_8_numerical_hygiene():
    with Budget(10.0) as budget:
        # (a) analytic gradients vs central differences of the values the
        # filter evaluates (a chain level above 0 is its recurrence), 100
        # points per scenario
        rng = SplitMix64(808)
        worst_rel = 0.0
        for scenario in (build_acc(), build_bicycle(), build_example1()):
            box = scenario.check_box
            for _ in range(100):
                x = np.array([rng.uniform(lo, hi)
                              for lo, hi in zip(box.x_low, box.x_high)])
                u = np.array([rng.uniform(lo, hi)
                              for lo, hi in zip(box.u_low, box.u_high)])
                for spec, value in level_values(scenario):
                    worst_rel = max(worst_rel, gradient_error(spec, value, x, u))
        assert worst_rel <= 1e-4

        # (b) RK4 halving ratio on z' = -z over [0, 1]
        def global_error(dt):
            z = np.ones(1)
            for k in range(int(round(1.0 / dt))):
                z = rk4_step(lambda t, zz: -zz, k * dt, z, dt)
            return abs(float(z[0]) - math.exp(-1.0))

        ratio = global_error(1e-2) / global_error(5e-3)
        assert ratio >= 14.0

        # (c) comparison-lemma harness: 50 random scalar ODEs stay nonnegative
        rng = SplitMix64(909)
        floor = 0.0
        for _ in range(50):
            gamma = rng.uniform(0.1, 4.0)
            b0 = rng.uniform(0.0, 3.0)
            amp = rng.uniform(0.0, 2.0)
            freq = rng.uniform(0.1, 5.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)

            def rhs(t, z):
                s = amp * (1.0 + math.sin(freq * t + phase))
                return np.array([-gamma * z[0] + s])

            z = np.array([b0])
            dt = 1e-3
            for k in range(1500):
                z = rk4_step(rhs, k * dt, z, dt)
                floor = min(floor, float(z[0]))
        assert floor >= -1e-9
    _report("criterion 8 (numerical hygiene)",
            f"worst gradient rel err = {worst_rel:.2e}, RK4 halving ratio = "
            f"{ratio:.1f}, comparison-lemma floor = {floor:.1e}",
            budget)
