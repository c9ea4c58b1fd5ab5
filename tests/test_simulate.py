import dataclasses
import gc
import math
import os
import tracemalloc

import numpy as np
import pytest

from do_icbf import (BarrierChain, BarrierSpec, BlowupError,
                     ConfigurationError, DisturbanceBounds, DomainBox,
                     ObserverConfig, Scenario, SimConfig, SplitMix64,
                     SystemModel, build_acc, build_bicycle, build_constraints, build_example1,
                     build_scenario, check_validity, error_envelope, linear_rate, rk4_step,
                     run_closed_loop, simulate, sinusoid_disturbance, summarize)
from do_icbf.control_laws import ZeroRate
from oracles import active_set_oracle, column, exact_oracle, replay


def test_rk4_zero_rhs():
    z = np.array([1.0, -2.0])
    out = rk4_step(lambda t, zz: np.zeros(2), 0.0, z, 0.1)
    assert np.array_equal(out, z)


def test_rk4_constant_rhs_exact():
    c = np.array([2.0, -0.5])
    out = rk4_step(lambda t, zz: c, 0.0, np.zeros(2), 0.25)
    assert np.array_equal(out, 0.25 * c)


def test_rk4_exponential_decay():
    out = rk4_step(lambda t, zz: -zz, 0.0, np.ones(1), 0.1)
    assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


def test_rk4_fourth_order_convergence():
    # global error over [0, 1] for z' = -z shrinks ~16x when dt halves
    def integrate(dt):
        z = np.ones(1)
        steps = int(round(1.0 / dt))
        for k in range(steps):
            z = rk4_step(lambda t, zz: -zz, k * dt, z, dt)
        return abs(z[0] - math.exp(-1.0))

    ratio = integrate(1e-2) / integrate(5e-3)
    assert ratio >= 14.0


def test_rk4_blowup_reports_time():
    def rhs(t, z):
        return z * z * 1e5

    z = np.array([10.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as err:
            t = 0.0
            for _ in range(100):
                z = rk4_step(rhs, t, z, 0.5)
                t += 0.5
    assert err.value.t >= 0.0
    with pytest.raises(Exception):
        rk4_step(rhs, 0.0, z, -1.0)


def test_sim_config_validation():
    SimConfig(dt=1e-3, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=1e-3, t_end=1e-4)
    # a stride is a whole number of steps: a float would log every
    # ceil(stride)-th step, and a bool is no count
    for stride in (0, -1, 2.5, 2.0, True, np.bool_(True), np.int64(0), "2"):
        with pytest.raises(ConfigurationError, match="log_stride must be an integer >= 1"):
            SimConfig(dt=1e-3, t_end=1.0, log_stride=stride)
    assert SimConfig(dt=1e-2, t_end=0.2, log_stride=np.int64(3)).log_stride == 3
    # nor is a bool a step or a horizon, though it compares as 0 or 1
    for true in (True, np.bool_(True)):
        with pytest.raises(ConfigurationError, match="^dt must be finite and > 0, got True"):
            SimConfig(dt=true, t_end=2)
        with pytest.raises(ConfigurationError, match="^t_end must be finite and >= dt, got True"):
            SimConfig(dt=1e-2, t_end=true)
    with pytest.raises(ConfigurationError):
        SimConfig(dt=1e-3, t_end=1.0, filter_mode="none")
    # a NaN or infinite step or horizon has no step count
    for dt, t_end in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.nan), (1e-3, math.inf)):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=dt, t_end=t_end)
    # nor does a finite pair whose quotient overflows
    for dt, t_end in ((1e-320, 50.0), (1e-200, 1e200)):
        with pytest.raises(ConfigurationError, match=r"t_end / dt .*t_end=.*dt="):
            SimConfig(dt=dt, t_end=t_end)


def _static_scenario():
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (0.0,),
                        ell=lambda x: np.zeros((1, 1)))
    obs = ObserverConfig(beta=1.0, L_d=np.zeros((1, 1)), mu1=1.0,
                         bounds=DisturbanceBounds(0.0, 0.0))
    return Scenario(
        model=model, law=ZeroRate(), obs_cfg=obs,
        x0=np.array([0.5]), u0=np.zeros(1),
        domain=DomainBox((-1.0,), (1.0,), (-1.0,), (1.0,)),
    )


def test_zero_dynamics_constant_trajectory():
    log = run_closed_loop(_static_scenario(), SimConfig(dt=0.01, t_end=1.0,
                                                        filter_mode="off"))
    assert log.halt_reason == "completed"
    assert np.all(column(log, "x0") == 0.5)
    assert np.all(column(log, "u0") == 0.0)
    metrics = summarize(log)
    assert metrics["correction_effort"] == 0.0


def test_log_row_count_invariant(acc_scenario):
    for stride in (1, 7, 50):
        cfg = SimConfig(dt=1e-2, t_end=2.0, log_stride=stride, filter_mode="off")
        log = run_closed_loop(acc_scenario, cfg)
        expected = math.floor(cfg.t_end / (cfg.dt * stride)) + 1
        # the final state row is always logged, so allow the extra row when
        # the stride does not divide the horizon
        n_steps = int(round(cfg.t_end / cfg.dt))
        extra = 0 if n_steps % stride == 0 else 1
        assert len(log.rows) == expected + extra
        t = column(log, "t")
        assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("name,mode", [("acc", "off"), ("acc", "do_icbf"),
                                       ("bicycle", "high_order")])
def test_metrics_do_not_depend_on_log_stride(name, mode, acc_scenario, bicycle_scenario):
    # the loop folds every step into the metrics, logged or not
    scenario = acc_scenario if name == "acc" else bicycle_scenario
    results = []
    for stride in (1, 7, 1000):
        log = run_closed_loop(scenario, SimConfig(dt=1e-3, t_end=3.0, log_stride=stride,
                                                  filter_mode=mode))
        metrics = summarize(log, scenario)
        del metrics["steps_logged"]
        results.append(metrics)
    assert results[1] == results[0]
    assert results[2] == results[0]


@pytest.mark.parametrize("name,overrides,cfg,halt", [
    ("acc", {}, dict(dt=2.0, t_end=2000.0, filter_mode="off"), "blowup"),
    ("bicycle", {"accel": -0.1}, dict(dt=1e-3, t_end=8.0, filter_mode="high_order"), "error"),
], ids=["acc-blowup", "bicycle-error"])
def test_halt_row_does_not_depend_on_log_stride(name, overrides, cfg, halt):
    # the log ends at the last decided step whether or not it is on the stride
    scenario = build_scenario(name, **overrides)
    ends = []
    for stride in (1, 3):
        log = run_closed_loop(scenario, SimConfig(log_stride=stride, **cfg))
        assert log.halt_reason == halt
        metrics = summarize(log, scenario)
        assert log.rows[-1][0] == metrics["t_final"]
        ends.append((np.asarray(log.rows[-1]).tobytes(), metrics["tracking"]))
    assert ends[1] == ends[0]


def test_initial_state_must_match_model_dimensions():
    sc = _static_scenario()
    for x, u in (([0.5, 0.0], [0.0]), ([0.5], [])):
        with pytest.raises(ConfigurationError, match="^[xu]0: expected a vector of length 1"):
            dataclasses.replace(sc, x0=x, u0=u)
    # the observer starts at r = -beta q(x0), which needs p entries
    obs = dataclasses.replace(sc.obs_cfg, L_d=lambda x: np.zeros((2, 1)),
                              q_fn=lambda x: np.zeros(2))
    with pytest.raises(ConfigurationError, match=r"^q\(x0\): expected a vector of length 1"):
        dataclasses.replace(sc, obs_cfg=obs)


def test_a_disturbance_of_the_wrong_length_is_refused_where_the_scenario_is_made():
    # the loop packs d_true(t) into each row: a given signal must have p
    # entries, and the zero default is derived again from a replaced model's p
    example1 = build_example1()
    short_d = dataclasses.replace(example1.model, d_true=lambda t: np.zeros(2))
    with pytest.raises(ConfigurationError, match=r"^d_true\(0\): expected a vector of length 1"):
        dataclasses.replace(example1, model=short_d)
    sc = _static_scenario()
    wide = dataclasses.replace(sc.model, p=2, ell=lambda x: np.zeros((1, 2)))
    obs = dataclasses.replace(sc.obs_cfg, L_d=np.zeros((2, 1)))
    replaced = dataclasses.replace(sc, model=wide, obs_cfg=obs)
    assert np.array_equal(replaced.model.d_true(0.0), np.zeros(2))


def test_start_stacks_x0_u0_and_a_zero_estimate():
    # the kernels read x, u and r back as the slices of Scenario.start(), and
    # r = -beta q(x0) makes the estimate r + beta q(x0) exactly zero
    rng = SplitMix64(7)
    for _ in range(100):
        n, m, p = rng.integer(1, 4), rng.integer(1, 3), rng.integer(1, 2)
        x, u = ([rng.uniform(-9, 9) for _ in range(k)] for k in (n, m))
        obs = ObserverConfig(beta=rng.uniform(0.5, 2.0), mu1=0.5,
                             L_d=[[rng.uniform(-9, 9) for _ in range(n)] for _ in range(p)],
                             bounds=DisturbanceBounds(0.0, 0.0))
        model = SystemModel(n=n, m=m, p=p, F=lambda x, u: 0.0 * x,
                            ell=lambda x, shape=(n, p): np.zeros(shape))
        sc = Scenario(model=model, law=ZeroRate(), obs_cfg=obs, x0=x, u0=u,
                      domain=DomainBox([-9.0] * n, [9.0] * n, [-9.0] * m, [9.0] * m))
        z0 = sc.start()
        assert z0.shape == (n + m + p,)
        assert np.array_equal(z0[:n], x) and np.array_equal(z0[n:n + m], u)
        assert np.array_equal(z0[n + m:] + obs.beta * obs.q(sc.x0), np.zeros(p))


WIDE = DomainBox(x_low=(-10.0, -10.0), x_high=(10.0, 10.0), u_low=(-2.0,), u_high=(2.0,))


def test_domain_box_bounds_must_match_in_length():
    with pytest.raises(ConfigurationError, match="differ in shape"):
        DomainBox(x_low=(0.0,), x_high=(1.0, 2.0), u_low=(0.0,), u_high=(1.0,))
    with pytest.raises(ConfigurationError, match="differ in shape"):
        DomainBox(x_low=(0.0,), x_high=(1.0,), u_low=(0.0, 0.0), u_high=(1.0,))


@pytest.mark.parametrize("role", ["domain", "check_box"])
def test_scenario_boxes_must_match_model_dimensions(role):
    # example1 has one state: a two-state box would pack one value too many
    # into each log row, or have check scan two-state points
    with pytest.raises(ConfigurationError, match=f"{role} has state bounds of shape \\(2,\\)"):
        dataclasses.replace(build_example1(), **{role: WIDE})


def test_a_start_outside_the_safe_set_is_refused_where_the_scenario_is_made():
    # dataclasses.replace makes the scenario anew, so it is checked as a
    # builder's is: x = 5 is past example1's wall x <= 4
    with pytest.raises(ConfigurationError,
                       match=r"^initial state is outside the safe set: \{'h_x': -1\.0\}"):
        dataclasses.replace(build_example1(), x0=[5.0])


def test_a_start_with_an_infinite_barrier_value_is_refused_where_the_scenario_is_made():
    # h = +inf is no margin at all: a value that is not finite is refused as
    # a negative one is, before a run could halt "blowup" at t = 0
    example1 = build_example1()
    h_x, h_u = example1.barriers
    with pytest.raises(ConfigurationError, match=r"^initial state is outside the safe set: "
                       r"\{'h_x': inf\} \(all barrier values must be finite and >= 0\)$"):
        dataclasses.replace(example1, barriers=(dataclasses.replace(h_x, h=lambda x, u: math.inf),
                                                h_u))


def test_checked_box_must_match_model_dimensions():
    sc = build_example1()
    with pytest.raises(ConfigurationError, match="box has state bounds"):
        check_validity(list(sc.barriers), sc.model, lambda x, u: (0.0,), WIDE, 5)


def test_determinism_bit_identical(acc_scenario, tmp_path):
    cfg = SimConfig(dt=1e-3, t_end=1.0, filter_mode="do_icbf")
    a = run_closed_loop(acc_scenario, cfg)
    b = run_closed_loop(acc_scenario, cfg)
    assert a.rows.tobytes() == b.rows.tobytes()  # bitwise, so -0.0 != 0.0
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def _wall_scenario():
    """A disturbed double integrator x0' = x1, x1' = u + d kept below the wall
    x0 = 1 by a custom chain whose levels above 0 are their recurrence:
    b0 = 1 - x0, b1 = -x1 + k0 b0 and b2 = -k0 x1 - u + k1 b1, given by
    their gradients alone, with three different rates."""
    k0, k1, k2 = 2.0, 3.0, 5.0
    ell = np.array([[0.0], [1.0]])
    model = SystemModel(n=2, m=1, p=1, F=lambda x, u: (x[1], u[0]), ell=lambda x: ell,
                        d_true=sinusoid_disturbance(0.2, 1.0))
    chain = BarrierChain(levels=(
        BarrierSpec(h=lambda x, u: 1.0 - x[0], gamma=linear_rate(k0), label="b0",
                    grad_x=lambda x, u: (-1.0, 0.0), grad_u=lambda x, u: (0.0,)),
        BarrierSpec(h=None, gamma=linear_rate(k1), label="b1",
                    grad_x=lambda x, u: (-k0, -1.0), grad_u=lambda x, u: (0.0,)),
        BarrierSpec(h=None, gamma=linear_rate(k2), label="b2",
                    grad_x=lambda x, u: (-k1 * k0, -k0 - k1), grad_u=lambda x, u: (-1.0,)),
    ))
    obs = ObserverConfig(beta=1.0, L_d=ell.T, mu1=1.0, bounds=DisturbanceBounds(0.2, 0.2))
    return Scenario(
        model=model, law=ZeroRate(), obs_cfg=obs,
        x0=np.array([0.5, 0.2]), u0=np.array([0.2]),
        domain=DomainBox((-10.0, -10.0), (10.0, 10.0), (-5.0,), (5.0,)),
        chain=chain, fast_loop=True,
    )


@pytest.mark.parametrize("mode", ["off", "icbf", "do_icbf", "high_order"])
def test_fast_and_generic_loops_agree(mode, acc_scenario, bicycle_scenario):
    # the built-in chains give their top two levels one rate; a third top
    # rate shows a kernel that takes the top constraint's rate from below
    chain = bicycle_scenario.chain
    top = dataclasses.replace(chain.levels[2], gamma=linear_rate(3.0))
    own_top_rate = dataclasses.replace(
        bicycle_scenario, chain=BarrierChain(levels=chain.levels[:2] + (top,)))
    # two plain barriers next to a chain, and two with none, pin the order of
    # the values (chain levels first) and of the constraints (plain first);
    # example1 from x0 = 1 also halts infeasible in the filter modes, and the
    # wall scenario's custom chain has no value above level 0
    h_u = acc_scenario.barriers[0]
    loose = dataclasses.replace(h_u, h=lambda x, u: h_u.h(x, u) + 1e6, label="h_u_loose")
    two_plain = dataclasses.replace(acc_scenario, barriers=(h_u, loose))
    for scenario in (acc_scenario, bicycle_scenario, own_top_rate, two_plain,
                     build_example1(x0=(1.0,)), _wall_scenario()):
        cfg = SimConfig(dt=1e-3, t_end=1.0, filter_mode=mode)
        fast = run_closed_loop(scenario, cfg)
        generic = run_closed_loop(dataclasses.replace(scenario, fast_loop=False), cfg)
        assert fast.header == generic.header
        assert fast.halt_reason == generic.halt_reason
        diff = np.abs(np.asarray(fast.rows) - np.asarray(generic.rows))
        scale = np.abs(np.asarray(generic.rows)).max()
        assert diff.max() <= 1e-12 * max(1.0, scale)


def test_float_kernel_needs_the_default_potential():
    # the float kernel sums q = L_d x itself, the potential of a constant L_d
    # by construction: a config refuses any other potential for a constant
    # gain, and a fast_loop scenario refuses a state-map gain where it is made
    acc = build_acc()
    obs = acc.obs_cfg
    cfg = SimConfig(dt=1e-3, t_end=0.01)
    with pytest.raises(ConfigurationError, match="potential of a constant L_d is L_d x"):
        dataclasses.replace(obs, q_fn=lambda x: obs.L_d.dot(x) + 1.0)
    state_gain = dataclasses.replace(obs, L_d=lambda x: obs.L_d, q_fn=obs.q)
    with pytest.raises(ConfigurationError, match=r"^fast_loop .* needs a constant L_d$"):
        dataclasses.replace(acc, obs_cfg=state_gain)
    # the vector kernel runs the same gain as a state map, bit for bit
    vector = dataclasses.replace(acc, fast_loop=False)
    log = run_closed_loop(dataclasses.replace(vector, obs_cfg=state_gain), cfg)
    assert column(log, "dhat0")[0] == 0.0
    assert np.array_equal(log.rows, run_closed_loop(vector, cfg).rows)
    # the default potential of the config's own L_d runs, however it was copied
    log = run_closed_loop(dataclasses.replace(acc, obs_cfg=dataclasses.replace(obs)), cfg)
    assert log.halt_reason == "completed"


@pytest.mark.parametrize("fast", [True, False], ids=["float", "vector"])
def test_a_copied_config_derives_the_potential_of_its_own_gain(fast):
    # a copy with another constant gain gets that gain's potential, so the
    # estimate converges and stays inside its envelope on both kernels
    acc = dataclasses.replace(build_acc(), fast_loop=fast)
    obs = acc.obs_cfg
    doubled = dataclasses.replace(obs, L_d=2.0 * obs.L_d)
    log = run_closed_loop(dataclasses.replace(acc, obs_cfg=doubled), SimConfig(dt=1e-3, t_end=3.0))
    assert log.halt_reason == "completed"
    assert summarize(log)["envelope_violation_max"] <= 0.0
    x = np.array([1.0, -2.5, 3.25])
    assert np.array_equal(doubled.q(x), (2.0 * obs.L_d).dot(x))
    assert np.array_equal(doubled.gain_at(x), 2.0 * obs.L_d)


@pytest.mark.parametrize("fast", [True, False], ids=["float", "vector"])
@pytest.mark.parametrize("name,overrides,cfg", [
    ("acc", {}, SimConfig(dt=1e-3, t_end=2.0, filter_mode="do_icbf")),
    ("acc", {}, SimConfig(dt=1e-3, t_end=2.0, filter_mode="icbf")),
    ("acc", {}, SimConfig(dt=1e-3, t_end=2.0, filter_mode="off")),
    ("bicycle", {}, SimConfig(dt=1e-3, t_end=2.0, filter_mode="high_order")),
    ("bicycle", {}, SimConfig(dt=1e-3, t_end=2.0, filter_mode="off")),
    ("example1", {}, SimConfig(dt=1e-3, t_end=2.0)),
    ("example1", {"x0": (3.9,)}, SimConfig(dt=1e-3, t_end=2.0)),
    ("acc", {}, SimConfig(dt=2.0, t_end=2000.0, filter_mode="off")),
    ("bicycle", {"accel": -0.1}, SimConfig(dt=1e-3, t_end=8.0, log_stride=10,
                                          filter_mode="high_order")),
], ids=["acc-do_icbf", "acc-icbf", "acc-off", "bicycle-high_order", "bicycle-off",
        "example1", "example1-infeasible", "acc-blowup", "bicycle-error"])
def test_replay_reproduces_every_logged_decision(name, overrides, cfg, fast):
    # each row's barrier values, slacks, margin, v* and infeasible flag are
    # what build_constraints and solve_multi give on the row's own t, x, u,
    # phi and d_hat: the golden runs, an infeasible halt (whose replay finds
    # no v* either) and the last row of a blowup and of an error halt
    scenario = dataclasses.replace(build_scenario(name, **overrides), fast_loop=fast)
    with np.errstate(all="ignore"):  # the blowup run overflows
        log = run_closed_loop(scenario, cfg)
        replayed = replay(scenario, cfg, log)
    rows = np.asarray(log.rows)
    if name == "example1" and overrides:
        assert log.halt_reason == "infeasible" and rows[-1][log.header.index("infeasible")] == 1.0
    if fast and name == "bicycle":
        # the float kernel's Lie-derivative sums round unlike numpy's dot
        np.testing.assert_allclose(replayed, rows, rtol=1e-15, atol=0.0)
    else:
        assert replayed.tobytes() == rows.tobytes()  # bit for bit


class _ConstantRate:
    """A nominal law whose rate is one constant vector."""

    def __init__(self, rate):
        self.value = np.asarray(rate, dtype=float)

    def rate(self, t, x, u, dt):
        return self.value


def _two_input_scenario(seed: int) -> Scenario:
    """n = m = 2, p = 1: two plain barriers c + g_u . u + g_x . x with seeded,
    independent input gradients, and a nominal rate that drives u towards
    both boundaries at once."""
    rng = SplitMix64(seed)
    ell = np.array([[1.0], [0.5]])
    model = SystemModel(n=2, m=2, p=1, F=lambda x, u: np.array([u[0] - x[0], u[1] - x[1]]),
                        ell=lambda x: ell, d_true=sinusoid_disturbance(0.2, 1.0))

    def plain(label, grad_u, grad_x):
        c, gu, gx = rng.uniform(0.5, 1.0), np.array(grad_u), np.array(grad_x)
        return BarrierSpec(h=lambda x, u: c + gu.dot(u) + gx.dot(x), gamma=linear_rate(2.0),
                           grad_x=lambda x, u: gx, grad_u=lambda x, u: gu, label=label)

    barriers = (plain("a", (-1.0, -rng.uniform(0.2, 0.6)), (-0.1, 0.0)),
                plain("b", (rng.uniform(0.2, 0.6), -1.0), (0.0, -0.1)))
    obs = ObserverConfig(beta=1.0, L_d=ell.T, mu1=1.0, bounds=DisturbanceBounds(0.2, 0.2))
    return Scenario(model=model, law=_ConstantRate([1.0, 1.0]), obs_cfg=obs,
                    x0=np.zeros(2), u0=np.zeros(2),
                    domain=DomainBox((-10.0, -10.0), (10.0, 10.0), (-10.0, -10.0), (10.0, 10.0)),
                    barriers=barriers)


def test_a_scenario_the_float_kernel_cannot_run_is_refused_where_it_is_made():
    # fast_loop is checked when the scenario is made, so an m = 2 plant does
    # not get as far as a run (for a potential other than q = L_d x, see
    # test_float_kernel_needs_the_default_potential)
    with pytest.raises(ConfigurationError, match=r"^fast_loop .* needs m = p = 1$"):
        dataclasses.replace(_two_input_scenario(20231021), fast_loop=True)


def test_two_input_loop_solves_each_step_as_the_active_set_oracle():
    # the vector kernel with m = 2: every logged v* is the least-norm point of
    # that row's own constraints, and on some rows both constraints hold with
    # equality, so the loop runs solve_multi's two-constraint subset
    sc = _two_input_scenario(20231021)
    log = run_closed_loop(sc, SimConfig(dt=1e-2, t_end=2.0))
    assert log.halt_reason == "completed"
    col = log.header.index
    both_tight = 0
    for row in log.rows:
        x, u, phi = row[1:3], row[3:5], row[col("phi0"):col("phi0") + 2]
        v = row[col("vstar0"):col("vstar0") + 2]
        constraints, _, _ = build_constraints(
            sc.model, sc.barriers, sc.chain, phi, x, u, row[col("dhat0"):col("dhat0") + 1],
            error_envelope(sc.obs_cfg, float(row[0])))
        P = np.array([c.p_row for c in constraints])
        r = np.array([c.rhs for c in constraints])
        v_exact, v_as = exact_oracle(P, r), active_set_oracle(P, r)
        assert np.linalg.norm(v - v_exact) <= 1e-9 * np.linalg.norm(v_exact), (row[0], v, v_exact)
        assert np.linalg.norm(v - v_as) <= 1e-9 * np.linalg.norm(v_as), (row[0], v, v_as)
        both_tight += all(
            abs(row[col(f"slack_{c.label}")])
            <= 1e-9 * max(1.0, abs(c.rhs), float(np.linalg.norm(c.p_row) * np.linalg.norm(v)))
            for c in constraints)
    assert both_tight > 0


def _two_channel_scenario(seed: int, state_gain: bool) -> Scenario:
    """n = p = 2, m = 1 and ell = I: a seeded sinusoid on each axis inside
    (k0, k1), E0 = k0, and one plain barrier whose x-gradient meets both
    channels, so its margin is the 2-norm over p = 2. The gain is L_d =
    diag(1, 2), or with state_gain the state map diag(1, 1.5 + 0.5 sin x2)
    of q(x) = (x1, 1.5 x2 - 0.5 cos x2); either way sym(L_d ell) >= I with
    distinct eigenvalues."""
    rng = SplitMix64(seed)
    amp, omega, phase = ([rng.uniform(lo, hi) for _ in range(2)]
                         for lo, hi in ((0.2, 0.5), (0.5, 2.0), (0.0, 2.0 * math.pi)))

    def d_true(t):
        return np.array([a * math.sin(w * t + ph) for a, w, ph in zip(amp, omega, phase)])

    k0, k1 = math.hypot(*amp), math.hypot(amp[0] * omega[0], amp[1] * omega[1])
    eye = np.eye(2)
    model = SystemModel(n=2, m=1, p=2, F=lambda x, u: np.array([u[0] - x[0], 0.5 * u[0] - x[1]]),
                        ell=lambda x: eye, d_true=d_true)
    gx, gu = np.array([-1.0, -0.5]), np.array([-0.5])
    barrier = BarrierSpec(h=lambda x, u: 3.0 + gx.dot(x) + gu.dot(u), gamma=linear_rate(1.0),
                          grad_x=lambda x, u: gx, grad_u=lambda x, u: gu, label="h")
    if state_gain:
        gain = dict(L_d=lambda x: np.diag([1.0, 1.5 + 0.5 * math.sin(x[1])]),
                    q_fn=lambda x: np.array([x[0], 1.5 * x[1] - 0.5 * math.cos(x[1])]))
    else:
        gain = dict(L_d=np.diag([1.0, 2.0]))
    obs = ObserverConfig(beta=2.0, mu1=1.0, bounds=DisturbanceBounds(k0, k1),
                         **gain)
    return Scenario(model=model, law=_ConstantRate([1.0]), obs_cfg=obs,
                    x0=np.array([0.5, -0.5]), u0=np.zeros(1),
                    domain=DomainBox((-10.0, -10.0), (10.0, 10.0), (-10.0,), (10.0,)),
                    barriers=(barrier,))


@pytest.mark.parametrize("state_gain", [False, True], ids=["constant-gain", "state-gain"])
def test_two_channel_loop_keeps_its_envelope_and_replays(state_gain):
    # the vector kernel with p = 2: the observer stays inside its envelope
    # (criterion 5's tolerance), the filter acts with a nonzero margin, and
    # every logged row is what its own values assemble and solve to
    sc = _two_channel_scenario(20231022, state_gain)
    cfg = SimConfig(dt=1e-2, t_end=10.0)
    log = run_closed_loop(sc, cfg)
    assert log.halt_reason == "completed"
    assert summarize(log)["envelope_violation_max"] <= 1e-6
    assert np.all(column(log, "c_margin") > 0.0) and np.any(column(log, "vstar0") < 0.0)
    assert replay(sc, cfg, log).tobytes() == np.asarray(log.rows).tobytes()


@pytest.mark.parametrize("name", ["acc", "bicycle", "example1", "two-channel"])
def test_a_run_starts_from_a_zero_estimate(name):
    # Scenario.start sets r(0) = -beta q(x0), so each kernel logs d_hat(0) = 0
    if name == "two-channel":
        scenario = _two_channel_scenario(20231022, state_gain=True)
    else:
        scenario = build_scenario(name)
    p = scenario.model.p
    for fast in {scenario.fast_loop, False}:
        log = run_closed_loop(dataclasses.replace(scenario, fast_loop=fast),
                              SimConfig(dt=1e-3, t_end=1e-3))
        first = log.rows[0]
        assert [first[log.header.index(f"dhat{i}")] for i in range(p)] == [0.0] * p, fast


@pytest.mark.parametrize("mode", ["off", "icbf", "do_icbf", "high_order"])
def test_a_scenario_with_no_constraint_runs_unfiltered(mode):
    # nothing to enforce: both kernels complete with v* = 0 at every step
    scenario = dataclasses.replace(build_example1(), barriers=())
    for fast_loop in (True, False):
        log = run_closed_loop(dataclasses.replace(scenario, fast_loop=fast_loop),
                              SimConfig(dt=1e-3, t_end=0.1, filter_mode=mode))
        assert log.halt_reason == "completed", (fast_loop, log.halt_message)
        assert np.all(column(log, "vstar0") == 0.0)


def test_truncation_on_infeasibility():
    sc = build_example1(x0=(3.9,))
    log = run_closed_loop(sc, SimConfig(dt=1e-3, t_end=1.0, filter_mode="do_icbf"))
    assert log.halt_reason == "infeasible"
    assert log.rows[-1][log.header.index("infeasible")] == 1.0
    assert column(log, "t")[-1] < 1.0
    metrics = summarize(log)
    assert metrics["halt_reason"] == "infeasible"


def test_log_is_packed_float64(bicycle_scenario):
    # one 8-byte double per logged value, and at most one chunk of them in
    # memory: whatever the horizon, a run retains no more than a chunk plus a
    # fixed 64 KiB (a 2 s bicycle run has 2001 rows of 128 B, 256 KB, nearly
    # twice that), and holds no more than two chunks at its peak (the buffer
    # and the bytes written from it); the rest is in the spool, 8 B per value
    chunk = simulate.LOG_CHUNK_BYTES
    run_closed_loop(bicycle_scenario, SimConfig(dt=1e-3, t_end=0.01, filter_mode="high_order"))
    for t_end in (2.0, 8.0):
        cfg = SimConfig(dt=1e-3, t_end=t_end, filter_mode="high_order")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = run_closed_loop(bicycle_scenario, cfg)
            gc.collect()
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        rows, columns = len(log.rows), len(log.header)
        assert rows == round(t_end * 1000) + 1
        assert retained <= chunk + 64 * 1024, t_end
        assert peak <= 2 * chunk + 64 * 1024, t_end
        assert os.fstat(log.spool.fileno()).st_size == 8 * columns * rows
        assert log.rows.shape == (rows, columns) and log.rows.dtype == np.float64
        assert not log.rows.flags.writeable


def _spool_runs(monkeypatch, tmp_path, scenario, cfg, chunks):
    """(halt, rows bytes, CSV bytes) of the run of scenario under cfg with a
    chunk of each given number of rows, None for the default chunk."""
    width = len(simulate.TrajectoryLog(scenario, cfg).header)
    default = simulate.LOG_CHUNK_BYTES
    out = []
    for rows in chunks:
        monkeypatch.setattr(simulate, "LOG_CHUNK_BYTES", default if rows is None
                            else 8 * width * rows)
        log = run_closed_loop(scenario, cfg)
        if rows is not None and len(log.rows) > rows:
            assert log.spool is not None
        log.write_csv(tmp_path / "log.csv")
        out.append((log.halt_reason, np.asarray(log.rows).tobytes(),
                    (tmp_path / "log.csv").read_bytes()))
    return out


@pytest.mark.parametrize("fast", [True, False], ids=["float", "vector"])
@pytest.mark.parametrize("mode", ["off", "icbf", "do_icbf", "high_order"])
@pytest.mark.parametrize("name", ["acc", "bicycle"])
def test_spooled_log_matches_the_default_chunk(monkeypatch, tmp_path, name, mode, fast):
    # a chunk of 3 rows spools all but the last row or two; its rows and its
    # CSV, read back from the spool, are the bytes of the default chunk's
    # (whose rows tests/test_golden.py pins)
    scenario = dataclasses.replace(build_scenario(name), fast_loop=fast)
    cfg = SimConfig(dt=1e-3, t_end=2.0, filter_mode=mode)
    default, spooled = _spool_runs(monkeypatch, tmp_path, scenario, cfg, (None, 3))
    assert default[0] == "completed"
    assert len(default[1]) == 8 * 2001 * len(simulate.TrajectoryLog(scenario, cfg).header)
    assert spooled == default


@pytest.mark.parametrize("name,overrides,cfg,halt", [
    ("acc", {}, SimConfig(dt=2.0, t_end=2000.0, filter_mode="off"), "blowup"),
    ("example1", {"x0": (3.9,)}, SimConfig(dt=1e-3, t_end=1.0), "infeasible"),
    ("bicycle", {"accel": -0.1}, SimConfig(dt=1e-3, t_end=8.0, log_stride=10), "error"),
], ids=["blowup", "infeasible", "error"])
def test_spooled_log_of_a_halted_run(monkeypatch, tmp_path, name, overrides, cfg, halt):
    # a blowup or error halt appends its last row after the loop: with chunks
    # of 1, 2 and 3 rows it lands just after a flush or fills a chunk in one
    # of them; each gives the bytes of the default chunk
    default, *spooled = _spool_runs(monkeypatch, tmp_path, build_scenario(name, **overrides),
                                    cfg, (None, 1, 2, 3))
    assert default[0] == halt
    assert all(run == default for run in spooled)


def test_closing_a_log_keeps_its_rows(example1_scenario):
    log = run_closed_loop(example1_scenario, SimConfig(dt=1e-2, t_end=0.5))
    last = np.array(log.rows[-1])
    log.close()
    log.close()  # a second close does nothing
    assert log.spool.closed
    assert len(log.rows) == 51 and np.array_equal(log.rows[-1], last)


@pytest.fixture
def spools(monkeypatch):
    """The spools that runs make during the test, one entry each."""
    made = []
    make = simulate.tempfile.TemporaryFile

    def keep(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(simulate.tempfile, "TemporaryFile", keep)
    return made


def _fails_after_5_steps(error):
    """A law with rate 0 that raises error("rate fails") from t = 0.06 on."""
    class FailingLaw:
        def rate(self, t, x, u, dt):
            if t > 0.05:
                raise error("rate fails")
            return np.zeros(1)

    return FailingLaw()


def test_an_exception_that_does_not_halt_closes_the_spool(spools, example1_scenario):
    # a KeyboardInterrupt, which is not an Exception, and an OSError, which is
    # I/O as the spool's own write errors are, are not halts: each propagates,
    # and the run's spool is closed rather than left to the garbage collector
    for error in (KeyboardInterrupt, OSError):
        with pytest.raises(error, match="rate fails"):
            run_closed_loop(dataclasses.replace(example1_scenario,
                                                law=_fails_after_5_steps(error)),
                            SimConfig(dt=1e-2, t_end=1.0))
    assert len(spools) == 2 and all(spool.closed for spool in spools)


@pytest.mark.parametrize("error", [IndexError, KeyError, TypeError])
def test_any_exception_after_the_first_step_halts_alike_on_both_kernels(example1_scenario,
                                                                        error):
    # not only a ValueError or ArithmeticError: from t = 0.06 on the law
    # raises, and each kernel halts "error" there with the same partial log
    ends = []
    for fast in (True, False):
        sc = dataclasses.replace(example1_scenario, law=_fails_after_5_steps(error),
                                 fast_loop=fast)
        log = run_closed_loop(sc, SimConfig(dt=1e-2, t_end=1.0))
        assert log.halt_message == f"t=0.06: {error('rate fails')}"
        ends.append((log.halt_reason, summarize(log)["t_final"], len(log.rows)))
    assert ends[0] == ends[1] == ("error", 5 * 1e-2, 6)


@pytest.mark.parametrize("fast", [True, False], ids=["float", "vector"])
def test_a_run_that_fails_before_its_first_step_raises(spools, example1_scenario, fast):
    # with no step decided there is no row to halt on: the law's ValueError
    # propagates, as a ConfigurationError of the scenario would, and no run
    # returns an empty log
    class FailsAtStart:
        def rate(self, t, x, u, dt):
            raise ValueError("no rate at t = 0")

    sc = dataclasses.replace(example1_scenario, law=FailsAtStart(), fast_loop=fast)
    with pytest.raises(ValueError, match="^no rate at t = 0$"):
        run_closed_loop(sc, SimConfig(dt=1e-2, t_end=1.0))
    assert len(spools) == 1 and spools[0].closed


def test_a_model_that_raises_in_a_stage_halts_alike_on_both_kernels(example1_scenario):
    # xdot = exp(x) from x = 0 escapes at t = 1, where math.exp overflows in
    # an RK4 stage: each kernel halts "error" with the same message, time and
    # partial log, not "blowup" on one of them
    model = dataclasses.replace(example1_scenario.model, F=lambda x, u: (math.exp(x[0]),))
    ends = []
    for fast in (True, False):
        sc = dataclasses.replace(example1_scenario, model=model, fast_loop=fast)
        log = run_closed_loop(sc, SimConfig(dt=0.1, t_end=5.0, filter_mode="off"))
        ends.append((log.halt_reason, log.halt_message, summarize(log)["t_final"],
                     len(log.rows)))
    assert ends[0] == ends[1] == ("error", "t=1: math range error", 1.0, 11)


@pytest.mark.parametrize("barriers", [True, False], ids=["example1", "no-barrier"])
def test_a_law_that_returns_two_rates_halts_alike_on_both_kernels(example1_scenario, barriers):
    # m = 1: from t = 0.06 on the law returns two rates, which neither kernel
    # reads as one, with or without a barrier to assemble; each halts "error"
    # there with the same partial log, where the float kernel once took the
    # first rate and ran on, and the vector kernel without a barrier raised
    # struct.error when it packed the row
    class TwoRatesLate:
        def rate(self, t, x, u, dt):
            return np.zeros(2 if t > 0.05 else 1)

    scenario = example1_scenario if barriers else _static_scenario()
    ends = []
    for fast in (True, False):
        sc = dataclasses.replace(scenario, law=TwoRatesLate(), fast_loop=fast)
        log = run_closed_loop(sc, SimConfig(dt=1e-2, t_end=1.0))
        assert log.halt_message.startswith("t=0.06: ")
        ends.append((log.halt_reason, summarize(log)["t_final"], len(log.rows)))
    assert ends[0] == ends[1] == ("error", 5 * 1e-2, 6)


def test_blowup_truncates_with_reason(acc_scenario):
    # a wildly unstable step size overflows the closed loop
    log = run_closed_loop(acc_scenario, SimConfig(dt=2.0, t_end=2000.0,
                                                  filter_mode="off"))
    assert log.halt_reason == "blowup"
    assert len(log.rows) >= 1


def test_build_acc_checks_and_values(acc_scenario):
    # headway barrier at the published operating point
    h_x = acc_scenario.chain.levels[0]
    # substitution oracle: 50 - 1.8 * 13.89 (= 24.998, i.e. ~25)
    assert h_x.h(np.array([0.0, 13.89, 50.0]), np.zeros(1)) == pytest.approx(50.0 - 1.8 * 13.89, abs=1e-12)
    h_u = acc_scenario.barriers[0]
    mcg = 1650.0 * 0.3 * 9.81
    assert mcg == pytest.approx(4855.95)
    assert h_u.h(np.zeros(3), np.zeros(1)) == pytest.approx(4855.95 ** 2)
    # constructor rejects starts outside the safe set
    with pytest.raises(ConfigurationError):
        build_acc(x0=(0.0, 20.0, 20.0))
    # the predictive rate law divides by exp(-c1 T / m) - 1, so T = 0 would
    # fail at the first step
    with pytest.raises(ConfigurationError, match="horizon"):
        build_acc(horizon=0.0)
    # the chain's input gradient is -headway / mass
    with pytest.raises(ConfigurationError, match="mass must be > 0"):
        build_acc(mass=0.0)
    # exp(-c1 T / m) rounds to 1 for a tiny horizon or a huge mass
    for keyword in ({"horizon": 1e-300}, {"mass": 1e308}):
        with pytest.raises(ConfigurationError, match="rounds to 1"):
            build_acc(**keyword)


def test_build_bicycle_checks_and_values(bicycle_scenario):
    b0 = bicycle_scenario.chain.levels[0]
    x0 = bicycle_scenario.x0
    assert b0.h(x0, np.zeros(1)) == pytest.approx(324.0)
    # a zero wheelbase would divide by zero in F and the chain gradients
    for wheelbase in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigurationError, match="wheelbase must be > 0"):
            build_bicycle(wheelbase=wheelbase)
    # no steering, no turn
    f = bicycle_scenario.model.F(np.array([0.0, 0.0, 0.3, 0.5]), np.zeros(1))
    assert f[2] == 0.0
    assert bicycle_scenario.chain.m == 2


def test_filter_off_violates_headway(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=10.0,
                                                  filter_mode="off"))
    metrics = summarize(log, acc_scenario)
    assert metrics["barrier_min"]["h_x"] < 0.0
    assert metrics["unsafe"]


def test_summarize_fields_and_effort(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=2.0,
                                                  filter_mode="do_icbf"))
    metrics = summarize(log, acc_scenario)
    assert set(metrics) >= {"barrier_min", "envelope_violation_max",
                            "correction_effort", "halt_reason", "unsafe",
                            "left_domain_box", "tracking", "e_d0_true",
                            "e_d0_bound"}
    assert metrics["correction_effort"] > 0.0
    assert metrics["e_d0_true"] == pytest.approx(2.0)  # |0 - 2|
    assert metrics["e_d0_bound"] == pytest.approx(2.0)
    assert metrics["halt_reason"] == "completed"
    assert not metrics["unsafe"]


def test_unsafe_is_a_barrier_minimum_below_minus_1e_3(acc_scenario):
    # the safety verdict's threshold is -1e-3: a minimum of -5e-4 is not unsafe, -5e-3 is
    log = simulate.TrajectoryLog(acc_scenario, SimConfig())
    log.rows = np.zeros((1, len(log.header)))
    for low, unsafe in ((-5e-4, False), (-5e-3, True)):
        log.fold = {"barrier_min": {"h_x": 1.0, "h_e": low}}
        assert summarize(log)["unsafe"] is unsafe


def test_domain_box_exit_flag(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=30.0,
                                                  filter_mode="off"))
    # unfiltered run accelerates far past the speed box
    assert summarize(log)["left_domain_box"]
    safe = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=5.0,
                                                   filter_mode="do_icbf"))
    assert not summarize(safe)["left_domain_box"]


def test_comparison_lemma_harness():
    # scalar ODEs b' = -gamma b + s(t), s >= 0, b(0) >= 0 stay nonnegative
    rng = SplitMix64(101)
    for _ in range(50):
        gamma = rng.uniform(0.1, 4.0)
        b0 = rng.uniform(0.0, 3.0)
        amp = rng.uniform(0.0, 2.0)
        freq = rng.uniform(0.1, 5.0)
        phase = rng.uniform(0.0, 2 * math.pi)

        def rhs(t, z):
            s = amp * (1.0 + math.sin(freq * t + phase))  # nonnegative forcing
            return np.array([-gamma * z[0] + s])

        z = np.array([b0])
        dt = 1e-3
        worst = b0
        for k in range(2000):
            z = rk4_step(rhs, k * dt, z, dt)
            worst = min(worst, z[0])
        assert worst >= -1e-9


def test_sinusoid_disturbance_bounds():
    d = sinusoid_disturbance(1.5, 2.0, 0.3)
    ts = np.linspace(0.0, 20.0, 2000)
    vals = np.array([d(t)[0] for t in ts])
    assert np.abs(vals).max() <= 1.5 + 1e-12
    rates = np.diff(vals) / np.diff(ts)
    assert np.abs(rates).max() <= 1.5 * 2.0 + 1e-2
