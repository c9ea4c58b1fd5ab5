import copy
import dataclasses
import logging
import math

import numpy as np
import pytest

from do_icbf import (BarrierChain, BarrierSpec, ConfigurationError,
                     DisturbanceBounds, ObserverConfig, SimConfig, SplitMix64,
                     SystemModel, build_acc, build_bicycle, build_constraints,
                     check_gain_condition, error_envelope, linear_rate, run_closed_loop,
                     filter as qp, simulate, sinusoid_disturbance)

from oracles import augmented_rhs, column, disturbance_estimate, finite_diff_gradient, rk4

BOUNDS = DisturbanceBounds(k0=2.0, k1=0.0)


def make_cfg(beta=1.0, mu1=1.0, bounds=BOUNDS, L_d=None):
    if L_d is None:
        L_d = np.array([[0.0, 1.0, 0.0]])
    return ObserverConfig(beta=beta, L_d=L_d, mu1=mu1, bounds=bounds)


def _logged_estimate(scenario, cfg, x, r):
    """The d_hat that the vector kernel's decide returns at t = 0 for the
    state z = (x, u0, r) under observer cfg."""
    sc = dataclasses.replace(scenario, obs_cfg=cfg)
    _, decide, _ = simulate._vector_kernel(sc, copy.deepcopy(sc.law),
                                           SimConfig(dt=1e-3, t_end=1e-3, filter_mode="off"))
    return decide(0.0, np.concatenate((x, sc.u0, r)), 0.0)[3][0]


def test_estimate_identity_potential(acc_scenario):
    cfg = ObserverConfig(beta=1.0, L_d=np.array([[1.0, 0.0, 0.0]]), mu1=1.0, bounds=BOUNDS)
    x = np.array([3.0, -1.0, 5.0])
    assert _logged_estimate(acc_scenario, cfg, x, np.zeros(1)) == pytest.approx(3.0)


def test_estimate_cancellation(acc_scenario):
    d_hat = _logged_estimate(acc_scenario, make_cfg(), np.array([0.0, 2.0, 0.0]),
                             np.array([-2.0]))
    assert d_hat == pytest.approx(0.0, abs=1e-15)


def test_estimate_acc_at_start(acc_scenario):
    # with r = 0 the estimate is beta * q(x0) = x2(0)
    cfg = acc_scenario.obs_cfg
    x0 = acc_scenario.x0
    assert _logged_estimate(acc_scenario, cfg, x0, np.zeros(1)) == pytest.approx(cfg.beta * x0[1])
    # a run starts the internal state at -beta q(x0) instead
    d_hat0 = _logged_estimate(acc_scenario, cfg, x0, acc_scenario.start()[-1:])
    assert d_hat0 == 0.0


def test_observer_rhs_kernel_case():
    # the augmented-rhs oracle: F = -ell d_hat for d_hat = 1.5 leaves r at rest
    model = SystemModel(n=3, m=1, p=1, F=lambda x, u: (0.0, -1.5, 0.0),
                        ell=lambda x: np.array([[0.0], [1.0], [0.0]]))
    cfg0 = ObserverConfig(beta=1.0, L_d=np.array([[0.0, 1.0, 0.0]]), mu1=1.0, bounds=BOUNDS)
    out = augmented_rhs(model, cfg0, [0.0])(0.0, np.array([0.0, 0.0, 0.0, 0.0, 1.5]))
    assert np.allclose(out[4:], 0.0, atol=1e-15)


def test_observer_rejects_bad_gains():
    with pytest.raises(ConfigurationError):
        make_cfg(beta=0.0)
    with pytest.raises(ConfigurationError):
        make_cfg(mu1=0.0)
    with pytest.raises(ConfigurationError):
        make_cfg(beta=1.0, mu1=2.0)  # mu1 must be < 2 beta


def test_observer_rhs_acc_substitution(acc_scenario):
    # the augmented-rhs oracle: -beta L_d (F + ell d_hat) with d_hat = r + beta x2 at r = 0
    model = acc_scenario.model
    cfg = acc_scenario.obs_cfg
    x = np.array([0.0, 10.0, 50.0])
    u = np.zeros(1)
    assert disturbance_estimate(cfg, np.zeros(1), x) == pytest.approx(10.0)
    expected = -(float(model.F(x, u)[1]) + 10.0)  # row 2 of F plus the channel
    out = augmented_rhs(model, cfg, [0.0])(0.0, np.concatenate([x, u, np.zeros(1)]))
    assert out[4:].shape == (1,)
    assert out[4] == pytest.approx(expected, rel=1e-15)
    assert out[4] == pytest.approx(75.1 / 1650.0 - 10.0, rel=1e-12)


def _state_gain(x):
    return 1.5 + 0.5 * math.sin(x[1])


@pytest.mark.parametrize("name", ["acc", "bicycle", "acc-state-gain"])
def test_vector_kernel_step_matches_augmented_rhs_oracle(name):
    # one filter-off step of the vector kernel against an RK4 step of the oracle;
    # acc runs under a sinusoid, so d_true differs at every RK4 stage
    if name.startswith("acc"):
        scenario = build_acc(d_true=sinusoid_disturbance(1.5, 2.0, 0.3),
                             bounds=DisturbanceBounds(1.5, 3.0))
    else:
        scenario = build_bicycle()
    state_gain = {}
    if name == "acc-state-gain":
        # ell(x) = (0, g(x1), 0)^T and a state-map gain L_d = ell^T = dq/dx,
        # so each RK4 stage reads both at its own state
        state_gain = dict(
            model=dataclasses.replace(
                scenario.model, ell=lambda x: np.array([[0.0], [_state_gain(x)], [0.0]])),
            obs_cfg=dataclasses.replace(
                scenario.obs_cfg, L_d=lambda x: np.array([[0.0, _state_gain(x), 0.0]]),
                q_fn=lambda x: np.array([1.5 * x[1] - 0.5 * math.cos(x[1])])))
    scenario = dataclasses.replace(scenario, fast_loop=False, **state_gain)
    model, cfg = scenario.model, scenario.obs_cfg
    n, m = model.n, model.m
    dt = 1e-2
    log = run_closed_loop(scenario, SimConfig(dt=dt, t_end=dt, filter_mode="off"))
    col = log.header.index
    first, second = log.rows
    z0 = scenario.start()
    z1 = rk4(augmented_rhs(model, cfg, [first[col("phi0")]]), 0.0, z0, dt)
    for row, z in ((first, z0), (second, z1)):
        logged = [row[col(f"x{i}")] for i in range(n)] + [row[col(f"u{i}")] for i in range(m)]
        np.testing.assert_allclose(logged, z[:n + m], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(row[col("dhat0")],
                                   disturbance_estimate(cfg, z[n + m:], z[:n]),
                                   rtol=1e-12, atol=0.0)


def test_envelope_at_zero_and_infinity():
    cfg = make_cfg(bounds=DisturbanceBounds(2.0, 0.4))
    assert error_envelope(cfg, 0.0) == pytest.approx(2.0, abs=1e-15)
    lam = cfg.lam
    asymptote = 0.4 / math.sqrt(2.0 * cfg.mu1 * lam)
    assert error_envelope(cfg, 100.0 / lam) == pytest.approx(asymptote, abs=1e-9)
    with pytest.raises(ConfigurationError):
        error_envelope(cfg, -0.1)


def test_envelope_pure_decay_when_k1_zero():
    cfg = make_cfg(bounds=DisturbanceBounds(3.0, 0.0))
    lam = cfg.lam
    for t in np.linspace(0.0, 20.0, 10):
        assert error_envelope(cfg, t) == pytest.approx(3.0 * math.exp(-lam * t), rel=1e-12)


def test_envelope_monotone_both_directions():
    grid = np.linspace(0.0, 30.0, 400)
    # E0 above the asymptote: nonincreasing
    hi = make_cfg(bounds=DisturbanceBounds(5.0, 0.5))
    vals = [error_envelope(hi, t) for t in grid]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # E0 below the asymptote: nondecreasing
    lo = make_cfg(bounds=DisturbanceBounds(0.1, 3.0))
    vals = [error_envelope(lo, t) for t in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def _margin(cfg, grad, model, x, t):
    """The robustness margin build_constraints puts on a barrier with this x-gradient."""
    spec = BarrierSpec(h=lambda x, u: 1.0, gamma=linear_rate(1.0),
                       grad_x=lambda x, u: grad, grad_u=lambda x, u: (0.0,))
    (c,), _, margin_max = build_constraints(model, (spec,), None, np.zeros(1), x,
                                            np.zeros(1), np.zeros(model.p),
                                            error_envelope(cfg, t))
    assert margin_max == c.margin
    return c.margin


def test_margin_orthogonal_channel_is_zero(acc_scenario):
    cfg = acc_scenario.obs_cfg
    grad = np.array([1.0, 0.0, 7.0])  # no component along ell = (0,1,0)
    assert _margin(cfg, grad, acc_scenario.model, np.zeros(3), 1.0) == 0.0


def test_margin_acc_row_matches_generic_path(acc_scenario):
    # for ell = (0,1,0)^T the margin factor is |d h_e / d x2|
    cfg = acc_scenario.obs_cfg
    model = acc_scenario.model
    h_e = acc_scenario.chain.levels[1]
    x = np.array([12.0, 16.0, 40.0])
    u = np.array([100.0])
    gx = np.asarray(h_e.grad_x(x, u), dtype=float)
    t = 0.7
    by_hand = abs(gx[1]) * error_envelope(cfg, t)
    assert _margin(cfg, gx, model, x, t) == pytest.approx(by_hand, rel=1e-14)


def test_margin_zero_for_perfect_constant_estimate():
    cfg = make_cfg(bounds=DisturbanceBounds(0.0, 0.0))
    assert error_envelope(cfg, 0.0) == 0.0
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (0.0,),
                        ell=lambda x: np.ones((1, 1)))
    assert _margin(cfg, np.ones(1), model, np.zeros(1), 0.0) == 0.0


def test_zero_envelope_margin_is_zero_for_an_infinite_gradient():
    # margin = 0.0 at E = 0, never norm * 0.0, which is NaN for an infinite
    # norm: in the check's fold of terms whose norms were computed, and in
    # build_constraints; once E > 0 the margin is the norm times E
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (1.0,), ell=lambda x: np.ones((1, 1)))
    lower = BarrierSpec(h=lambda x, u: 1.0, gamma=linear_rate(1.0),
                        grad_x=lambda x, u: (math.inf,), grad_u=lambda x, u: (0.0,), label="b0")
    top = dataclasses.replace(lower, grad_x=lambda x, u: (1.0,), grad_u=lambda x, u: (1.0,),
                              label="b1")
    args = (model, (lower,), BarrierChain(levels=(lower, top)), np.zeros(1), np.zeros(1),
            np.zeros(1), np.zeros(1))
    terms = qp.constraint_terms(*args)
    rows, values, margin_max = qp.fold_terms(terms, 0.0)
    assert [row[2] for row in rows] == [0.0, 0.0] and margin_max == 0.0
    assert values == {"b0": 1.0, "b1": math.inf}  # inf drift + gamma(1) - 0.0
    rows, values, margin_max = qp.fold_terms(terms, 0.5)
    assert [row[2] for row in rows] == [math.inf, math.inf] and margin_max == math.inf
    assert math.isnan(values["b1"])  # inf - inf
    constraints, _, margin_max = build_constraints(*args, 0.0)
    assert [c.margin for c in constraints] == [0.0, 0.0] and margin_max == 0.0


def test_margin_is_the_two_norm_of_the_channel():
    # dh/dx ell = (3, 4) over p = 2 channels: the margin is ||(3, 4)|| E = 5 E,
    # not the 7 E of the magnitudes summed
    cfg = make_cfg()
    model = SystemModel(n=2, m=1, p=2, F=lambda x, u: (0.0, 0.0), ell=lambda x: np.eye(2))
    margin = _margin(cfg, np.array([3.0, 4.0]), model, np.zeros(2), 0.5)
    assert margin == pytest.approx(5.0 * error_envelope(cfg, 0.5), rel=1e-15)


def test_margin_nonnegative_random():
    rng = SplitMix64(99)
    cfg = make_cfg(bounds=DisturbanceBounds(1.0, 0.3))
    model = SystemModel(n=3, m=1, p=1, F=lambda x, u: (0.0, 0.0, 0.0),
                        ell=lambda x: np.array([[0.0], [1.0], [0.0]]))
    for _ in range(200):
        grad = np.array([rng.uniform(-5, 5) for _ in range(3)])
        t = rng.uniform(0.0, 20.0)
        assert _margin(cfg, grad, model, np.zeros(3), t) >= 0.0


def test_q_fn_jacobian_matches_gain(acc_scenario, bicycle_scenario):
    for scenario in (acc_scenario, bicycle_scenario):
        cfg = scenario.obs_cfg
        n = scenario.model.n
        for x in (np.zeros(n), np.linspace(1.0, n, n)):
            gain = cfg.gain_at(x)
            for row in range(gain.shape[0]):
                jac = finite_diff_gradient(lambda v, r=row: float(cfg.q(v)[r]), x, 1e-5)
                assert np.allclose(jac, gain[row], atol=1e-5)


def test_gain_condition_check_warns_on_failure(caplog, acc_scenario):
    model = acc_scenario.model
    good = acc_scenario.obs_cfg
    samples = [np.array([0.0, 10.0, 25.0]), np.array([5.0, 20.0, 40.0])]
    with caplog.at_level(logging.WARNING):
        margin = check_gain_condition(good, model, samples)
    assert margin >= -1e-9
    assert not caplog.records
    bad = ObserverConfig(beta=1.0, L_d=np.array([[0.0, 0.1, 0.0]]), mu1=1.0, bounds=BOUNDS)
    with caplog.at_level(logging.WARNING):
        margin = check_gain_condition(bad, model, samples)
    assert margin < 0.0
    assert any("gain condition" in r.message for r in caplog.records)


def test_gain_condition_is_the_smallest_eigenvalue_less_one():
    # L_d ell = [[0.5, 1], [-1, 3]]: its skew part drops out of sym(L_d ell),
    # whose eigenvalues are 0.5 and 3, so the condition fails by 0.5 (the
    # largest eigenvalue would pass it by 2)
    model = SystemModel(n=2, m=1, p=2, F=lambda x, u: (0.0, 0.0), ell=lambda x: np.eye(2))
    cfg = make_cfg(L_d=np.array([[0.5, 1.0], [-1.0, 3.0]]))
    assert check_gain_condition(cfg, model, [np.zeros(2), np.ones(2)]) == -0.5


def test_a_state_map_gain_needs_its_potential():
    gain = lambda x: np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(ConfigurationError, match="q_fn is required"):
        make_cfg(L_d=gain)
    cfg = ObserverConfig(beta=1.0, L_d=gain, mu1=1.0, bounds=BOUNDS,
                         q_fn=lambda x: gain(x) @ x)
    assert np.array_equal(cfg.gain_at(np.zeros(3)), gain(None))


def test_a_constant_gain_takes_no_potential():
    # any potential of a constant L_d is L_d x plus a constant, which the
    # observer's start r(0) = -beta q(x0) cancels; so a given one is refused
    with pytest.raises(ConfigurationError, match="potential of a constant L_d is L_d x"):
        ObserverConfig(beta=1.0, L_d=np.array([[0.0, 1.0, 0.0]]), mu1=1.0, bounds=BOUNDS,
                       q_fn=lambda x: np.array([x[1] + 1.0]))


def test_envelope_sound_and_exponential_decay_along_acc(acc_scenario):
    log = run_closed_loop(acc_scenario, SimConfig(dt=1e-3, t_end=12.0,
                                                  filter_mode="do_icbf"))
    t = column(log, "t")
    err = np.abs(column(log, "dhat0") - column(log, "d0"))
    envelope = np.array([error_envelope(acc_scenario.obs_cfg, ti) for ti in t])
    assert float((err - envelope).max()) <= 1e-6
    # constant disturbance: ||e(t2)|| / ||e(t1)|| <= exp(-lam (t2 - t1)) + 1e-3
    lam = acc_scenario.obs_cfg.lam
    i1 = np.searchsorted(t, 1.0)
    i2 = np.searchsorted(t, 4.0)
    i3 = np.searchsorted(t, 9.0)
    for a, b in [(i1, i2), (i2, i3), (i1, i3)]:
        ratio = err[b] / err[a]
        assert ratio <= math.exp(-lam * (t[b] - t[a])) + 1e-3
