import dataclasses

import numpy as np
import pytest

from do_icbf import ConfigurationError, DisturbanceBounds, SplitMix64, SystemModel, linear_rate

from oracles import finite_diff_gradient


def _xdot(model, x, u, d):
    """F(x,u) + ell(x) d straight from the model's callables."""
    x, u, d = (np.asarray(v, dtype=float) for v in (x, u, d))
    return np.asarray(model.F(x, u), dtype=float) + np.asarray(model.ell(x), dtype=float) @ d


def test_acc_dynamics_direct_substitution(acc_scenario):
    # oracle: substitute the published constants by hand
    c0, c1, c2, mass, v0 = 0.1, 5.0, 0.25, 1650.0, 13.89
    x2 = 10.0
    fr = c0 + c1 * x2 + c2 * x2 * x2
    assert fr == 75.1
    out = _xdot(acc_scenario.model, (0.0, 10.0, 50.0), (0.0,), (0.0,))
    expected = np.array([10.0, -75.1 / 1650.0, 3.89])
    assert np.allclose(out, expected, rtol=0, atol=1e-12)
    # disturbance enters through the second row only
    out_d = _xdot(acc_scenario.model, (0.0, 10.0, 50.0), (0.0,), (2.0,))
    assert out_d[1] == pytest.approx(expected[1] + 2.0, abs=1e-12)
    assert out_d[0] == out[0] and out_d[2] == out[2]


def test_bicycle_dynamics_at_origin_heading_east(bicycle_scenario):
    out = _xdot(bicycle_scenario.model, (0.0, 0.0, 0.0, 0.5), (0.0,), (0.0,))
    assert np.allclose(out, [0.5, 0.0, 0.0, 0.0], atol=1e-15)


def test_eval_dynamics_is_deterministic(acc_scenario, bicycle_scenario):
    for model, x, u, d in [
        (acc_scenario.model, (3.0, 17.2, 41.0), (250.0,), (1.3,)),
        (bicycle_scenario.model, (2.0, -1.0, 0.7, 0.5), (0.2,), (0.0,)),
    ]:
        a = _xdot(model, x, u, d)
        b = _xdot(model, x, u, d)
        assert np.array_equal(a, b)


def test_finite_diff_constant_and_linear():
    assert np.array_equal(finite_diff_gradient(lambda v: 7.0, (1.0, 2.0), 1e-3),
                          np.zeros(2))
    a = np.array([2.0, -3.0, 0.5])
    grad = finite_diff_gradient(lambda v: float(a @ v), (0.3, 0.1, -2.0), 0.25)
    assert np.allclose(grad, a, rtol=1e-12, atol=1e-12)


def test_finite_diff_norm_squared():
    grad = finite_diff_gradient(lambda v: float(v @ v), (1.0, 2.0), 1e-5)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-8)


def test_finite_diff_exact_on_quadratics():
    rng = SplitMix64(2024)
    for _ in range(50):
        k = rng.integer(1, 4)
        A = np.array([[rng.uniform(-2, 2) for _ in range(k)] for _ in range(k)])
        b = np.array([rng.uniform(-2, 2) for _ in range(k)])
        c = rng.uniform(-2, 2)
        point = np.array([rng.uniform(-3, 3) for _ in range(k)])

        def f(v):
            return float(v @ A @ v + b @ v + c)

        analytic = (A + A.T) @ point + b
        grad = finite_diff_gradient(f, point, 1e-5)
        denom = max(1.0, float(np.linalg.norm(analytic)))
        assert np.linalg.norm(grad - analytic) / denom <= 1e-7


def test_finite_diff_rejects_bad_step_and_nan():
    with pytest.raises(ConfigurationError):
        finite_diff_gradient(lambda v: 0.0, (1.0,), 0.0)
    with pytest.raises(ArithmeticError):
        finite_diff_gradient(lambda v: float("nan"), (1.0,), 1e-5)


def test_class_k_linear_zero_at_zero_and_increasing():
    fn = linear_rate(2.5)
    assert fn(0.0) == 0.0
    grid = np.linspace(-3.0, 3.0, 121)
    vals = [fn(s) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_class_k_linear_is_exact():
    fn = linear_rate(3.0)
    for s in (-2.0, -0.5, 0.0, 0.25, 10.0):
        assert fn(s) == 3.0 * s
    with pytest.raises(ConfigurationError):
        linear_rate(0.0)
    with pytest.raises(ConfigurationError):
        linear_rate(-1.0)


def test_disturbance_bounds_validation():
    DisturbanceBounds(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        DisturbanceBounds(-1.0, 0.0)
    with pytest.raises(ConfigurationError):
        DisturbanceBounds(1.0, -2.0)



def test_a_replaced_model_derives_its_zero_default_from_its_own_p():
    # the zero d_true is derived from p in every copy; a given signal is kept
    model = SystemModel(n=1, m=1, p=1, F=lambda x, u: (0.0,), ell=lambda x: np.zeros((1, 1)))
    wide = dataclasses.replace(model, p=2, ell=lambda x: np.zeros((1, 2)))
    assert np.array_equal(model.d_true(0.0), np.zeros(1))
    assert np.array_equal(wide.d_true(3.0), np.zeros(2))
    signal = lambda t: np.array([t])
    given = dataclasses.replace(model, d_true=signal)
    assert dataclasses.replace(given, p=2).d_true is signal
