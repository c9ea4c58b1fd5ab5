import math

import numpy as np
import pytest

from do_icbf import (ConfigurationError, PredictiveCruiseRate, SplitMix64,
                     StanleyRateLaw)
from do_icbf.control_laws import wrap_angle

TABLE = dict(alpha=10.0, c0=0.1, c1=5.0, mass=1650.0, v_d=24.0)


def _acc_rate(law, x2, u):
    """The rate law's udot at speed x2 and input u (it reads only these)."""
    return law.rate(0.0, (0.0, x2, 0.0), (u,), 1e-3)[0]


def _line(k=1.0, point=(0.0, 0.0), heading=0.0):
    return StanleyRateLaw(k=k, point=point, heading=heading)


def test_acc_prediction_degenerates_to_current_speed_at_zero_horizon():
    # T = 0 is no horizon for the rate law, whose gain divides by
    # exp(-c1 T / m) - 1; as T shrinks the prediction tends to the speed
    law = PredictiveCruiseRate(T=1e-12, **TABLE)
    for x2 in (0.0, 10.0, 13.89, 24.0):
        for u in (-1000.0, 0.0, 2500.0):
            assert law.predicted_output(x2, u) == pytest.approx(x2, abs=1e-9)


def test_acc_prediction_constant_input_special_case():
    # u = c0 + m v_d zeroes the forcing term: prediction decays from x2
    law = PredictiveCruiseRate(T=1.0, **TABLE)
    u = TABLE["c0"] + TABLE["mass"] * TABLE["v_d"]
    decay = math.exp(-TABLE["c1"] * 1.0 / TABLE["mass"])
    for x2 in (5.0, 13.89, 20.0):
        assert law.predicted_output(x2, u) == pytest.approx(decay * x2, rel=1e-12)


def test_acc_prediction_direct_substitution():
    law = PredictiveCruiseRate(T=1.0, **TABLE)
    x2, u = 13.89, 0.0
    a = TABLE["c0"] - u + TABLE["mass"] * TABLE["v_d"]
    decay = math.exp(-TABLE["c1"] / TABLE["mass"])
    expected = -(a - TABLE["c1"] * decay * (x2 + a / TABLE["c1"])) / TABLE["c1"]
    assert law.predicted_output(x2, u) == pytest.approx(expected, rel=1e-15)


def test_acc_prediction_monotone_in_speed_and_input():
    law = PredictiveCruiseRate(T=2.0, **TABLE)
    speeds = np.linspace(0.0, 30.0, 40)
    preds = [law.predicted_output(s, 100.0) for s in speeds]
    assert all(b > a for a, b in zip(preds, preds[1:]))
    inputs = np.linspace(-4000.0, 4000.0, 40)
    preds = [law.predicted_output(15.0, u) for u in inputs]
    assert all(b > a for a, b in zip(preds, preds[1:]))


def test_acc_rate_zero_prediction_and_sign():
    law = PredictiveCruiseRate(T=1.0, **TABLE)
    # y_hat is affine in u, so bisect a bracket for the u with prediction 0
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if law.predicted_output(20.0, mid) > 0:
            hi = mid
        else:
            lo = mid
    u_for_zero = 0.5 * (lo + hi)
    assert _acc_rate(law, 20.0, u_for_zero) == pytest.approx(0.0, abs=1e-4)
    # positive prediction -> negative rate (the gain factor is negative)
    assert _acc_rate(law, 20.0, u_for_zero + 1000.0) < 0.0
    assert _acc_rate(law, 20.0, u_for_zero - 1000.0) > 0.0


def test_acc_rate_rejects_zero_horizon():
    for T in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="T > 0"):
            PredictiveCruiseRate(T=T, **TABLE)


def test_acc_rate_table_substitution():
    law = PredictiveCruiseRate(T=1.0, **TABLE)
    gain = TABLE["alpha"] * TABLE["c1"] / (math.exp(-TABLE["c1"] / TABLE["mass"]) - 1.0)
    expected = gain * law.predicted_output(20.0, 0.0)
    assert _acc_rate(law, 20.0, 0.0) == pytest.approx(expected, rel=1e-15)


def test_stanley_steer_on_path_aligned():
    assert _line().steer((5.0, 0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_stanley_steer_large_error_limit():
    # vehicle far to the right of the path: correction approaches +pi/2
    delta = _line().steer((0.0, -1e9, 0.0), 1.0)
    assert delta == pytest.approx(math.pi / 2, abs=1e-6)


def test_stanley_steer_quarter_turn_example():
    # k e / v = 1 * 0.5 / 0.5 -> arctan(1) = pi/4 (path tangent 0, heading 0)
    delta = _line().steer((0.0, -0.5, 0.0), 0.5)
    assert delta == pytest.approx(math.pi / 4, rel=1e-12)


def test_stanley_steer_requires_positive_speed():
    with pytest.raises(ConfigurationError):
        _line().steer((0.0, 0.0, 0.0), 0.0)


def test_stanley_steer_output_range():
    rng = SplitMix64(21)
    law = _line(k=2.0, point=(1.0, -2.0), heading=2.2)
    for _ in range(500):
        pose = (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-10, 10))
        v = rng.uniform(0.05, 3.0)
        delta = law.steer(pose, v)
        assert -math.pi < delta <= math.pi


def test_stanley_rate_zero_and_wrap():
    # on the line, heading 0.5 below the path: the command is 0.5
    law = _line(heading=0.5)
    x = (3.0 * math.cos(0.5), 3.0 * math.sin(0.5), 0.0, 1.0)
    cmd = law.command(x)
    assert cmd == pytest.approx(0.5, rel=1e-12)
    assert law.rate(0.0, x, (cmd,), 0.1) == (0.0,)
    # wrap-aware: a steering state a full turn past cmd - 0.02 is a +0.02
    # step, not -6.26
    (rate,) = law.rate(0.0, x, (cmd - 0.02 + math.tau,), 0.1)
    assert rate == pytest.approx(0.2, rel=1e-9)


def test_stanley_rate_telescopes_around_a_lap():
    # a steering state stored in [0, 2 pi), whose seam sits at 0, still
    # gives wrap-aware increments that reconstruct the command's total change
    rng = SplitMix64(8)
    law = _line()
    dt = 0.05
    commands = [0.05]
    for _ in range(400):
        commands.append(min(0.9, max(-0.9, commands[-1] + rng.uniform(-0.05, 0.05))))
    # on the line with heading -c, the command is c
    poses = [(0.0, 0.0, -c, 1.0) for c in commands]
    states = [law.command(p) % math.tau for p in poses]
    assert min(states) < 0.5 and max(states) > math.tau - 0.5  # crosses the seam
    total = sum(law.rate(0.0, p, (s,), dt)[0] * dt for p, s in zip(poses[1:], states))
    assert total == pytest.approx(law.command(poses[-1]) - law.command(poses[0]), abs=1e-9)


def test_stanley_rate_decays_on_straight_tracking():
    # drive the kinematic bicycle along a straight path: the command's rate
    # against the current steering goes to zero as tracking settles
    law = _line()
    dt = 1e-2
    x, y, psi, v = 0.0, 1.5, 0.3, 1.0
    delta = 0.0
    rates = []
    for _ in range(4000):
        (rate,) = law.rate(0.0, (x, y, psi, v), (delta,), dt)
        rates.append(abs(rate))
        delta = law.command((x, y, psi, v))
        x += v * math.cos(psi) * dt
        y += v * math.sin(psi) * dt
        psi += v * math.tan(delta) * dt
    assert np.mean(rates[-100:]) < 1e-6
    assert abs(y) < 1e-3  # actually converged onto the path


def test_wrap_angle_range_and_identity():
    rng = SplitMix64(13)
    for _ in range(1000):
        a = rng.uniform(-50.0, 50.0)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
