import math

import numpy as np
import pytest

from do_icbf import (ACCPredictiveLaw, ContractViolationError, LinePath,
                     SplitMix64, StanleyLaw, acc_predicted_output, acc_rate,
                     stanley_rate, stanley_steer, wrap_angle)

TABLE = dict(alpha=10.0, c0=0.1, c1=5.0, mass=1650.0, v_d=24.0)


def test_acc_prediction_degenerates_to_current_speed_at_zero_horizon():
    law = ACCPredictiveLaw(T=0.0, **TABLE)
    for x2 in (0.0, 10.0, 13.89, 24.0):
        for u in (-1000.0, 0.0, 2500.0):
            assert acc_predicted_output(law, x2, u) == pytest.approx(x2, abs=1e-9)


def test_acc_prediction_constant_input_special_case():
    # u = c0 + m v_d zeroes the forcing term: prediction decays from x2
    law = ACCPredictiveLaw(T=1.0, **TABLE)
    u = TABLE["c0"] + TABLE["mass"] * TABLE["v_d"]
    decay = math.exp(-TABLE["c1"] * 1.0 / TABLE["mass"])
    for x2 in (5.0, 13.89, 20.0):
        assert acc_predicted_output(law, x2, u) == pytest.approx(decay * x2, rel=1e-12)


def test_acc_prediction_direct_substitution():
    law = ACCPredictiveLaw(T=1.0, **TABLE)
    x2, u = 13.89, 0.0
    a = TABLE["c0"] - u + TABLE["mass"] * TABLE["v_d"]
    decay = math.exp(-TABLE["c1"] / TABLE["mass"])
    expected = -(a - TABLE["c1"] * decay * (x2 + a / TABLE["c1"])) / TABLE["c1"]
    assert acc_predicted_output(law, x2, u) == pytest.approx(expected, rel=1e-15)


def test_acc_prediction_monotone_in_speed_and_input():
    law = ACCPredictiveLaw(T=2.0, **TABLE)
    speeds = np.linspace(0.0, 30.0, 40)
    preds = [acc_predicted_output(law, s, 100.0) for s in speeds]
    assert all(b > a for a, b in zip(preds, preds[1:]))
    inputs = np.linspace(-4000.0, 4000.0, 40)
    preds = [acc_predicted_output(law, 15.0, u) for u in inputs]
    assert all(b > a for a, b in zip(preds, preds[1:]))


def test_acc_rate_zero_prediction_and_sign():
    law = ACCPredictiveLaw(T=1.0, **TABLE)
    u_for_zero = None
    # find u with prediction 0 by the affine structure: solve directly
    # y_hat is affine in u, so bisect a bracket
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if acc_predicted_output(law, 20.0, mid) > 0:
            hi = mid
        else:
            lo = mid
    u_for_zero = 0.5 * (lo + hi)
    assert acc_rate(law, 20.0, u_for_zero) == pytest.approx(0.0, abs=1e-4)
    # positive prediction -> negative rate (the gain factor is negative)
    assert acc_rate(law, 20.0, u_for_zero + 1000.0) < 0.0
    assert acc_rate(law, 20.0, u_for_zero - 1000.0) > 0.0


def test_acc_rate_rejects_zero_horizon():
    law = ACCPredictiveLaw(T=0.0, **TABLE)
    with pytest.raises(ContractViolationError):
        acc_rate(law, 10.0, 0.0)


def test_acc_rate_table_substitution():
    law = ACCPredictiveLaw(T=1.0, **TABLE)
    gain = TABLE["alpha"] * TABLE["c1"] / (math.exp(-TABLE["c1"] / TABLE["mass"]) - 1.0)
    expected = gain * acc_predicted_output(law, 20.0, 0.0)
    assert acc_rate(law, 20.0, 0.0) == pytest.approx(expected, rel=1e-15)


def test_stanley_steer_on_path_aligned():
    law = StanleyLaw(k=1.0, path=LinePath(point=(0.0, 0.0), heading=0.0))
    assert stanley_steer(law, (5.0, 0.0, 0.0), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_stanley_steer_large_error_limit():
    law = StanleyLaw(k=1.0, path=LinePath(point=(0.0, 0.0), heading=0.0))
    # vehicle far to the right of the path: correction approaches +pi/2
    delta = stanley_steer(law, (0.0, -1e9, 0.0), 1.0)
    assert delta == pytest.approx(math.pi / 2, abs=1e-6)


def test_stanley_steer_quarter_turn_example():
    # k e / v = 1 * 0.5 / 0.5 -> arctan(1) = pi/4 (path tangent 0, heading 0)
    law = StanleyLaw(k=1.0, path=LinePath(point=(0.0, 0.0), heading=0.0))
    delta = stanley_steer(law, (0.0, -0.5, 0.0), 0.5)
    assert delta == pytest.approx(math.pi / 4, rel=1e-12)


def test_stanley_steer_requires_positive_speed():
    law = StanleyLaw(k=1.0, path=LinePath(point=(0.0, 0.0), heading=0.0))
    with pytest.raises(ContractViolationError):
        stanley_steer(law, (0.0, 0.0, 0.0), 0.0)


def test_stanley_steer_output_range():
    rng = SplitMix64(21)
    law = StanleyLaw(k=2.0, path=LinePath(point=(1.0, -2.0), heading=2.2))
    for _ in range(500):
        pose = (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-10, 10))
        v = rng.uniform(0.05, 3.0)
        delta = stanley_steer(law, pose, v)
        assert -math.pi < delta <= math.pi


def test_stanley_rate_zero_and_wrap():
    assert stanley_rate(0.3, 0.3, 0.1) == 0.0
    # wrap-aware: pi - 0.01 -> -pi + 0.01 is a +0.02 step, not -6.26
    rate = stanley_rate(math.pi - 0.01, -math.pi + 0.01, 0.1)
    assert rate == pytest.approx(0.2, rel=1e-9)
    with pytest.raises(ContractViolationError):
        stanley_rate(0.0, 0.1, 0.0)


def test_stanley_rate_telescopes_around_a_lap():
    # wrap-aware increments reconstruct the unwrapped total change even when
    # the raw angle sequence crosses the +-pi seam
    rng = SplitMix64(8)
    dt = 0.05
    true_angle = 2.9
    angles = [true_angle]
    for _ in range(400):
        true_angle += rng.uniform(-0.05, 0.08)
        angles.append(true_angle)
    wrapped = [wrap_angle(a) for a in angles]
    total = sum(stanley_rate(a, b, dt) * dt for a, b in zip(wrapped, wrapped[1:]))
    assert total == pytest.approx(angles[-1] - angles[0], abs=1e-9)


def test_stanley_rate_decays_on_straight_tracking():
    # drive the kinematic bicycle along a straight path: the command's rate
    # against the current steering goes to zero as tracking settles
    law = StanleyLaw(k=1.0, path=LinePath(point=(0.0, 0.0), heading=0.0))
    dt = 1e-2
    x, y, psi, v = 0.0, 1.5, 0.3, 1.0
    delta = 0.0
    rates = []
    for _ in range(4000):
        cmd = max(-1.0, min(1.0, stanley_steer(law, (x, y, psi), v)))
        rate = stanley_rate(delta, cmd, dt)
        rates.append(abs(rate))
        delta = cmd
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
