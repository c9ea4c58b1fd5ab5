"""Nominal dynamic control laws udot = phi(x, u) that the safety filter corrects.

Two families: the cruise-control predictive law (Newton-Raphson tracking of a
linearized speed prediction) and the Stanley lateral law for path tracking,
differentiated numerically at the simulation step. Each law is one class whose
rate(t, x, u, dt) the closed-loop simulator calls.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ConfigurationError
from .model import Array


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


class PredictiveCruiseRate:
    """Speed-prediction rate law for the cruise benchmark.

    Holding u constant over a horizon T > 0 and linearizing the longitudinal
    dynamics (drop the quadratic drag term) gives a closed-form predicted
    speed; the rate law drives that prediction to the target at gain alpha:
    udot = alpha c1 (exp(-c1 T / m) - 1)^{-1} * predicted output.
    """

    def __init__(self, *, T: float, alpha: float, c0: float, c1: float, mass: float,
                 v_d: float):
        if not (T > 0.0 and c1 > 0.0 and mass > 0.0):
            raise ConfigurationError(f"need T > 0, c1 > 0, mass > 0; got T={T}, c1={c1}, "
                                     f"mass={mass}")
        self.c0, self.c1, self.mass, self.v_d = c0, c1, mass, v_d
        self._decay = math.exp(-c1 * T / mass)
        if self._decay == 1.0:  # the gain would divide by zero
            raise ConfigurationError(f"exp(-c1 T / mass) rounds to 1, so the gain is "
                                     f"undefined; got T={T}, c1={c1}, mass={mass}")
        self._gain = alpha * c1 / (self._decay - 1.0)

    def predicted_output(self, x2: float, u: float) -> float:
        """Predicted speed offset after the horizon, linearized dynamics held at u."""
        a = self.c0 - u + self.mass * self.v_d
        return -(a - self.c1 * self._decay * (x2 + a / self.c1)) / self.c1

    def rate(self, t: float, x, u, dt: float):
        return (self._gain * self.predicted_output(float(x[1]), float(u[0])),)


class StanleyRateLaw:
    """Rate of the clamped Stanley cross-track command along a straight line.

    The reference is the infinite line through `point` at `heading`. The
    command is clamped to +-max_steer: the kinematic model's tan(delta) needs
    |delta| < pi/2, and large transient commands (e.g. a start pointing away
    from the path) would otherwise cross it. The rate is the wrap-aware
    difference between the command and the *current* steering state over one
    step. When the steering tracks the command exactly this is the command's
    backward difference; when a safety correction has pushed the steering off
    the command it pulls back instead of drifting (differencing the command
    against its own history would freeze at the clamp and never unwind
    accumulated corrections).
    """

    def __init__(self, *, k: float, point: Sequence[float], heading: float,
                 max_steer: float = 1.0):
        if k <= 0.0:
            raise ConfigurationError(f"cross-track gain must be > 0, got {k}")
        if not 0.0 < max_steer < math.pi / 2:
            raise ConfigurationError(f"max_steer must be in (0, pi/2), got {max_steer}")
        self.k = k
        self.point = (float(point[0]), float(point[1]))
        self.heading = float(heading)
        self.max_steer = max_steer
        self._tx = math.cos(self.heading)
        self._ty = math.sin(self.heading)

    def cross_track(self, x: float, y: float) -> float:
        """Signed distance to the line, positive right of the travel direction."""
        return (x - self.point[0]) * self._ty - (y - self.point[1]) * self._tx

    def steer(self, pose: Sequence[float], v: float) -> float:
        """Steering command: path-relative tangent heading plus arctan(k e / v).

        The line's heading is expressed in the world frame; the command uses
        it relative to the vehicle heading (the form every working cross-track
        controller uses). Result wrapped to (-pi, pi].
        """
        if v <= 0.0:
            raise ConfigurationError(f"speed must be > 0, got {v}")
        x, y, psi = float(pose[0]), float(pose[1]), float(pose[2])
        e = self.cross_track(x, y)
        return wrap_angle(wrap_angle(self.heading - psi) + math.atan(self.k * e / v))

    def command(self, x: Array) -> float:
        delta = self.steer((x[0], x[1], x[2]), float(x[3]))
        return max(-self.max_steer, min(self.max_steer, delta))

    def rate(self, t: float, x, u, dt: float):
        return (wrap_angle(self.command(x) - float(u[0])) / dt,)


class ZeroRate:
    """No nominal action (udot = 0); used by validity-check-only scenarios."""

    def rate(self, t: float, x, u, dt: float):
        return (0.0,) * len(u)
