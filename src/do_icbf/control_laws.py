"""Nominal dynamic control laws udot = phi(x, u) that the safety filter corrects.

Two families: the cruise-control predictive law (Newton-Raphson tracking of a
linearized speed prediction) and the Stanley lateral law for path tracking,
differentiated numerically at the simulation step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError
from .model import Array


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


# ---------------------------------------------------------------------------
# Cruise-control predictive law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ACCPredictiveLaw:
    """Speed-prediction law for the cruise benchmark.

    Holding u constant over a horizon T and linearizing the longitudinal
    dynamics (drop the quadratic drag term) gives a closed-form predicted
    speed; the rate law drives that prediction to the target at gain alpha.
    T = 0 is accepted for the prediction itself (it degenerates to the current
    speed) but not for the rate law, whose gain divides by exp(-c1 T / m) - 1.
    """

    T: float
    alpha: float
    c0: float
    c1: float
    mass: float
    v_d: float

    def __post_init__(self):
        if self.T < 0.0 or self.c1 <= 0.0 or self.mass <= 0.0:
            raise ContractViolationError(
                f"need T >= 0, c1 > 0, mass > 0; got T={self.T}, c1={self.c1}, mass={self.mass}"
            )
        object.__setattr__(self, "_decay", math.exp(-self.c1 * self.T / self.mass))


def acc_predicted_output(law: ACCPredictiveLaw, x2: float, u: float) -> float:
    """Predicted speed offset after the horizon, linearized dynamics held at u."""
    a = law.c0 - u + law.mass * law.v_d
    return -(a - law.c1 * law._decay * (x2 + a / law.c1)) / law.c1


def acc_rate(law: ACCPredictiveLaw, x2: float, u: float) -> float:
    """udot = alpha c1 (exp(-c1 T / m) - 1)^{-1} * predicted output; needs T > 0."""
    if law.T <= 0.0:
        raise ContractViolationError("acc_rate needs T > 0 (the gain divides by exp(-c1 T/m) - 1)")
    return law.alpha * law.c1 / (law._decay - 1.0) * acc_predicted_output(law, x2, u)


# ---------------------------------------------------------------------------
# Stanley lateral law
# ---------------------------------------------------------------------------

class LinePath:
    """Infinite straight reference line through `point` at `heading`.

    query(x, y) returns (e, theta): the signed cross-track distance (positive
    when the vehicle is to the right of the travel direction) and the path
    tangent heading.
    """

    def __init__(self, point: Sequence[float], heading: float):
        self.point = np.asarray(point, dtype=float)
        self.heading = float(heading)
        self._tx = math.cos(self.heading)
        self._ty = math.sin(self.heading)

    def query(self, x: float, y: float) -> tuple:
        dx = x - self.point[0]
        dy = y - self.point[1]
        e = dx * self._ty - dy * self._tx
        return e, self.heading


@dataclass(frozen=True)
class StanleyLaw:
    """Cross-track steering law: align with the path and pull the error to zero."""

    k: float
    path: LinePath

    def __post_init__(self):
        if self.k <= 0.0:
            raise ContractViolationError(f"cross-track gain must be > 0, got {self.k}")


def stanley_steer(law: StanleyLaw, pose: Sequence[float], v: float) -> float:
    """Steering command: path-relative tangent heading plus arctan(k e / v).

    The tangent heading returned by the path query is expressed in the world
    frame; the command uses it relative to the vehicle heading (the form every
    working cross-track controller uses). Result wrapped to (-pi, pi].
    """
    if v <= 0.0:
        raise ContractViolationError(f"speed must be > 0, got {v}")
    x, y, psi = float(pose[0]), float(pose[1]), float(pose[2])
    e, theta = law.path.query(x, y)
    return wrap_angle(wrap_angle(theta - psi) + math.atan(law.k * e / v))


def stanley_rate(prev_delta: float, new_delta: float, dt: float) -> float:
    """Backward-difference steering rate with wrap-aware angle difference."""
    if dt <= 0.0:
        raise ContractViolationError(f"dt must be > 0, got {dt}")
    return wrap_angle(new_delta - prev_delta) / dt


# ---------------------------------------------------------------------------
# Rate-law adapters used by the closed-loop simulator
# ---------------------------------------------------------------------------

class PredictiveCruiseRate:
    """Simulator adapter: phi(t, x, u) from the cruise predictive law."""

    def __init__(self, law: ACCPredictiveLaw):
        self.law = law

    def rate(self, t: float, x, u, dt: float):
        return (acc_rate(self.law, float(x[1]), float(u[0])),)


class StanleyRateLaw:
    """Simulator adapter: phi = rate of the (clamped) Stanley command.

    The command is clamped to +-max_steer: the kinematic model's tan(delta)
    needs |delta| < pi/2, and large transient commands (e.g. a start pointing
    away from the path) would otherwise cross it. The rate is the wrap-aware
    difference between the command and the *current* steering state over one
    step. When the steering tracks the command exactly this is the command's
    backward difference; when a safety correction has pushed the steering off
    the command it pulls back instead of drifting (differencing the command
    against its own history would freeze at the clamp and never unwind
    accumulated corrections).
    """

    def __init__(self, law: StanleyLaw, max_steer: float = 1.0):
        if not 0.0 < max_steer < math.pi / 2:
            raise ContractViolationError(f"max_steer must be in (0, pi/2), got {max_steer}")
        self.law = law
        self.max_steer = max_steer

    def command(self, x: Array) -> float:
        delta = stanley_steer(self.law, (x[0], x[1], x[2]), float(x[3]))
        return max(-self.max_steer, min(self.max_steer, delta))

    def rate(self, t: float, x, u, dt: float):
        return (stanley_rate(float(u[0]), self.command(x), dt),)


class ZeroRate:
    """No nominal action (udot = 0); used by validity-check-only scenarios."""

    def rate(self, t: float, x, u, dt: float):
        return (0.0,) * len(u)
