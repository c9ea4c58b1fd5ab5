"""Benchmark scenarios: adaptive cruise control, bicycle obstacle avoidance,
and the one-state validity-checker example.

Cruise control (state x = position, speed, gap to lead vehicle):

    x1dot = x2
    x2dot = -(c0 + c1 x2 + c2 x2^2)/m + u/m + d
    x3dot = v0 - x2

The lead drives at v0, the nominal law pushes the speed toward v_d > v0, and
a constant unknown disturbance d accelerates the car. Safety is the
two-second-style headway rule h_x = x3 - 1.8 x2 >= 0 plus the wheel-force
bound h_u = (m c g)^2 - u^2 >= 0. h_x has no input gradient, so it enters as
a degree-1 chain: the filter constrains

    h_e = d/dt h_x (along F + ell d_hat) + gamma(h_x) - margin

whose input gradient is the constant -1.8/m. The force barrier joins as a
second, plain constraint.

Bicycle (state x = x, y, heading psi, speed v; input u = steering delta):

    xdot = v cos psi, ydot = v sin psi, psidot = v tan(delta)/L, vdot = a

A Stanley law tracks a straight reference line that cuts through a unit-disk
obstacle at the origin (offset slightly from dead center so the avoidance
side is well defined). The obstacle barrier b0 = x^2 + y^2 - 1 reaches the
steering input only after two derivatives, giving the 2-level chain b0, b1,
b2 with b1 = 2 v (x cos psi + y sin psi) + gamma1(b0).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .barriers import BarrierChain, BarrierSpec, DomainBox
from .control_laws import PredictiveCruiseRate, StanleyRateLaw, ZeroRate
from .errors import ConfigurationError
from .model import DisturbanceBounds, SystemModel, _as_vector, linear_rate
from .observer import ObserverConfig, check_gain_condition
from .simulate import Scenario


def constant_disturbance(value: float):
    """d(t) = value; bounds k0 = |value|, k1 = 0."""
    d = np.array([float(value)])
    return lambda t: d


def sinusoid_disturbance(amplitude: float, omega: float, phase: float = 0.0):
    """d(t) = amplitude * sin(omega t + phase); bounds k0 = |A|, k1 = |A w|."""
    def d_true(t: float):
        return np.array([amplitude * math.sin(omega * t + phase)])
    return d_true


def build_acc(*,
              mass: float = 1650.0,
              g: float = 9.81,
              c0: float = 0.1,
              c1: float = 5.0,
              c2: float = 0.25,
              v0: float = 13.89,
              v_d: float = 24.0,
              alpha: float = 10.0,
              gamma: float = 1.0,
              c_accel: float = 0.3,
              beta: float = 1.0,
              mu1: float = 1.0,
              horizon: float = 1.0,
              headway: float = 1.8,
              x0=(0.0, 10.0, 25.0),
              u0=(0.0,),
              d_true=None,
              bounds: Optional[DisturbanceBounds] = None) -> Scenario:
    """Cruise-control benchmark with its published parameter set.

    The default disturbance is the constant 2 m/s (so k1 = 0); pass a
    different d_true plus matching bounds for stress variants. The observer
    gain is the identity projected onto the disturbance channel (L_d = ell^T,
    q = x2), the only shape that typechecks for a scalar disturbance. The
    prediction horizon and the initial state are not part of the published
    set; defaults are T = 1 s and x0 = (0, 10, 25). Keep the initial headway
    slack moderate: a much larger gap lets the speed overshoot into a region
    where the braking the headway chain then demands exceeds the wheel-force
    bound (the +2 m/s^2 disturbance already consumes most of it), and the
    filter correctly halts infeasible.
    """
    if horizon <= 0.0:  # the rate law's gain divides by exp(-c1 T / m) - 1
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    if not mass > 0.0:  # the dynamics and the chain's input gradient divide by it
        raise ConfigurationError(f"mass must be > 0, got {mass}")
    if d_true is None:
        d_true = constant_disturbance(2.0)
        bounds = bounds or DisturbanceBounds(k0=2.0, k1=0.0)
    elif bounds is None:
        raise ConfigurationError("custom d_true requires explicit DisturbanceBounds")

    ell_mat = np.array([[0.0], [1.0], [0.0]])

    def F(x, u):
        x2 = x[1]
        fr = c0 + c1 * x2 + c2 * x2 * x2
        return (x2, (u[0] - fr) / mass, v0 - x2)

    def ell(x):
        return ell_mat

    model = SystemModel(n=3, m=1, p=1, F=F, ell=ell, d_true=d_true)

    # Headway barrier h_x = x3 - headway*x2; its degree-1 chain level h_e is
    # the recurrence, given by its gradients alone.
    hx_grad = (0.0, -headway, 1.0)
    zero_u = (0.0,)
    zero_x = (0.0, 0.0, 0.0)

    level0 = BarrierSpec(h=lambda x, u: x[2] - headway * x[1],
                         gamma=linear_rate(gamma),
                         grad_x=lambda x, u: hx_grad, grad_u=lambda x, u: zero_u, label="h_x")

    he_grad_u = (-headway / mass,)

    def h_e_grad_x(x, u):
        x2 = x[1]
        return (0.0, headway * (c1 + 2.0 * c2 * x2) / mass - 1.0 - headway * gamma,
                gamma)

    level1 = BarrierSpec(h=None, gamma=linear_rate(gamma), grad_x=h_e_grad_x,
                         grad_u=lambda x, u: he_grad_u, label="h_e")
    chain = BarrierChain(levels=(level0, level1))

    # Wheel-force barrier h_u = (m c g)^2 - u^2.
    force_limit = mass * c_accel * g

    def h_u(x, u):
        return force_limit * force_limit - u[0] * u[0]

    h_u_spec = BarrierSpec(h=h_u, gamma=linear_rate(gamma),
                           grad_x=lambda x, u: zero_x,
                           grad_u=lambda x, u: (-2.0 * u[0],),
                           label="h_u")

    x0 = _as_vector(x0, 3, "initial_x")
    u0 = _as_vector(u0, 1, "initial_u")
    obs_cfg = ObserverConfig(beta=beta, L_d=ell_mat.T.copy(), mu1=mu1, bounds=bounds)
    check_gain_condition(obs_cfg, model,
                         [x0, np.array([10.0, v0, 30.0]), np.array([50.0, v_d, 60.0])])

    law = PredictiveCruiseRate(T=horizon, alpha=alpha, c0=c0, c1=c1, mass=mass, v_d=v_d)
    domain = DomainBox(x_low=(-10.0, 0.0, 0.0), x_high=(2000.0, 40.0, 200.0),
                       u_low=(-force_limit,), u_high=(force_limit,))
    check_box = DomainBox(x_low=(0.0, 0.0, 0.0), x_high=(100.0, 30.0, 80.0),
                          u_low=(-force_limit,), u_high=(force_limit,))

    return Scenario(
        model=model,
        law=law,
        obs_cfg=obs_cfg,
        x0=x0,
        u0=u0,
        domain=domain,
        barriers=(h_u_spec,),
        chain=chain,
        designated_mode="do_icbf",
        baseline_mode="icbf",
        default_t_end=50.0,
        tracking_name="final_speed",
        tracking_fn=lambda log: float(log.rows[-1][log.header.index("x1")]),
        check_box=check_box,
        check_resolution=[3, 7, 7, 7],
        fast_loop=True,
    )


def build_bicycle(*,
                  wheelbase: float = 1.0,
                  speed: float = 0.5,
                  accel: float = 0.0,
                  stanley_gain: float = 1.0,
                  max_steer: float = 1.0,
                  gamma1: float = 0.2,
                  gamma2: float = 1.0,
                  obstacle_radius: float = 1.0,
                  path_offset: float = 0.5,
                  x0=(15.0, 10.0, math.pi / 2, 0.5)) -> Scenario:
    """Bicycle obstacle-avoidance benchmark with a 2-level chain.

    The wheelbase is not part of the published setup; 1.0 m is the default
    and any positive value preserves the experiment. The reference path is
    the straight line from the start toward the origin, shifted sideways by
    path_offset so it crosses the obstacle disk off-center.
    Each level carries its own rate: gamma1 builds b1 from b0, gamma2 builds
    b2 from b1, and the top constraint b2dot + gamma2(b2) >= 0 takes b2's
    rate, set to gamma2 as well.
    """
    L = wheelbase
    x0 = _as_vector(x0, 4, "initial_x")
    if not wheelbase > 0.0:  # also rejects NaN
        raise ConfigurationError(f"wheelbase must be > 0, got {wheelbase}")
    if speed <= 0.0:
        raise ConfigurationError(f"speed must be > 0, got {speed}")

    def F(x, u):
        psi = x[2]
        v = x[3]
        return (v * math.cos(psi), v * math.sin(psi),
                v * math.tan(u[0]) / L, accel)

    ell_mat = np.zeros((4, 1))

    def ell(x):
        return ell_mat

    model = SystemModel(n=4, m=1, p=1, F=F, ell=ell)

    r2 = obstacle_radius * obstacle_radius
    zero_u = (0.0,)

    def b0_grad_x(x, u):
        return (2.0 * x[0], 2.0 * x[1], 0.0, 0.0)

    # b1 and b2 are the chain recurrence, given by their gradients alone.
    def b1_grad_x(x, u):
        c, s = math.cos(x[2]), math.sin(x[2])
        v = x[3]
        return (2.0 * v * c + 2.0 * gamma1 * x[0],
                2.0 * v * s + 2.0 * gamma1 * x[1],
                2.0 * v * (x[1] * c - x[0] * s),
                2.0 * (x[0] * c + x[1] * s))

    def b2_grad_x(x, u):
        c, s = math.cos(x[2]), math.sin(x[2])
        v = x[3]
        tan_d = math.tan(u[0])
        radial = x[0] * c + x[1] * s
        cross = x[1] * c - x[0] * s
        k = 2.0 * v * v * tan_d / L
        v2 = 2.0 * v
        # b1_grad_x from the same c, s, radial and cross (the same operations)
        g1 = (v2 * c + 2.0 * gamma1 * x[0], v2 * s + 2.0 * gamma1 * x[1],
              v2 * cross, 2.0 * radial)
        return (
            2.0 * gamma1 * v * c - k * s + 2.0 * accel * c + gamma2 * g1[0],
            2.0 * gamma1 * v * s + k * c + 2.0 * accel * s + gamma2 * g1[1],
            2.0 * gamma1 * v * cross - k * radial + 2.0 * accel * cross + gamma2 * g1[2],
            4.0 * v + 2.0 * gamma1 * radial + (4.0 * v * tan_d / L) * cross + gamma2 * g1[3],
        )

    def b2_grad_u(x, u):
        c, s = math.cos(x[2]), math.sin(x[2])
        v = x[3]
        cross = x[1] * c - x[0] * s
        sec = 1.0 / math.cos(u[0])
        return ((2.0 * v * v / L) * sec * sec * cross,)

    chain = BarrierChain(
        levels=(
            BarrierSpec(h=lambda x, u: x[0] * x[0] + x[1] * x[1] - r2, gamma=linear_rate(gamma1),
                        grad_x=b0_grad_x, grad_u=lambda x, u: zero_u, label="b0"),
            BarrierSpec(h=None, gamma=linear_rate(gamma2), grad_x=b1_grad_x,
                        grad_u=lambda x, u: zero_u, label="b1"),
            BarrierSpec(h=None, gamma=linear_rate(gamma2), grad_x=b2_grad_x,
                        grad_u=b2_grad_u, label="b2"),
        ),
    )

    to_origin = -x0[:2] / np.linalg.norm(x0[:2])
    heading = math.atan2(to_origin[1], to_origin[0])
    left_normal = np.array([-to_origin[1], to_origin[0]])
    law = StanleyRateLaw(k=stanley_gain, point=path_offset * left_normal, heading=heading,
                         max_steer=max_steer)
    u0 = np.array([law.command(x0)])

    obs_cfg = ObserverConfig(beta=1.0, L_d=np.zeros((1, 4)), mu1=1.0,
                             bounds=DisturbanceBounds(0.0, 0.0))

    domain = DomainBox(x_low=(-25.0, -25.0, -7.0, 0.0),
                       x_high=(25.0, 25.0, 7.0, 1.5),
                       u_low=(-1.45,), u_high=(1.45,))
    check_box = DomainBox(x_low=(-20.0, -20.0, -math.pi, 0.1),
                          x_high=(20.0, 20.0, math.pi, 1.0),
                          u_low=(-0.8,), u_high=(0.8,))

    def final_cross_track(log):
        last, col = log.rows[-1], log.header.index
        return law.cross_track(float(last[col("x0")]), float(last[col("x1")]))

    return Scenario(
        model=model,
        law=law,
        obs_cfg=obs_cfg,
        x0=x0,
        u0=u0,
        domain=domain,
        chain=chain,
        designated_mode="high_order",
        baseline_mode="off",
        default_t_end=60.0,
        tracking_name="final_cross_track",
        tracking_fn=final_cross_track,
        check_box=check_box,
        check_resolution=[7, 7, 7, 4, 7],
        fast_loop=True,
    )


def build_example1(*, x0=(0.0,), u0=(0.0,)) -> Scenario:
    """One-state example whose joint barriers are not a valid filter pair.

    Plant xdot = x - u^2 with state constraint x <= 4 and input constraint
    |u| <= 1. Wherever the input gradients vanish (u = 0) the state barrier
    needs xdot <= gamma(4 - x), which fails at x = 4: the checker must flag
    it. Runnable too (zero nominal law), mainly to exercise the
    infeasibility halt.
    """

    def F(x, u):
        return (x[0] - u[0] * u[0],)

    ell_mat = np.zeros((1, 1))
    model = SystemModel(n=1, m=1, p=1, F=F, ell=lambda x: ell_mat)

    gam = linear_rate(1.0)
    h_x = BarrierSpec(h=lambda x, u: 4.0 - x[0], gamma=gam,
                      grad_x=lambda x, u: (-1.0,),
                      grad_u=lambda x, u: (0.0,), label="h_x")
    h_u = BarrierSpec(h=lambda x, u: 1.0 - u[0] * u[0], gamma=gam,
                      grad_x=lambda x, u: (0.0,),
                      grad_u=lambda x, u: (-2.0 * u[0],), label="h_u")

    obs_cfg = ObserverConfig(beta=1.0, L_d=np.zeros((1, 1)), mu1=1.0,
                             bounds=DisturbanceBounds(0.0, 0.0))
    domain = DomainBox(x_low=(-10.0,), x_high=(10.0,), u_low=(-2.0,), u_high=(2.0,))
    check_box = DomainBox(x_low=(0.0,), x_high=(4.0,), u_low=(-1.0,), u_high=(1.0,))

    return Scenario(
        model=model,
        law=ZeroRate(),
        obs_cfg=obs_cfg,
        x0=_as_vector(x0, 1, "initial_x"),
        u0=_as_vector(u0, 1, "initial_u"),
        domain=domain,
        barriers=(h_x, h_u),
        designated_mode="do_icbf",
        baseline_mode="off",
        default_t_end=5.0,
        tracking_name="final_state",
        tracking_fn=lambda log: float(log.rows[-1][log.header.index("x0")]),
        check_box=check_box,
        check_resolution=[9, 9],
        fast_loop=True,
    )


BUILDERS = {
    "acc": build_acc,
    "bicycle": build_bicycle,
    "example1": build_example1,
}


def build_scenario(name: str, **overrides) -> Scenario:
    if name not in BUILDERS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {sorted(BUILDERS)}"
        )
    return BUILDERS[name](**overrides)
