"""Independent oracles for the least-norm QP: interval arithmetic for scalar
problems, LP feasibility + grid refinement + projection polish for vector
problems, and a classical iterative active-set method. None of them share
code with the solver under test.

closed_form_single is the textbook solution of the one-constraint QP.

augmented_rhs writes out the closed loop's right-hand side, observer
included, for comparison against a step of the simulator's kernels.

reference_check_validity is the plain per-point grid scan of the validity
checker: every time and every point evaluated on its own, nothing shared.

column reads one named column of a TrajectoryLog from its rows.

level_values and gradient_error compare a scenario's analytic barrier
gradients with central differences of the values the filter evaluates."""

import itertools

import numpy as np
from scipy.optimize import linprog

from do_icbf import (BarrierChain, BarrierSpec, ConfigurationError,
                     ValidityReport, build_constraints, error_envelope,
                     finite_diff_gradient)
from do_icbf.barriers import EPS_P
from do_icbf.filter import _grid_axes

EPS = 1e-8


def column(log, name):
    """The values of one header column over every logged row."""
    i = log.header.index(name)
    return np.array([row[i] for row in log.rows])


def level_values(scenario):
    """(spec, value) for each plain barrier and chain level of a scenario,
    where value(x, u) is what the filter evaluates at phi = 0, d_hat = 0 and
    E = 0: h for a plain barrier and for level 0, and above level 0 the
    chain recurrence as build_constraints assembles it."""
    model = scenario.model
    chain = scenario.chain

    def recurrence(label):
        return lambda x, u: build_constraints(model, (), chain, np.zeros(model.m), x, u,
                                              np.zeros(model.p), 0.0)[1][label]

    pairs = [(spec, spec.h) for spec in scenario.barriers]
    if chain is not None:
        pairs += [(chain.levels[0], chain.levels[0].h)]
        pairs += [(lv, recurrence(lv.label)) for lv in chain.levels[1:]]
    return pairs


def gradient_error(spec, value, x, u, step=1e-5, rtol=1e-4):
    """The larger of the errors of spec's analytic grad_x and grad_u at
    (x, u) against central differences of value, each relative to the
    analytic gradient's own norm, so that an error of rtol reads rtol
    however small the gradient is.

    The norm is floored where the central difference is rounding noise:
    with f = value(x, u), each difference quotient carries a rounding error
    of up to about eps |f| / step, so a gradient whose norm is below
    eps max(1, |f|) / (step rtol) could not be told apart from that noise
    within rtol."""
    floor = np.finfo(float).eps * max(1.0, abs(float(value(x, u)))) / (step * rtol)
    worst = 0.0
    for analytic, numeric in (
            (spec.grad_x(x, u), finite_diff_gradient(lambda v: float(value(v, u)), x, step)),
            (spec.grad_u(x, u), finite_diff_gradient(lambda v: float(value(x, v)), u, step))):
        analytic = np.atleast_1d(np.asarray(analytic, dtype=float))
        worst = max(worst, float(np.linalg.norm(analytic - numeric))
                    / max(floor, float(np.linalg.norm(analytic))))
    return worst


def random_instances(rng, count):
    """Seeded (m, K) instances with entries uniform in [-5, 5].

    Rows shorter than 0.2 and constraint pairs within ~6 degrees of parallel
    are resampled (deterministically): the grid/projection oracle's
    convergence rate degrades without a conditioning floor, and such
    instances would test the oracle, not the solver.
    """
    out = []
    while len(out) < count:
        m = rng.integer(1, 3)
        k = rng.integer(1, 3)
        P = np.array([[rng.uniform(-5, 5) for _ in range(m)] for _ in range(k)])
        r = np.array([rng.uniform(-5, 5) for _ in range(k)])
        if m >= 2:
            norms = np.linalg.norm(P, axis=1)
            if norms.min() < 0.2:
                continue
            hat = P / norms[:, None]
            gram = np.abs(hat @ hat.T)
            np.fill_diagonal(gram, 0.0)
            if gram.max() > 0.995:  # |cos| > 0.995 ~ within 6 degrees
                continue
        out.append((P, r))
    return out


def interval_oracle_1d(ps, rs):
    """min |v| s.t. p_i v >= r_i for scalars; returns (v, infeasible)."""
    lo, hi = -np.inf, np.inf
    for p, r in zip(ps, rs):
        if abs(p) <= EPS:
            if r > 0.0:
                return 0.0, True
            continue
        bound = r / p
        if p > 0.0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if lo > hi + 1e-12 * max(1.0, abs(lo), abs(hi)):
        return 0.0, True
    if lo <= 0.0 <= hi:
        return 0.0, False
    return (lo if lo > 0.0 else hi), False


def feasible_point_lp(P, r):
    """A feasible point of {v : P v >= r} via scipy linprog, or None."""
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    res = linprog(c=np.zeros(P.shape[1]), A_ub=-P, b_ub=-r,
                  bounds=[(None, None)] * P.shape[1], method="highs")
    return res.x if res.status == 0 else None


def feasible_lp(P, r):
    return feasible_point_lp(P, r) is not None


def closed_form_single(p, f):
    """Least-norm v with p . v >= f: zero when f <= 0, (f / ||p||^2) p when
    p != 0, and None (infeasible) when f > 0 and p = 0."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if f <= 0.0:
        return np.zeros_like(p)
    pp = float(p @ p)
    if pp <= EPS_P * EPS_P:
        return None
    return (f / pp) * p


def disturbance_estimate(obs_cfg, r, x):
    """The observer's estimate d_hat = r + beta q(x)."""
    return np.asarray(r, dtype=float) + obs_cfg.beta * np.asarray(obs_cfg.q_fn(x), dtype=float)


def augmented_rhs(model, obs_cfg, u_rate):
    """Right-hand side of z = (x, u, r) with udot held at u_rate:

        xdot = F(x,u) + ell(x) d_true(t)
        rdot = -beta L_d(x) (F(x,u) + ell(x) d_hat),  d_hat = r + beta q(x)
    """
    n, m = model.n, model.m
    u_rate = np.asarray(u_rate, dtype=float)

    def rhs(t, z):
        x, u, r = z[:n], z[n:n + m], z[n + m:]
        fx = np.asarray(model.F(x, u), dtype=float)
        lx = np.asarray(model.ell(x), dtype=float)
        d_hat = disturbance_estimate(obs_cfg, r, x)
        rdot = -obs_cfg.beta * (np.asarray(obs_cfg.gain_at(x), dtype=float) @ (fx + lx @ d_hat))
        return np.concatenate([fx + lx @ model.d_true(t), u_rate, rdot])

    return rhs


def rk4(rhs, t, z, dt):
    """One classical fourth-order Runge-Kutta step."""
    k1 = rhs(t, z)
    k2 = rhs(t + dt / 2, z + dt / 2 * k1)
    k3 = rhs(t + dt / 2, z + dt / 2 * k2)
    k4 = rhs(t + dt, z + dt * k3)
    return z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def dykstra_projection(P, r, iters=100000, tol=1e-14):
    """Projection of the origin onto the intersection of half-spaces
    {p_i^T v >= r_i} by Dykstra's alternating projections. The projection of
    the origin is exactly the least-norm feasible point."""
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    K, m = P.shape
    v = np.zeros(m)
    corrections = np.zeros((K, m))
    for _ in range(iters):
        v_prev = v.copy()
        for i in range(K):
            y = v - corrections[i]
            p = P[i]
            pp = float(p @ p)
            if pp <= EPS * EPS:
                proj = y
            else:
                gap = r[i] - float(p @ y)
                proj = y + (gap / pp) * p if gap > 0.0 else y
            corrections[i] = proj - y
            v = proj
        if np.linalg.norm(v - v_prev) < tol * max(1.0, np.linalg.norm(v)):
            break
    return v


def grid_refine(P, r, radius, rounds=4, pts=15):
    """Coarse-to-fine grid search for the min-norm feasible point.

    Returns (best, final_step). Feasibility is relaxed by one grid cell per
    round, so the returned point can sit slightly inside the infeasible side.
    """
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    m = P.shape[1]
    center = np.zeros(m)
    best = None
    step = radius
    for _ in range(rounds):
        axes = [np.linspace(c - step, c + step, pts) for c in center]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        slack_tol = 2.0 * step / (pts - 1) * np.linalg.norm(P, axis=1).max()
        feas = np.all(mesh @ P.T - r >= -slack_tol, axis=1)
        if not feas.any():
            step *= 2.0
            continue
        cand = mesh[feas]
        norms = (cand ** 2).sum(axis=1)
        best = cand[np.argmin(norms)]
        center = best
        step = 2.5 * step / (pts - 1)
    return best, step


def grid_polish_oracle(P, r):
    """Dense grid refinement seeded from an LP feasible point, polished by
    Dykstra's projection. Returns None when the system is infeasible."""
    anchor = feasible_point_lp(P, r)
    if anchor is None:
        return None
    radius = 2.0 * float(np.linalg.norm(anchor)) + 10.0
    coarse, final_step = grid_refine(P, r, radius)
    polished = dykstra_projection(P, r)
    if coarse is not None:
        # the two routes must land in the same neighborhood (the grid point is
        # cell-relaxed, so only proximity is meaningful, not ordering)
        assert np.linalg.norm(coarse - polished) <= max(1.0, 20.0 * final_step)
    return polished


def active_set_oracle(P, r, max_iter=500):
    """Textbook primal active-set method for min ||v||^2 s.t. P v >= r.

    Starts from an LP-found feasible point and iterates: move toward the
    equality-constrained minimizer of the working set with a step length
    capped by the first blocking constraint, add the blocker, and drop
    working constraints with negative multipliers at stationary points.
    Returns the minimizer, or None when the system is infeasible.
    """
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    v = feasible_point_lp(P, r)
    if v is None:
        return None
    v = np.asarray(v, dtype=float)
    K, m = P.shape
    scale = np.maximum(1.0, np.abs(r))
    working = [i for i in range(K) if abs(float(P[i] @ v) - r[i]) <= 1e-9 * scale[i]]
    for _ in range(max_iter):
        if working:
            A = P[working]
            gram = A @ A.T
            lam, *_ = np.linalg.lstsq(gram, r[working], rcond=None)
            v_eq = A.T @ lam
        else:
            lam = np.zeros(0)
            v_eq = np.zeros(m)
        d = v_eq - v
        if float(d @ d) <= 1e-24 * max(1.0, float(v @ v)):
            if lam.size == 0 or np.all(lam >= -1e-10):
                return v
            drop = int(np.argmin(lam))
            del working[drop]
            continue
        alpha = 1.0
        blocker = None
        for i in range(K):
            if i in working:
                continue
            pd = float(P[i] @ d)
            if pd < -1e-14:
                step = (r[i] - float(P[i] @ v)) / pd
                if step < alpha:
                    alpha = max(step, 0.0)
                    blocker = i
        v = v + alpha * d
        if blocker is not None:
            working.append(blocker)
    raise RuntimeError("active-set oracle failed to converge")


def _input_free(spec, x, u, eps_p):
    return float(np.linalg.norm(np.asarray(spec.grad_u(x, u), dtype=float))) <= eps_p


def reference_check_validity(target, model, phi, box, resolution, obs_cfg=None, times=None,
                             eps_p=EPS_P):
    """check_validity as a plain scan: each point evaluates the input
    gradients with np.linalg.norm, and each time evaluates E(t), phi's
    constraint and the safe-set test on its own."""
    if times is None:
        if obs_cfg is not None:
            times = [0.0, 5.0 / obs_cfg.lam, 100.0 / obs_cfg.lam]
        else:
            times = [0.0]
    axes = _grid_axes(box, resolution)
    nx = box.x_low.shape[0]
    d_hat = np.zeros(model.p)
    counterexamples: list = []

    def check_point(specs, chain, x, u):
        phi_val = np.atleast_1d(np.asarray(phi(x, u), dtype=float))
        for t in times:
            envelope = error_envelope(obs_cfg, t) if obs_cfg is not None else 0.0
            (c,), values, _ = build_constraints(model, specs, chain, phi_val, x, u, d_hat,
                                                envelope)
            if not min(values.values()) < 0.0 and c.deficit > -c.margin:
                counterexamples.append({
                    "barrier": c.label, "t": t,
                    "x": [float(v) for v in x], "u": [float(v) for v in u],
                    "w": c.deficit, "margin": -c.margin,
                })

    points = ((np.asarray(pt[:nx]), np.asarray(pt[nx:])) for pt in itertools.product(*axes))
    if isinstance(target, BarrierChain):
        chain = target
        seen_nonzero = [False] * (chain.m + 1)
        for x, u in points:
            for i, lv in enumerate(chain.levels):
                if not seen_nonzero[i] and not _input_free(lv, x, u, eps_p):
                    seen_nonzero[i] = True
            if _input_free(chain.levels[chain.m], x, u, eps_p):
                check_point((), chain, x, u)
        degree = next((i for i, flag in enumerate(seen_nonzero) if flag), chain.m)
    else:
        specs = [target] if isinstance(target, BarrierSpec) else list(target)
        if not specs:
            raise ConfigurationError("no barriers to check")
        has_authority = False
        for x, u in points:
            free = [spec for spec in specs if _input_free(spec, x, u, eps_p)]
            if len(free) < len(specs):
                has_authority = True
            if free and not min(spec.h(x, u) for spec in specs) < 0.0:
                for spec in free:
                    check_point((spec,), None, x, u)
        degree = 0 if has_authority else 1

    return ValidityReport(valid=not counterexamples, relative_degree=degree,
                          counterexamples=counterexamples)
