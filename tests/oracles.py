"""Independent oracles for the least-norm QP: an exact rational solution
that certifies the KKT conditions, and a classical iterative active-set
method in floats. Neither shares code with the solver under test.

closed_form_single is the textbook solution of the one-constraint QP.

augmented_rhs writes out the closed loop's right-hand side, observer
included, for comparison against a step of the simulator's kernels.

reference_check_validity is the plain per-point grid scan of the validity
checker: every time and every point evaluated on its own, nothing shared.

column reads one named column of a TrajectoryLog from its rows, and
replay assembles each logged decision again from its row's own values with
build_constraints and solve_multi: it checks the log, not the QP.

finite_diff_gradient is the central-difference gradient oracle, and
level_values and gradient_error compare a scenario's analytic barrier
gradients with it, taken of the values the filter evaluates."""

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from do_icbf import (BarrierChain, BarrierSpec, ConfigurationError, FilterResult,
                     ValidityReport, build_constraints, error_envelope, solve_multi)
from do_icbf.barriers import EPS_P
from do_icbf.filter import _grid_axes


def column(log, name):
    """The values of one header column over every logged row."""
    i = log.header.index(name)
    return np.array([row[i] for row in log.rows])


def replay(scenario, cfg, log):
    """A copy of the log's rows with each row's b_*, slack_*, c_margin,
    vstar* and infeasible values assembled again from its own t, x, u, phi
    and d_hat: build_constraints at E(t), with d_hat and E zeroed for icbf,
    then, unless the filter is off, solve_multi. A log explains each of its
    decisions where the copy equals its rows."""
    model = scenario.model
    n, m, p = model.n, model.m, model.p
    col = log.header.index
    robust = cfg.filter_mode != "icbf"
    out = np.array(log.rows)
    for row in out:
        x, u = row[1:1 + n], row[1 + n:1 + n + m]
        phi = row[col("phi0"):col("phi0") + m]
        d_hat = row[col("dhat0"):col("dhat0") + p] if robust else np.zeros(p)
        envelope = error_envelope(scenario.obs_cfg, float(row[0])) if robust else 0.0
        constraints, values, margin = build_constraints(
            model, scenario.barriers, scenario.chain, phi, x, u, d_hat, envelope)
        result = FilterResult(np.zeros(m))
        if cfg.filter_mode != "off" and constraints:
            result = solve_multi(constraints)
        row[col("vstar0"):col("vstar0") + m] = result.v_star
        for label in scenario.value_labels:
            row[col(f"b_{label}")] = values[label]
        for c in constraints:
            row[col(f"slack_{c.label}")] = c.slack(result.v_star)
        row[col("c_margin")] = margin
        row[col("infeasible")] = float(result.infeasible)
    return out


def finite_diff_gradient(f, point, step):
    """Central-difference gradient of a scalar function f of a k-vector.

    Exact (up to roundoff) on polynomials of degree <= 2. Raises
    ArithmeticError if f returns a non-finite value near `point`.
    """
    if step <= 0.0:
        raise ConfigurationError(f"step: must be > 0, got {step}")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.shape[0]):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = float(f(hi))
        f_lo = float(f(lo))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise ArithmeticError(
                f"finite_diff_gradient: non-finite value near component {i} of {point}")
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    return grad


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

    With m >= 2, rows shorter than 0.2 and constraint pairs within ~6
    degrees of parallel are resampled (deterministically). The floor keeps
    out rows with ||p|| <= EPS_P, which solve_multi drops as zero normals
    while the exact oracle takes them as they are, and the resample keeps the
    active-set oracle's Gram solves well conditioned: such instances would
    test a convention or the oracle, not the solver.
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


def feasible_point_lp(P, r):
    """A feasible point of {v : P v >= r} via scipy linprog, or None."""
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    res = linprog(c=np.zeros(P.shape[1]), A_ub=-P, b_ub=-r,
                  bounds=[(None, None)] * P.shape[1], method="highs")
    return res.x if res.status == 0 else None


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
    return np.asarray(r, dtype=float) + obs_cfg.beta * np.asarray(obs_cfg.q(x), dtype=float)


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


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _solve_exact(A, b):
    """The solution of A x = b by Gauss-Jordan elimination in Fractions, or
    None when the square matrix A is singular."""
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * p for a, p in zip(rows[i], rows[c])]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def exact_oracle(P, r):
    """The least-norm point of {v : P v >= r}, or None when the set is empty,
    in exact rational arithmetic on the float entries as given.

    For each subset S of the constraints, of every size from 0 to K, solve
    the Gram system (P_S P_S^T) lam = r_S and take v = P_S^T lam. A point
    with lam >= 0 that meets every constraint satisfies the KKT conditions of
    min ||v||^2 s.t. P v >= r, so it is the unique minimizer; the minimizer
    of a nonempty set has such multipliers on some linearly independent
    active subset, so None means the set is empty. No tolerance is used.
    """
    P = [[Fraction(float(a)) for a in row] for row in np.atleast_2d(P)]
    r = [Fraction(float(b)) for b in np.atleast_1d(r)]
    columns = list(zip(*P))
    for size in range(len(P) + 1):
        for S in itertools.combinations(range(len(P)), size):
            lam = _solve_exact([[_dot(P[i], P[j]) for j in S] for i in S], [r[i] for i in S])
            if lam is None or any(mu < 0 for mu in lam):
                continue
            v = [_dot(lam, [col[i] for i in S]) for col in columns]
            if all(_dot(p, v) >= b for p, b in zip(P, r)):
                return np.array([float(c) for c in v])
    return None


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
