"""Least-norm safety correction: min ||v||^2 subject to half-space constraints.

Each active barrier contributes one constraint p^T v >= rhs. A single
constraint has the closed form

    v* = 0                     if rhs <= 0
    v* = (rhs / ||p||^2) p     if rhs > 0 and p != 0
    infeasible                 if rhs > 0 and p == 0

(the last case means the supplied barrier is not valid at this point).
Several simultaneous constraints are solved exactly by enumerating active
subsets: the minimizer lies either at v = 0 or on a face where it equals the
least-norm solution of the active equalities with nonnegative multipliers, so
checking every subset of size <= m and keeping the feasible candidate of
least norm is exact. Constraint counts stay tiny (<= 8 enforced), making
enumeration both exact and fast.

build_constraints is the one place where the deficit, the robustness margin
and the chain recurrence are assembled into constraints, a plain barrier being
the chain with no lower level; a top level takes the margin of the level below
it, or its own when there is none. It is two steps: constraint_terms evaluates
every callable at the point, and fold_terms folds the recurrence at one
observer envelope. The closed loop's vector kernel and the start-point check
call build_constraints; the grid validity checker takes each point's terms
once and folds them at each distinct envelope. Each constraint is a
FilterConstraint (p_row, deficit, margin, label): a fold_terms row given
names, whose rhs = deficit + margin is derived, never stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .barriers import EPS_P, BarrierChain, BarrierSpec, DomainBox, require_values
from .errors import ConfigurationError
from .model import Array, SystemModel
from .observer import ObserverConfig, error_envelope

FEAS_TOL = 1e-9  # constraint slack tolerance for accepting a candidate


class FilterConstraint(NamedTuple):
    """One half-space p^T v >= rhs, in the layout of a fold_terms row and
    tagged with the barrier that produced it. rhs = deficit + margin, as
    build_constraints assembles them; FilterConstraint(p, rhs) is a
    constraint given by its rhs alone (margin 0). p_row is stored as given,
    and solve_multi reads a scalar or a list as a 1-D float array."""

    p_row: Array
    deficit: float
    margin: float = 0.0
    label: str = "h"

    @property
    def rhs(self) -> float:
        return self.deficit + self.margin

    def slack(self, v: Array) -> float:
        return float(np.vdot(self.p_row, v)) - self.rhs


@dataclass
class FilterResult:
    """Solution of the safety QP (or the infeasibility verdict)."""

    v_star: Array
    infeasible: bool = False


def solve_1d(cons: Sequence[tuple]) -> Optional[float]:
    """Least-norm scalar v with p * v >= rhs for every (p, rhs) in cons, or
    None when no v satisfies them all (plain floats; the subset enumeration
    of solve_multi restricted to size-1 subsets)."""
    best = 0.0 if all(r <= 0.0 for _, r in cons) else None
    for p, r in cons:
        if abs(p) <= EPS_P:
            if r > 0.0:
                return None  # no input authority, yet the constraint needs help
            continue
        v = r / (p * p) * p
        if best is not None and abs(v) >= abs(best):
            continue
        for pk, rk in cons:
            pv = pk * v
            if pv - rk < -FEAS_TOL * max(1.0, abs(rk), abs(pv)):
                break
        else:
            best = v
    return best


def solve_multi(constraints: Sequence[FilterConstraint]) -> FilterResult:
    """Exact least-norm point of the intersection of up to 8 half-spaces.

    Enumerates active subsets of size <= m, solves the equality-constrained
    least-norm system through the Gram matrix of each subset, and keeps the
    feasible candidate of least norm (the minimizer always lies on such a
    subset, so this is exact). Returns the infeasible flag when no candidate
    satisfies every constraint.
    """
    constraints = list(constraints)
    if len(constraints) > 8:
        raise ConfigurationError(f"at most 8 constraints supported, got {len(constraints)}")
    if not constraints:
        return FilterResult(np.zeros(0))
    rows = [np.atleast_1d(np.asarray(c.p_row, dtype=float)) for c in constraints]
    m = rows[0].shape[0]
    if m == 1:
        best = solve_1d([(float(p[0]), c.rhs) for p, c in zip(rows, constraints)])
        if best is None:
            return FilterResult(np.zeros(1), infeasible=True)
        return FilterResult(np.array([best]))
    rows = np.vstack(rows)
    rhs = np.array([c.rhs for c in constraints])

    # A constraint with no normal and positive rhs cannot be satisfied by any v.
    norms = np.linalg.norm(rows, axis=1)
    if np.any((norms <= EPS_P) & (rhs > 0.0)):
        return FilterResult(np.zeros(m), infeasible=True)

    best: Optional[Array] = None
    best_sq = np.inf
    if np.all(rhs <= 0.0):
        best = np.zeros(m)
        best_sq = 0.0
    indices = [i for i in range(len(constraints)) if norms[i] > EPS_P]
    for size in range(1, min(m, len(indices)) + 1):
        for subset in itertools.combinations(indices, size):
            sub = rows[list(subset)]
            gram = sub @ sub.T
            try:
                lam = np.linalg.solve(gram, rhs[list(subset)])
            except np.linalg.LinAlgError:
                continue  # dependent subset; covered by a smaller one
            v = sub.T @ lam
            sq = float(v @ v)
            if sq >= best_sq:
                continue
            # Tolerance scales with constraint magnitude: large-scale rows
            # accumulate roundoff proportional to |rhs| and ||p|| ||v||.
            scale = np.maximum(1.0, np.maximum(np.abs(rhs), norms * np.sqrt(sq)))
            if np.all(rows @ v - rhs >= -FEAS_TOL * scale):
                best = v
                best_sq = sq
    if best is None:
        return FilterResult(np.zeros(m), infeasible=True)
    return FilterResult(best)


def _channel_norm(gx: Array, lx: Array) -> float:
    """||dh/dx ell(x)|| of a barrier gradient; times E(t) it is the margin."""
    row = gx.dot(lx)
    return math.sqrt(row.dot(row))


def constraint_terms(model: SystemModel,
                     barriers: Sequence[BarrierSpec],
                     chain: Optional[BarrierChain],
                     phi: Array, x: Array, u: Array, d_hat: Array,
                     norms: bool = True) -> list:
    """The part of build_constraints that does not depend on the envelope.

    One entry per source, plain barriers first:
    (label_0, b_0, steps, label_m, p, gamma_m, rate_m, norm_m), where
    rate_i = db_i/dx (F + ell d_hat) + db_i/du phi and each level i below the
    top gives a step (label_{i+1}, gamma_i, rate_i, ||db_i/dx ell||). norm_m
    is the norm of the level below the top, or of the top itself if m = 0.
    With norms=False every norm is None, and only a fold at E = 0, which
    never reads them, may use the terms.
    """
    fx = np.asarray(model.F(x, u), dtype=float)
    lx = np.asarray(model.ell(x), dtype=float)
    drift = fx + lx.dot(d_hat)
    phi = np.asarray(phi, dtype=float)
    terms = []
    for levels in [(spec,) for spec in barriers] + ([chain.levels] if chain is not None else []):
        lv = levels[0]  # the level whose gradients come next; the top one after the loop
        b0 = float(lv.h(x, u))
        steps = []
        norm = None
        for nxt in levels[1:]:
            gx = np.asarray(lv.grad_x(x, u), dtype=float)
            gu = np.atleast_1d(np.asarray(lv.grad_u(x, u), dtype=float))
            norm = _channel_norm(gx, lx) if norms else None
            steps.append((nxt.label, lv.gamma, float(gx.dot(drift)) + float(gu.dot(phi)), norm))
            lv = nxt
        gx = np.asarray(lv.grad_x(x, u), dtype=float)
        p = np.atleast_1d(np.asarray(lv.grad_u(x, u), dtype=float))
        if norms and not steps:
            norm = _channel_norm(gx, lx)
        terms.append((levels[0].label, b0, steps, lv.label, p, lv.gamma,
                      float(gx.dot(drift)) + float(p.dot(phi)), norm))
    return terms


def fold_terms(terms: list, envelope: float) -> tuple:
    """The recurrence of build_constraints at one envelope E, on the terms of
    constraint_terms: b_{i+1} = (rate_i + gamma_i(b_i)) - margin_i and, at the
    top, deficit = -(rate_m + gamma_m(b_m)), with margin = norm E (exactly 0.0
    when E = 0, even for an infinite norm). Returns (rows, values,
    margin_max) with one (p, deficit, margin, label) row per source."""
    rows = []
    values: dict = {}
    margin_max = 0.0
    for label0, b, steps, label, p, gamma, rate, norm in terms:
        values[label0] = b
        for nxt, gamma_i, rate_i, norm_i in steps:
            b = values[nxt] = rate_i + gamma_i(b) - (0.0 if envelope == 0.0 else norm_i * envelope)
        deficit = -(rate + gamma(b))
        margin = 0.0 if envelope == 0.0 else norm * envelope
        margin_max = max(margin_max, margin)
        rows.append((p, deficit, margin, label))
    return rows, values, margin_max


def build_constraints(model: SystemModel,
                      barriers: Sequence[BarrierSpec],
                      chain: Optional[BarrierChain],
                      phi: Array, x: Array, u: Array, d_hat: Array,
                      envelope: float) -> tuple:
    """Assemble one constraint per source plus diagnostics.

    A source is a chain b_0 = h, b_{i+1} = bdot_i + gamma_i(b_i) - margin_i
    (i < m), and a plain barrier is the chain with m = 0. Its top level b_m
    contributes p^T v >= deficit + margin, with

        deficit = -( db_m/dx (F + ell d_hat) + db_m/du phi + gamma_m(b_m) )

    (positive when the nominal rate alone would let the safety condition
    fail). margin_i = ||db_i/dx ell|| E(t), with the observer error envelope
    E(t) the caller passes in (0.0 means no margins). The top takes the margin
    of the level below it, whose invariance it certifies, or its own if m = 0.
    This is constraint_terms followed by fold_terms at E(t). Returns
    (constraints, barrier_values, margin_max), plain barriers first.
    """
    terms = constraint_terms(model, barriers, chain, phi, x, u, d_hat, envelope != 0.0)
    rows, values, margin_max = fold_terms(terms, envelope)
    return list(map(FilterConstraint._make, rows)), values, margin_max


@dataclass
class ValidityReport:
    """Outcome of the grid check: violations of `p = 0 implies deficit <= -margin`."""

    valid: bool
    relative_degree: int
    counterexamples: list = field(default_factory=list)

    @staticmethod
    def merge(parts: Sequence["ValidityReport"]) -> "ValidityReport":
        """The report of a whole grid from the reports of its blocks, in block
        order: valid in every block, their counterexamples one after the
        other, and the smallest relative degree among them."""
        return ValidityReport(valid=all(part.valid for part in parts),
                              relative_degree=min(part.relative_degree for part in parts),
                              counterexamples=[c for part in parts for c in part.counterexamples])


def _grid_axes(box: DomainBox, resolution) -> list:
    """The grid axes; resolution is an int >= 2 (no bool) or a list of one per axis."""
    dims = box.x_low.shape[0] + box.u_low.shape[0]
    counts = [resolution] * dims if type(resolution) is int else resolution
    if not (isinstance(counts, list) and len(counts) == dims
            and all(type(r) is int and r >= 2 for r in counts)):
        raise ConfigurationError(f"resolution must be an int >= 2 or a list of {dims} such "
                                 f"ints, got {resolution!r}")
    lows = np.concatenate([box.x_low, box.u_low])
    highs = np.concatenate([box.x_high, box.u_high])
    return [np.linspace(lows[i], highs[i], counts[i]) for i in range(dims)]


def _input_free(grad_u: Callable, x: Array, u: Array) -> bool:
    """||grad_u|| <= EPS_P in plain floats, for a scalar, tuple or 1-D grad_u."""
    g = grad_u(x, u)
    try:
        return math.hypot(*g) <= EPS_P
    except TypeError:  # a scalar has no items
        return abs(float(g)) <= EPS_P


def check_validity(target: Union[BarrierSpec, Sequence[BarrierSpec], BarrierChain],
                   model: SystemModel,
                   phi: Callable[[Array, Array], Array],
                   box: DomainBox,
                   resolution,
                   obs_cfg: Optional[ObserverConfig] = None,
                   times: Optional[Sequence[float]] = None,
                   block: tuple = (0, 1)) -> ValidityReport:
    """Scan a grid for points where the correction has no authority yet is needed.

    One scan over the sources of the target, in the order constraint_terms
    assembles them: a chain is one source, and each plain barrier is a
    source with m = 0. Wherever a source's top input gradient has
    ||p|| <= EPS_P the implication requires deficit <= -margin, both as
    build_constraints assembles them at d_hat = 0; each failure is recorded
    as (x, u, deficit, -margin, t). The scan is restricted to grid points
    inside the checked safe set (every folded value >= 0 there): outside it
    the forward-invariance argument never visits the point, and the joint
    barriers of practical scenarios do fail the universal form. The report
    carries the empirical relative degree: the least level with input
    authority somewhere on the grid, else max(m, 1).

    block=(k, K) scans only the k-th of K contiguous blocks of the state grid
    in itertools.product order, each state with every input; the reports of
    blocks 0 .. K-1, joined by ValidityReport.merge, are the report of the
    whole grid.

    Work is shared, never the result: each point evaluates an input gradient
    at most once, E(t) is evaluated once per time, and a point with an
    input-free top inside every b_0 >= 0 evaluates phi and constraint_terms
    once, then folds the recurrence once per distinct envelope value.
    """
    if times is None:
        if obs_cfg is not None:
            times = [0.0, 5.0 / obs_cfg.lam, 100.0 / obs_cfg.lam]
        else:
            times = [0.0]
    k, parts = block
    if not 0 <= k < parts:
        raise ConfigurationError(f"block: expected (k, K) with 0 <= k < K, got {block}")
    if isinstance(target, BarrierChain):
        specs, chain, sources = (), target, [target.levels]
    else:
        specs = [target] if isinstance(target, BarrierSpec) else list(target)
        if not specs:
            raise ConfigurationError("no barriers to check")
        require_values(specs, "plain barrier")
        chain, sources = None, [(spec,) for spec in specs]
    box.require_dims(model.n, model.m, "box")
    axes = _grid_axes(box, resolution)
    envelopes = [error_envelope(obs_cfg, t) if obs_cfg is not None else 0.0 for t in times]
    distinct = list(dict.fromkeys(envelopes))
    norms = any(envelope != 0.0 for envelope in distinct)
    d_hat = np.zeros(model.p)
    counterexamples: list = []
    # degree is the least level seen with input authority so far; a lower
    # level at or above it can no longer lower it and leaves `below`.
    top_m = max(len(levels) - 1 for levels in sources)
    degree = max(top_m, 1)
    tops = list(enumerate(levels[-1].grad_u for levels in sources))
    below = [(i, lv.grad_u) for levels in sources for i, lv in enumerate(levels[:-1])]

    # Streamed in itertools.product order; only the input grid is held, and
    # each x array serves all of it.
    nx = box.x_low.shape[0]
    states = math.prod(len(axis) for axis in axes[:nx])
    block_xs = itertools.islice(itertools.product(*axes[:nx]),
                                k * states // parts, (k + 1) * states // parts)
    us = [np.array(ut) for ut in itertools.product(*axes[nx:])]
    for x in map(np.array, block_xs):
        for u in us:
            for i, grad_u in below:
                if not _input_free(grad_u, x, u):
                    degree = i
                    below = [pair for pair in below if pair[0] < i]
                    break
            free = []
            for j, grad_u in tops:
                if _input_free(grad_u, x, u):
                    free.append(j)
                elif degree > top_m:
                    degree = top_m
            if not free or min(levels[0].h(x, u) for levels in sources) < 0.0:
                continue
            phi_val = np.atleast_1d(np.asarray(phi(x, u), dtype=float))
            terms = constraint_terms(model, specs, chain, phi_val, x, u, d_hat, norms)
            folded = {envelope: fold_terms(terms, envelope) for envelope in distinct}
            for j in free:
                for t, envelope in zip(times, envelopes):
                    rows, values, _ = folded[envelope]
                    _, deficit, margin, label = rows[j]
                    if not min(values.values()) < 0.0 and deficit > -margin:
                        counterexamples.append({
                            "barrier": label, "t": t,
                            "x": [float(v) for v in x], "u": [float(v) for v in u],
                            "w": deficit, "margin": -margin,
                        })

    return ValidityReport(valid=not counterexamples, relative_degree=degree,
                          counterexamples=counterexamples)
