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
it, or its own when there is none. The closed loop's vector kernel, the
start-point check and the grid validity checker all call it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .barriers import EPS_P, BarrierChain, BarrierSpec, DomainBox
from .errors import ConfigurationError, ContractViolationError
from .model import Array, SystemModel
from .observer import ObserverConfig, error_envelope

FEAS_TOL = 1e-9  # constraint slack tolerance for accepting a candidate


@dataclass(frozen=True)
class FilterConstraint:
    """One half-space p^T v >= rhs, tagged with the barrier that produced it."""

    p_row: Array
    rhs: float
    label: str = "h"
    # The two parts rhs = deficit + margin, as build_constraints assembles
    # them; a constraint given by its rhs alone has deficit = rhs, margin = 0.
    deficit: Optional[float] = None
    margin: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p_row", np.atleast_1d(np.asarray(self.p_row, dtype=float)))
        if self.deficit is None:
            object.__setattr__(self, "deficit", self.rhs)

    def slack(self, v: Array) -> float:
        return float(self.p_row @ v) - self.rhs


@dataclass
class FilterResult:
    """Solution of the safety QP (or the infeasibility verdict)."""

    v_star: Array
    active_labels: list = field(default_factory=list)
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
    m = constraints[0].p_row.shape[0]
    if m == 1:
        cons = [(float(c.p_row[0]), c.rhs) for c in constraints]
        best = solve_1d(cons)
        if best is None:
            return FilterResult(np.zeros(1), infeasible=True)
        active = [c.label for (pk, rk), c in zip(cons, constraints)
                  if abs(pk * best - rk) <= FEAS_TOL * max(1.0, abs(rk), abs(pk * best))]
        return FilterResult(np.array([best]), active_labels=active)
    rows = np.vstack([c.p_row for c in constraints])
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
    v_norm = float(np.sqrt(best_sq))
    active = [
        c.label for c, nrm in zip(constraints, norms)
        if abs(c.slack(best)) <= FEAS_TOL * max(1.0, abs(c.rhs), nrm * v_norm)
    ]
    return FilterResult(best, active_labels=active)


def _channel_margin(gx: Array, lx: Array, envelope: float) -> float:
    """Robustness margin ||dh/dx ell(x)|| * envelope(t) of a barrier gradient."""
    if envelope == 0.0:
        return 0.0
    row = gx @ lx
    return float(np.sqrt(row @ row)) * envelope


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
    Returns (constraints, barrier_values, margin_max), plain barriers first.
    """
    fx = np.asarray(model.F(x, u), dtype=float)
    lx = np.asarray(model.ell(x), dtype=float)
    drift = fx + lx @ d_hat
    constraints = []
    values: dict = {}
    margin_max = 0.0
    phi = np.asarray(phi, dtype=float)
    for levels in [(spec,) for spec in barriers] + ([chain.levels] if chain is not None else []):
        lv = levels[0]  # the level whose value is b; the top one after the loop
        b = values[lv.label] = float(lv.h(x, u))
        below_gx = None
        for nxt in levels[1:]:
            below_gx = np.asarray(lv.grad_x(x, u), dtype=float)
            gu = np.atleast_1d(np.asarray(lv.grad_u(x, u), dtype=float))
            b = values[nxt.label] = (float(below_gx @ drift) + float(gu @ phi) + lv.gamma(b)
                                     - _channel_margin(below_gx, lx, envelope))
            lv = nxt
        gx = np.asarray(lv.grad_x(x, u), dtype=float)
        p = np.atleast_1d(np.asarray(lv.grad_u(x, u), dtype=float))
        deficit = -(float(gx @ drift) + float(p @ phi) + lv.gamma(b))
        margin = _channel_margin(gx if below_gx is None else below_gx, lx, envelope)
        margin_max = max(margin_max, margin)
        constraints.append(FilterConstraint(p, deficit + margin, lv.label, deficit, margin))
    return constraints, values, margin_max


@dataclass
class ValidityReport:
    """Outcome of the grid check: violations of `p = 0 implies deficit <= -margin`."""

    valid: bool
    relative_degree: int
    counterexamples: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "valid": self.valid,
                "relative_degree": self.relative_degree,
                "counterexamples": self.counterexamples,
            },
            indent=2,
            sort_keys=True,
        )


def _grid_axes(box: DomainBox, resolution) -> list:
    dims = box.x_low.shape[0] + box.u_low.shape[0]
    if isinstance(resolution, int):
        resolution = [resolution] * dims
    if len(resolution) != dims:
        raise ContractViolationError(
            f"resolution: expected {dims} per-axis counts or a single int, got {resolution}"
        )
    if any(r < 2 for r in resolution):
        raise ContractViolationError("grid resolution must be >= 2 per axis")
    lows = np.concatenate([box.x_low, box.u_low])
    highs = np.concatenate([box.x_high, box.u_high])
    return [np.linspace(lows[i], highs[i], resolution[i]) for i in range(dims)]


def _input_free(spec: BarrierSpec, x: Array, u: Array) -> bool:
    """||grad_u|| <= EPS_P in plain floats, for a scalar, tuple or 1-D grad_u."""
    g = spec.grad_u(x, u)
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
                   times: Optional[Sequence[float]] = None) -> ValidityReport:
    """Scan a grid for points where the correction has no authority yet is needed.

    Wherever ||p|| <= EPS_P the implication requires deficit <= -margin, both
    as build_constraints assembles them at d_hat = 0; each failure is recorded
    as (x, u, deficit, -margin, t). The scan is restricted to grid points
    inside the checked safe set (all barrier / chain values >= 0 there):
    outside it the forward-invariance argument never visits the point, and
    the joint barriers of practical scenarios do fail the universal form. For
    chains the report also carries the empirical relative degree: the
    smallest level whose input gradient is nonzero somewhere on the grid.

    Work is shared, never the result: each point evaluates an input gradient
    at most once, E(t) is evaluated once per time, and an input-free point
    assembles its constraint once per distinct envelope value.
    """
    if times is None:
        if obs_cfg is not None:
            times = [0.0, 5.0 / obs_cfg.lam, 100.0 / obs_cfg.lam]
        else:
            times = [0.0]
    axes = _grid_axes(box, resolution)
    envelopes = [error_envelope(obs_cfg, t) if obs_cfg is not None else 0.0 for t in times]
    distinct = list(dict.fromkeys(envelopes))
    d_hat = np.zeros(model.p)
    counterexamples: list = []

    def check_point(specs, chain, x, u):
        """Record the one constraint of specs / chain at each time it needs
        help while (x, u) lies inside its safe set."""
        phi_val = np.atleast_1d(np.asarray(phi(x, u), dtype=float))
        failing = {}
        for envelope in distinct:
            (c,), values, _ = build_constraints(model, specs, chain, phi_val, x, u, d_hat,
                                                envelope)
            if not min(values.values()) < 0.0 and c.deficit > -c.margin:
                failing[envelope] = c
        for t, envelope in zip(times, envelopes):
            c = failing.get(envelope)
            if c is not None:
                counterexamples.append({
                    "barrier": c.label, "t": t,
                    "x": [float(v) for v in x], "u": [float(v) for v in u],
                    "w": c.deficit, "margin": -c.margin,
                })

    # Streamed in itertools.product order; only the input grid is held, and
    # each x array serves all of it.
    nx = box.x_low.shape[0]
    us = [np.array(ut) for ut in itertools.product(*axes[nx:])]
    points = ((x, u) for x in map(np.array, itertools.product(*axes[:nx])) for u in us)
    if isinstance(target, BarrierChain):
        chain = target
        top = chain.levels[chain.m]
        below = tuple(enumerate(chain.levels[:chain.m]))
        seen_nonzero = [False] * chain.m  # levels below the top
        for x, u in points:
            for i, lv in below:
                if not seen_nonzero[i] and not _input_free(lv, x, u):
                    seen_nonzero[i] = True
            if _input_free(top, x, u):
                check_point((), chain, x, u)
        degree = next((i for i, flag in enumerate(seen_nonzero) if flag), chain.m)
    else:
        specs = [target] if isinstance(target, BarrierSpec) else list(target)
        if not specs:
            raise ConfigurationError("no barriers to check")
        has_authority = False
        for x, u in points:
            free = [spec for spec in specs if _input_free(spec, x, u)]
            if len(free) < len(specs):
                has_authority = True
            if free and not min(spec.h(x, u) for spec in specs) < 0.0:
                for spec in free:
                    check_point((spec,), None, x, u)
        # Plain barriers act through their own input gradient: degree 0 if any
        # barrier has input authority somewhere, by convention.
        degree = 0 if has_authority else 1

    return ValidityReport(valid=not counterexamples, relative_degree=degree,
                          counterexamples=counterexamples)
