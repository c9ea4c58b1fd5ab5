"""Nonlinear disturbance observer and its estimation-error envelope.

The observer estimates the additive disturbance of xdot = F(x,u) + ell(x) d as

    d_hat = r + beta * q(x),      rdot = -beta * L_d(x) (F(x,u) + ell(x) d_hat)

with a gain map L_d (p x n) and a potential q with dq/dx = L_d. Under known
bounds ||d|| <= k0, ||ddot|| <= k1 the estimation error e_d = d_hat - d obeys

    ||e_d(t)||^2 <= E0^2 exp(-2 lam t) + k1^2 (1 - exp(-2 lam t)) / (2 mu1 lam)

with lam = beta - mu1/2, provided E0 bounds the initial error and the gain
condition sym(L_d ell) >= I holds along trajectories. The square root of the
right-hand side is the time-varying envelope consumed by the robust filter
margin.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError
from .model import Array, DisturbanceBounds, SystemModel

log = logging.getLogger(__name__)


class LinearPotential:
    """The default potential q(x) = L_d x of a constant gain matrix, which
    holds that matrix, so that the float kernel can tell it from any other."""

    def __init__(self, matrix: Array):
        self.matrix = matrix

    def __call__(self, x: Array) -> Array:
        return self.matrix.dot(x)


@dataclass(frozen=True)
class ObserverConfig:
    """Observer gains plus the constants of the error envelope.

    L_d may be a constant p x n matrix or a state map; for a constant matrix
    the potential defaults to q(x) = L_d x (the unique potential with
    dq/dx = L_d up to a constant absorbed into r(0)), a LinearPotential.
    The envelope's E0 is bounds.k0, not a setting: a run starts the observer
    from d_hat(0) = 0, so its initial error is ||d(0)|| <= k0.
    """

    beta: float
    L_d: Union[Array, Callable[[Array], Array]]
    mu1: float
    bounds: DisturbanceBounds
    q_fn: Callable[[Array], Array] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ConfigurationError(f"observer gain beta must be > 0, got {self.beta}")
        if not (0.0 < self.mu1 < 2.0 * self.beta):
            raise ConfigurationError(
                f"mu1 must satisfy 0 < mu1 < 2*beta, got mu1={self.mu1}, beta={self.beta}"
            )
        if callable(self.L_d):
            object.__setattr__(self, "_ld_fn", self.L_d)
            if self.q_fn is None:
                raise ConfigurationError("q_fn is required when L_d is a state map")
        else:
            mat = np.asarray(self.L_d, dtype=float)
            object.__setattr__(self, "L_d", mat)
            object.__setattr__(self, "_ld_fn", lambda x, _mat=mat: _mat)
            if self.q_fn is None:
                object.__setattr__(self, "q_fn", LinearPotential(mat))

    @property
    def lam(self) -> float:
        return self.beta - 0.5 * self.mu1

    def gain_at(self, x: Array) -> Array:
        return self._ld_fn(x)  # type: ignore[attr-defined]


def error_envelope(cfg: ObserverConfig, t: float) -> float:
    """Upper bound on ||d_hat(t) - d(t)|| from the envelope constants.

    Equals E0 = bounds.k0 at t = 0 and approaches k1 / sqrt(2 mu1 lam) as t grows.
    """
    if t < 0.0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    two_ml = 2.0 * cfg.mu1 * cfg.lam
    decay = math.exp(-2.0 * cfg.lam * t)
    e0 = cfg.bounds.k0
    k1 = cfg.bounds.k1
    return math.sqrt((two_ml * e0 * e0 * decay + k1 * k1 * (1.0 - decay)) / two_ml)


def check_gain_condition(cfg: ObserverConfig, model: SystemModel, samples) -> float:
    """Smallest eigenvalue of sym(L_d ell) - I over sampled states.

    The envelope derivation needs e^T (L_d ell) e >= ||e||^2; a negative return
    value means the supplied gains do not certify the envelope. Logged as a
    warning rather than raised: benchmark gain choices are kept runnable.
    """
    worst = math.inf
    for x in samples:
        x = np.asarray(x, dtype=float)
        mat = cfg.gain_at(x) @ np.asarray(model.ell(x), dtype=float)
        sym = 0.5 * (mat + mat.T)
        margin = float(np.linalg.eigvalsh(sym)[0]) - 1.0
        worst = min(worst, margin)
    if worst < -1e-9:
        log.warning(
            "observer gain condition sym(L_d ell) >= I fails on sampled states "
            "(worst margin %.3g); the error envelope is not certified", worst,
        )
    return worst
