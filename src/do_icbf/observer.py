"""Nonlinear disturbance observer and its estimation-error envelope.

The observer estimates the additive disturbance of xdot = F(x,u) + ell(x) d as

    d_hat = r + beta * q(x),      rdot = -beta * L_d(x) (F(x,u) + ell(x) d_hat)

with a gain map L_d (p x n) and a potential q with dq/dx = L_d: q(x) = L_d x
for a constant gain, the given q_fn for a state map. Under known
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
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError
from .model import Array, DisturbanceBounds, SystemModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ObserverConfig:
    """Observer gains plus the constants of the error envelope.

    L_d may be a constant p x n matrix or a state map. A constant gain's
    potential is q(x) = L_d x: any q with dq/dx = L_d differs from it by a
    constant, which r(0) = -beta q(x0) cancels. A state map needs its q_fn,
    and q_fn is refused with a constant L_d. gain_at and q are derived when
    the config is made, dataclasses.replace too, so no copy keeps the
    potential of another gain. The envelope's E0 is bounds.k0, not a setting:
    a run starts the observer from d_hat(0) = 0, so its initial error is
    ||d(0)|| <= k0.
    """

    beta: float
    L_d: Union[Array, Callable[[Array], Array]]
    mu1: float
    bounds: DisturbanceBounds
    q_fn: Optional[Callable[[Array], Array]] = None
    gain_at: Callable[[Array], Array] = field(init=False, repr=False, compare=False)
    q: Callable[[Array], Array] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ConfigurationError(f"observer gain beta must be > 0, got {self.beta}")
        if not (0.0 < self.mu1 < 2.0 * self.beta):
            raise ConfigurationError(
                f"mu1 must satisfy 0 < mu1 < 2*beta, got mu1={self.mu1}, beta={self.beta}"
            )
        if callable(self.L_d):
            if self.q_fn is None:
                raise ConfigurationError("q_fn is required when L_d is a state map")
            gain_at, q = self.L_d, self.q_fn
        else:
            if self.q_fn is not None:
                raise ConfigurationError(
                    "q_fn is given only with a state-map L_d; the potential of a "
                    "constant L_d is L_d x")
            mat = np.asarray(self.L_d, dtype=float)
            object.__setattr__(self, "L_d", mat)
            gain_at, q = (lambda x: mat), mat.dot
        object.__setattr__(self, "gain_at", gain_at)
        object.__setattr__(self, "q", q)

    @property
    def lam(self) -> float:
        return self.beta - 0.5 * self.mu1


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
