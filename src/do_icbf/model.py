"""Plant model, disturbance bounds and the linear class-K rate.

The controlled plant is  xdot = F(x, u) + ell(x) d  with state x in R^n, input
u in R^m and an additive disturbance d in R^p entering through the channel
matrix ell(x) (n x p). The true disturbance signal d_true(t) exists on the
model for simulation and logging only; filters and observers never read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


def _as_vector(val, length: int, name: str) -> Array:
    v = np.asarray(val, dtype=float)
    if v.ndim != 1 or v.shape[0] != length:
        raise ConfigurationError(
            f"{name}: expected a vector of length {length}, got shape {v.shape}"
        )
    return v


@dataclass(frozen=True)
class SystemModel:
    """Controlled plant xdot = F(x,u) + ell(x) d.

    F and ell must evaluate on any finite point of the scenario's domain box;
    d_true is the simulation-only ground-truth disturbance signal, zero if none is given.
    """

    n: int
    m: int
    p: int
    F: Callable[[Array, Array], Array]
    ell: Callable[[Array], Array]
    d_true: Callable[[float], Array] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.d_true is None or getattr(self.d_true, "zero_default", False):
            zero = np.zeros(self.p)  # derived again in every copy, which may change p
            object.__setattr__(self, "d_true", lambda t: zero)
            self.d_true.zero_default = True


def linear_rate(slope: float) -> Callable[[float], float]:
    """The class-K rate s -> slope * s; slope must be > 0."""
    if slope <= 0.0:
        raise ConfigurationError(f"linear class-K slope must be > 0, got {slope}")
    return lambda s: slope * s


@dataclass(frozen=True)
class DisturbanceBounds:
    """Known bounds on the disturbance magnitude (k0) and its rate (k1)."""

    k0: float
    k1: float

    def __post_init__(self):
        if self.k0 < 0.0 or self.k1 < 0.0:
            raise ConfigurationError(
                f"disturbance bounds must be nonnegative, got k0={self.k0}, k1={self.k1}"
            )

