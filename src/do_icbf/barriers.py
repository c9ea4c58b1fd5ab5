"""Barrier functions over the joint state-input space, the high-order chain,
and the domain box.

A barrier h(x, u) defines the safe set {h >= 0}. Along the augmented closed
loop udot = phi + v the safety condition hdot + gamma(h) >= 0 rearranges into
a half-space constraint on the correction v:

    p(x,u)^T v >= deficit(x,u,d_hat) + margin(t)

where p is the transposed input gradient of h and the deficit collects
everything v cannot change. When the input gradient vanishes identically the
chain b_0 = h, b_{i+1} = bdot_i + gamma_i(b_i) - margin, with gamma_i the rate
of level i, recovers input authority after as many derivatives as the
relative degree requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .model import Array, ClassKFunction, finite_diff_gradient

EPS_P = 1e-8  # below this the input gradient counts as zero
_FD_STEP = 1e-6


@dataclass(frozen=True)
class BarrierSpec:
    """Scalar barrier h(x, u) with gradients and its class-K rate.

    Gradients left as None are filled in with central finite differences of h;
    analytic gradients are preferred wherever the scenario can supply them.
    """

    h: Callable[[Array, Array], float]
    gamma: ClassKFunction
    grad_x: Optional[Callable[[Array, Array], Array]] = None
    grad_u: Optional[Callable[[Array, Array], Array]] = None
    label: str = "h"

    def __post_init__(self):
        if self.grad_x is None:
            fn = self.h
            object.__setattr__(
                self, "grad_x",
                lambda x, u: finite_diff_gradient(lambda xv: fn(xv, u), x, _FD_STEP),
            )
        if self.grad_u is None:
            fn = self.h
            object.__setattr__(
                self, "grad_u",
                lambda x, u: finite_diff_gradient(lambda uv: fn(x, uv), u, _FD_STEP),
            )


@dataclass(frozen=True)
class BarrierChain:
    """Ordered chain b_0 ... b_m, each level owning its class-K rate.

    Every level is user-supplied with value and gradients (the benchmarks
    derive them by hand); levels lacking gradients fall back to finite
    differences via BarrierSpec. Level i's gamma_i defines the next level,
    b_{i+1} = bdot_i + gamma_i(b_i) - margin, and the top level's gamma_m
    enters its own constraint, as a plain barrier's does. Level 0 must be
    input-free; only the top level needs input authority.
    """

    levels: Sequence[BarrierSpec]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise ConfigurationError("a chain needs at least levels b_0 and b_1")
        if len(set(self.labels)) != len(self.levels):
            raise ConfigurationError(f"chain level labels must be distinct, got {self.labels}")

    @property
    def m(self) -> int:
        return len(self.levels) - 1

    @property
    def labels(self) -> tuple:
        return tuple(lv.label for lv in self.levels)


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box over the joint (x, u) space."""

    x_low: Array
    x_high: Array
    u_low: Array
    u_high: Array

    def __post_init__(self):
        for name in ("x_low", "x_high", "u_low", "u_high"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.x_low > self.x_high) or np.any(self.u_low > self.u_high):
            raise ContractViolationError("domain box is empty (a lower bound exceeds an upper bound)")
