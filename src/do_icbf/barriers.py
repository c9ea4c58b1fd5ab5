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
relative degree requires. Every level, plain or in a chain, gives both of
its gradients; the package differentiates nothing numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .model import Array

EPS_P = 1e-8  # below this the input gradient counts as zero


@dataclass(frozen=True)
class BarrierSpec:
    """Scalar barrier h(x, u): its value, both gradients and its class-K rate.

    These are the callables the filter calls. grad_x and grad_u are always
    given, and a level without either cannot be built. gamma is any function
    from float to float (see model.linear_rate). A chain level above b_0 is
    the recurrence from the level below and has no value of its own: h = None.
    """

    h: Optional[Callable[[Array, Array], float]]
    gamma: Callable[[float], float]
    grad_x: Callable[[Array, Array], Array]
    grad_u: Callable[[Array, Array], Array]
    label: str = "h"

    def __post_init__(self):
        for name in ("grad_x", "grad_u"):
            if not callable(getattr(self, name)):
                raise ConfigurationError(f"barrier {self.label!r} needs a callable {name}")


def require_values(specs: Sequence[BarrierSpec], role: str) -> None:
    """A plain barrier and a chain's b_0 are evaluated, not derived: raise
    ConfigurationError unless each of specs has its value h."""
    for spec in specs:
        if spec.h is None:
            raise ConfigurationError(f"{role} {spec.label!r} has no value h")


@dataclass(frozen=True)
class BarrierChain:
    """Ordered chain b_0 ... b_m, each level owning its class-K rate.

    Level 0 carries its value b_0 = h. Each level above is the recurrence
    b_{i+1} = bdot_i + gamma_i(b_i) - margin from the level below and carries
    only its two gradients (h = None; a value given is never read), its rate
    and its label. The top level's gamma_m enters its own constraint. A plain
    barrier is the chain with no lower level (m = 0), which build_constraints
    assembles by the same recurrence; a BarrierChain holds m >= 1. Level 0
    must be input-free; only the top level needs input authority.
    """

    levels: Sequence[BarrierSpec]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise ConfigurationError("a chain needs at least levels b_0 and b_1")
        require_values(self.levels[:1], "chain level 0")
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
        if self.x_low.shape != self.x_high.shape or self.u_low.shape != self.u_high.shape:
            raise ConfigurationError(
                f"domain box bounds differ in shape: x {self.x_low.shape} to "
                f"{self.x_high.shape}, u {self.u_low.shape} to {self.u_high.shape}")
        if np.any(self.x_low > self.x_high) or np.any(self.u_low > self.u_high):
            raise ConfigurationError("domain box is empty (a lower bound exceeds an upper bound)")

    def require_dims(self, n: int, m: int, role: str) -> None:
        """Raise ConfigurationError unless the box spans n states and m inputs."""
        if (self.x_low.shape, self.u_low.shape) != ((n,), (m,)):
            raise ConfigurationError(
                f"{role} has state bounds of shape {self.x_low.shape} and input bounds of "
                f"shape {self.u_low.shape}; the model has {n} states and {m} inputs")
