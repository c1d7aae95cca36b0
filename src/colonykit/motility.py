"""Motility functions r(v) and their first three derivatives.

The colony model's destabilizing mechanism is a bacterial diffusivity r(v)
that decreases with the signal concentration v.  A motility model is one of
two closed-form families, the falling logistic and the exponential decay.
``evaluate(v, order)`` gives r (order 0) or its derivative of order 1..3: a
float64 ndarray of v's shape for an array v, and a float for a scalar v.
Every layer reads r through it and uses the result as it comes.  The PDE
right-hand side evaluates r on whole grids; the linear analysis and the
expansion read only the Taylor data of r at v = 1, and both take it from
``taylor_at_one``, so that data has a single source.

Structural requirements on r: positive and strictly decreasing on the
working range, and r'(1) + r(1) < 0 for an instability window to exist.
Both families meet the first two by construction, and their
constructors reject parameters whose r(1) underflows to 0 (the linear
analysis divides by r(1)); the linear analysis checks the third where it
needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._compiled import expit

__all__ = [
    "LogisticDecay",
    "ExponentialDecay",
    "MotilityModel",
    "taylor_at_one",
]


def _check_r_at_one(m) -> None:
    if not m.evaluate(1.0) > 0:
        raise ValueError(f"r(1) underflows to 0 for {m}")


@dataclass(frozen=True)
class LogisticDecay:
    """Falling logistic motility r(v) = 1 / (1 + exp(k (v - v0))).

    At the center v0 the value is exactly 1/2 and the derivatives are
    -k/4, 0, and k**3/8 for orders 1..3.
    """

    steepness: float = 8.0
    center: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.steepness) and self.steepness > 0):
            raise ValueError(f"steepness must be finite and > 0, got {self.steepness}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        _check_r_at_one(self)

    def evaluate(self, v, order: int = 0):
        k = self.steepness
        p = expit(-k * np.subtract(v, self.center, dtype=float))
        if order == 0:
            out = p
        elif order == 1:
            out = -k * p * (1.0 - p)
        elif order == 2:
            out = k * k * p * (1.0 - p) * (1.0 - 2.0 * p)
        elif order == 3:
            out = -(k ** 3) * p * (1.0 - p) * (1.0 - 6.0 * p + 6.0 * p * p)
        else:
            raise ValueError(f"derivative order must be in 0..3, got {order}")
        return out if np.ndim(v) else float(out)


@dataclass(frozen=True)
class ExponentialDecay:
    """Exponentially decaying motility r(v) = r0 * exp(-rate * v)."""

    r0: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise ValueError(f"r0 must be finite and > 0, got {self.r0}")
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        _check_r_at_one(self)

    def evaluate(self, v, order: int = 0):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be in 0..3, got {order}")
        out = self.r0 * (-self.rate) ** order * np.exp(-self.rate * np.asarray(v, dtype=float))
        return out if np.ndim(v) else float(out)


MotilityModel = Union[LogisticDecay, ExponentialDecay]


def taylor_at_one(m: MotilityModel, count: int) -> tuple[float, ...]:
    """(r(1), r'(1), ...): r and its derivatives of order < count at v = 1."""
    return tuple(m.evaluate(1.0, k) for k in range(count))
