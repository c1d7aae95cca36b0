"""Motility functions r(v) and their first three derivatives.

The colony model's destabilizing mechanism is a bacterial diffusivity r(v)
that decreases with the signal concentration v.  The PDE right-hand side
evaluates r on whole grids through each family's ``evaluate``; the linear
analysis and the expansion read only the Taylor data of r at v = 1, and
both take it from ``taylor_at_one``, so that data has a single source.

Structural requirements on r: positive and strictly decreasing on the
working range, and r'(1) + r(1) < 0 for an instability window to exist.
Both configurable families meet the first two by construction, and their
constructors reject parameters whose r(1) underflows to 0 (the linear
analysis divides by r(1)); the linear analysis checks the third where it
needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._compiled import expit
from .errors import EvaluationError

__all__ = [
    "LogisticDecay",
    "ExponentialDecay",
    "CustomMotility",
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
        x = np.subtract(v, self.center, dtype=float)
        if order == 0 and x.ndim:
            # the time stepper's call, once per step: one temporary, reused
            # in place; (v - v0) * -k is the same IEEE product as -k (v - v0)
            return expit(np.multiply(x, -k, out=x), out=x)
        p = expit(-k * x)
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


# Base step for finite-difference derivatives of custom evaluators.  Third
# derivatives with much smaller steps drown in rounding noise; this value
# together with one Richardson level meets a 1e-6 agreement target against
# analytic derivatives.
_FD_STEP = 1e-4


@dataclass(frozen=True)
class CustomMotility:
    """Motility defined by a sampled evaluator; derivatives via central
    finite differences (5-point stencils, one Richardson level on an
    (h, 2h) pair so the extrapolation does not shrink the step into noise).

    The evaluator must accept numpy arrays of concentrations.
    """

    func: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def _sample(self, v):
        try:
            out = np.asarray(self.func(np.asarray(v, dtype=float)), dtype=float)
        except Exception as exc:
            raise EvaluationError(f"motility evaluator failed at v={v!r}: {exc}") from exc
        if not np.all(np.isfinite(out)):
            raise EvaluationError(f"motility evaluator returned non-finite values at v={v!r}")
        return out

    def _stencil(self, v, order: int, h: float):
        v = np.asarray(v, dtype=float)
        f = [self._sample(v + i * h) for i in (-2, -1, 0, 1, 2)]
        if order == 1:
            return (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        if order == 2:
            return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        return (-f[0] + 2 * f[1] - 2 * f[3] + f[4]) / (2 * h ** 3)

    def evaluate(self, v, order: int = 0):
        if order == 0:
            out = self._sample(v)
            return out if np.ndim(v) else float(out)
        if order not in (1, 2, 3):
            raise ValueError(f"derivative order must be in 0..3, got {order}")
        h = _FD_STEP * max(1.0, float(np.max(np.abs(v))))
        fine = self._stencil(v, order, h)
        coarse = self._stencil(v, order, 2 * h)
        if order in (1, 2):
            # 5-point stencils are O(h^4); Richardson removes the h^4 term.
            out = (16.0 * fine - coarse) / 15.0
        else:
            # the 5-point third-derivative stencil is O(h^2)
            out = (4.0 * fine - coarse) / 3.0
        return out if np.ndim(v) else float(out)


MotilityModel = Union[LogisticDecay, ExponentialDecay, CustomMotility]


def taylor_at_one(m: MotilityModel, count: int) -> tuple[float, ...]:
    """(r(1), r'(1), ...): r and its derivatives of order < count at v = 1."""
    return tuple(float(m.evaluate(1.0, k)) for k in range(count))
