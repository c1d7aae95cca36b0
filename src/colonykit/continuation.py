"""Nonconstant steady states by Newton iteration and branch tracing.

The discrete stationary system of ``discrete`` (the one the time stepper's
steady states solve) is solved by Newton with its analytically assembled
banded Jacobian in the interleaved ordering (u_0, v_0, u_1, v_1, ...).
Branches in the growth rate are traced by pseudo-arclength continuation:
secant predictor, Newton corrector on the bordered system, adaptive step.
The state part of the arclength metric is mean-squared so domain resolution
does not change the parameterization.

Fixed settings: Newton is ``discrete.newton``, and the corrector converges
at its residual max-norm NEWTON_TOL (1e-10) and gives up after
MAX_CORRECTOR_ITERS (8) iterations.  Step control doubles the step after a
corrector that needed at most 3 iterations, up to DS_MAX (5e-2), and halves
it on failure down to DS_MIN (1e-5).  A trace stops when a state leaves the
box [1 / B_MAX, B_MAX] (B_MAX = 100), after MAX_FOLDS (4) folds, or at
MAX_POINTS (2000) points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .asymptotics import epsilon_for_sigma, expansion_coefficients, second_order_profiles
from .discrete import NEWTON_TOL, band_array, interleave, linearize, newton, residual, solve
from .errors import (
    ColonyKitError,
    NewtonConvergenceError,
    SeedFailureError,
    SingularJacobianError,
)
from .linear_analysis import BifurcationSummary, ModelParams, _bifurcation_sigma, scan_modes
from .motility import MotilityModel, taylor_at_one
from .pde_solver import Field

__all__ = [
    "BranchPoint",
    "BranchCurve",
    "Termination",
    "newton_steady",
    "trace_branch",
]

MAX_CORRECTOR_ITERS = 8
DS_MIN = 1e-5
DS_MAX = 5e-2
B_MAX = 100.0
MAX_POINTS = 2000
MAX_FOLDS = 4


@dataclass(frozen=True)
class BranchPoint:
    sigma: float
    field: Field
    amplitude: float      # max-norm of u - 1
    newton_iters: int
    residual: float


class Termination(Enum):
    REACHED_SIGMA_MIN = "reached_sigma_min"
    AMPLITUDE_BOUND = "amplitude_bound"
    NEWTON_FAILURE = "newton_failure"
    FOLD_LIMIT = "fold_limit"
    MAX_POINTS = "max_points"


@dataclass(frozen=True)
class BranchCurve:
    j: int
    points: tuple[BranchPoint, ...]
    termination: Termination

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([bp.sigma for bp in self.points])


def newton_steady(init: Field, p: ModelParams, m: MotilityModel) -> BranchPoint:
    """Solve the discrete stationary system by Newton from the given field.

    Runs ``discrete.newton``: converges when the residual max-norm drops
    below NEWTON_TOL.  Raises SingularJacobianError at parameter values
    where the linearization is degenerate (bifurcation points) and
    NewtonConvergenceError when the iteration budget runs out or the
    iterates leave the finite range.
    """
    if abs(init.l - p.l) > 1e-9 * max(1.0, p.l):
        raise ValueError(f"field length {init.l} does not match params length {p.l}")
    u, v, iters, res = newton(init.u, init.v, init.h, p.D, p.sigma, m)
    return BranchPoint(
        sigma=p.sigma,
        field=Field(u=u, v=v, l=p.l),
        amplitude=float(np.max(np.abs(u - 1.0))),
        newton_iters=iters,
        residual=res,
    )


# ---------------------------------------------------------------------------
# pseudo-arclength tracing
# ---------------------------------------------------------------------------


def _dot(xu, xs, yu, ys, w) -> float:
    """Arclength inner product: state part weighted by w, plus sigma part."""
    return float(xu @ yu) * w + xs * ys


def _corrector(u, v, sigma, tan_u, tan_s, anchor_u, anchor_s, ds, h, D, m, w):
    """Newton on the bordered (stationary + arclength) system.

    Returns (u, v, sigma, iters, residual) or raises a Newton error.
    """
    ab = band_array(u.size)
    # columns: the residual F and its derivative in sigma, (u (1 - u), 0) interleaved
    rhs = np.empty((ab.shape[1], 2), order="F")
    for it in range(1, MAX_CORRECTOR_ITERS + 1):
        F = residual(u, v, h, D, sigma, m)
        res = float(np.max(np.abs(F)))
        if not math.isfinite(res):
            raise NewtonConvergenceError("corrector produced non-finite residual")
        N = _dot(tan_u, tan_s, interleave(u, v) - anchor_u, sigma - anchor_s, w) - ds
        if res < NEWTON_TOL and abs(N) < max(1e-12, 1e-6 * abs(ds)):
            return u, v, sigma, it - 1, res

        rhs[:, 0] = F
        rhs[0::2, 1] = u * (1.0 - u)
        rhs[1::2, 1] = 0.0
        # one factorization for both right-hand sides
        a, b = solve(linearize(u, v, h, D, sigma, m, ab), rhs).T
        denom = tan_s - _dot(tan_u, 0.0, b, 0.0, w)
        if abs(denom) < 1e-14:
            raise SingularJacobianError("bordered system is singular (tangent orthogonal)")
        d_sigma = (_dot(tan_u, 0.0, a, 0.0, w) - N) / denom
        delta = -a - d_sigma * b
        u = u + delta[0::2]
        v = v + delta[1::2]
        sigma = sigma + d_sigma
    raise NewtonConvergenceError(
        f"corrector did not converge in {MAX_CORRECTOR_ITERS} iterations"
    )


def trace_branch(
    j: int,
    p: ModelParams,
    m: MotilityModel,
    sigma_min: float,
    ds: float = 1e-3,
    *,
    n: int = 256,
    seed_offset: float = 1e-3,
    summary: BifurcationSummary | None = None,
) -> BranchCurve:
    """Trace the mode-j steady-state branch from just below its bifurcation
    value down to sigma_min.

    Seeds with the second-order approximate state at sigma0_j - seed_offset,
    then follows the branch by pseudo-arclength steps (doubling after fast
    corrector convergence, halving on failure).  Terminates on sigma_min,
    a box-bound violation, corrector failure at the minimum step, the fold
    budget, or the cap on the point count.
    """
    if ds <= 0:
        raise ValueError(f"ds must be > 0, got {ds}")
    if summary is None:
        summary = scan_modes(p, m)
    try:
        expansion = expansion_coefficients(j, p, m, summary)
    except ColonyKitError as exc:
        raise SeedFailureError(f"mode {j} has no branch to seed: {exc}") from exc

    sigma_seed = expansion.sigma0 - seed_offset
    if sigma_seed <= sigma_min:
        return BranchCurve(j=j, points=(), termination=Termination.REACHED_SIGMA_MIN)

    grid = np.linspace(0.0, p.l, n + 1)
    h = p.l / n
    # a coarse grid's onset, at the eigenvalue (4 / h^2) sin^2(pi j h / 2 l), can lie well
    # above sigma0; if the seed collapses, a second one takes eps from that onset
    lam_h = (2.0 / h * math.sin(0.5 * math.pi * j * h / p.l)) ** 2
    ratio_h = (sigma_seed - _bifurcation_sigma(lam_h, p, *taylor_at_one(m, 2))) / expansion.sigma2
    for eps in (epsilon_for_sigma(expansion, sigma_seed), math.sqrt(max(ratio_h, 0.0))):
        seed_field = Field(*second_order_profiles(expansion, eps, grid), l=p.l)
        try:
            bp0 = newton_steady(seed_field, replace(p, sigma=sigma_seed), m)
        except ColonyKitError as exc:
            raise SeedFailureError(f"seed Newton solve failed for mode {j}: {exc}") from exc
        if bp0.amplitude >= 1e-9:
            break
    else:
        raise SeedFailureError(f"mode {j} seed collapsed onto the uniform state")

    points = [bp0]
    w = 1.0 / (2 * (n + 1))

    # second point by a natural step in sigma to start the secant tangent
    sigma_next = sigma_seed - min(ds, seed_offset)
    try:
        bp1 = newton_steady(bp0.field, replace(p, sigma=sigma_next), m)
    except ColonyKitError as exc:
        raise SeedFailureError(f"could not take the first continuation step: {exc}") from exc
    points.append(bp1)

    X_cur, s_cur = interleave(bp1.field.u, bp1.field.v), bp1.sigma
    tan_u = X_cur - interleave(bp0.field.u, bp0.field.v)
    tan_s = s_cur - bp0.sigma
    scale = math.sqrt(_dot(tan_u, tan_s, tan_u, tan_s, w))
    tan_u /= scale
    tan_s /= scale

    step_size = ds
    folds = 0
    termination = None
    while termination is None:
        if points[-1].sigma <= sigma_min:
            termination = Termination.REACHED_SIGMA_MIN
            break
        if len(points) >= MAX_POINTS:
            termination = Termination.MAX_POINTS
            break
        u_pred = X_cur[0::2] + step_size * tan_u[0::2]
        v_pred = X_cur[1::2] + step_size * tan_u[1::2]
        s_pred = s_cur + step_size * tan_s
        try:
            u_new, v_new, s_new, iters, res = _corrector(
                u_pred, v_pred, s_pred, tan_u, tan_s, X_cur, s_cur, step_size,
                h, p.D, m, w,
            )
            amplitude = float(np.max(np.abs(u_new - 1.0)))
            if amplitude < 1e-9:
                raise NewtonConvergenceError("corrector collapsed onto the uniform state")
        except (NewtonConvergenceError, SingularJacobianError):
            if step_size <= DS_MIN * (1 + 1e-12):
                termination = Termination.NEWTON_FAILURE
                break
            step_size = max(DS_MIN, 0.5 * step_size)
            continue

        lo = min(float(np.min(u_new)), float(np.min(v_new)))
        hi = max(float(np.max(u_new)), float(np.max(v_new)))
        if lo < 1.0 / B_MAX or hi > B_MAX:
            termination = Termination.AMPLITUDE_BOUND
            break

        points.append(BranchPoint(s_new, Field(u=u_new, v=v_new, l=p.l), amplitude, iters, res))

        X_new = interleave(u_new, v_new)
        new_tan_u = X_new - X_cur
        new_tan_s = s_new - s_cur
        X_cur, s_cur = X_new, s_new
        scale = math.sqrt(_dot(new_tan_u, new_tan_s, new_tan_u, new_tan_s, w))
        if scale == 0.0:
            termination = Termination.NEWTON_FAILURE
            break
        new_tan_u /= scale
        new_tan_s /= scale
        if new_tan_s * tan_s < 0:
            folds += 1
        tan_u, tan_s = new_tan_u, new_tan_s
        if folds > MAX_FOLDS:
            termination = Termination.FOLD_LIMIT
            break
        if iters <= 3:
            step_size = min(2.0 * step_size, DS_MAX)

    return BranchCurve(j=j, points=tuple(points), termination=termination)
