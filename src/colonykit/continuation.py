"""Nonconstant steady states by Newton iteration and branch tracing.

The discrete stationary system of ``discrete`` (the one the time stepper's
steady states solve) is solved by ``discrete.newton``: at fixed sigma by
``newton_steady`` and for a trace's seed, and bordered by the arclength
condition as the corrector.  ``trace_branch`` traces a branch in the
growth rate by pseudo-arclength continuation, one loop over
``_arclength_step``: secant predictor, bordered Newton corrector, halving
retry.  The state part of the arclength metric is mean-squared so domain
resolution does not change the parameterization.

Fixed settings: the corrector converges at its residual max-norm
NEWTON_TOL (1e-10) and gives up after MAX_CORRECTOR_STEPS (7) Newton steps.
The seed lies SEED_OFFSET (1e-3) below the grid's own onset, and the first
arclength step is DS_START (1e-3).  The loop doubles the step after a
corrector that needed at most 3 steps, up to DS_MAX (5e-2).  The step
function halves it down to DS_MIN (1e-5) after a corrector that fails or
collapses onto the uniform state (max|u - 1| below COLLAPSE_FLOOR, 1e-9).
A trace stops, tested in this order, at sigma_min, at MAX_POINTS (2000)
points, on corrector failure at DS_MIN, outside the box [1 / B_MAX, B_MAX]
(``pde_solver.B_MAX``, 100, the simulator's blow-up bound), on a repeated
point, or after MAX_FOLDS (4) folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .asymptotics import epsilon_for_sigma, expansion_coefficients, second_order_profiles
from .discrete import grid_eigenvalue, interleave, newton
from .errors import ColonyKitError, NewtonError, SeedFailureError
from .linear_analysis import BifurcationSummary, ModelParams, _bifurcation_sigma, scan_modes
from .motility import MotilityModel, taylor_at_one
from .pde_solver import B_MAX, Field, modal_spectrum

__all__ = [
    "BranchPoint",
    "BranchCurve",
    "Termination",
    "newton_steady",
    "trace_branch",
]

MAX_CORRECTOR_STEPS = 7
DS_START = 1e-3
DS_MIN = 1e-5
DS_MAX = 5e-2
SEED_OFFSET = 1e-3
MAX_POINTS = 2000
MAX_FOLDS = 4
COLLAPSE_FLOOR = 1e-9


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
    return _branch_point(p.l, *newton(init.u, init.v, init.h, p.D, p.sigma, m))


def _branch_point(l, u, v, sigma, iters, res) -> BranchPoint:
    """The point of a converged ``discrete.newton`` result on length l."""
    return BranchPoint(sigma, Field(u=u, v=v, l=l), float(np.max(np.abs(u - 1.0))), iters, res)


# ---------------------------------------------------------------------------
# pseudo-arclength tracing
# ---------------------------------------------------------------------------


def _arclength_step(X, s, tan_x, tan_s, ds, h, p, m, w):
    """Predict ds along the secant from (X, s) and correct by the bordered
    ``newton``, halving ds after a failed or collapsed corrector down to
    DS_MIN.  Returns (point, ds), or (None, ds) once DS_MIN fails too."""
    while True:
        try:
            bp = _branch_point(p.l, *newton(
                X[0::2] + ds * tan_x[0::2], X[1::2] + ds * tan_x[1::2], h, p.D, s + ds * tan_s, m,
                (tan_x, tan_s, X, s, ds, w), MAX_CORRECTOR_STEPS,
            ))
        except NewtonError:
            bp = None
        if bp is not None and bp.amplitude >= COLLAPSE_FLOOR:
            return bp, ds
        if ds <= DS_MIN * (1 + 1e-12):
            return None, ds
        ds = max(DS_MIN, 0.5 * ds)


def trace_branch(
    j: int,
    p: ModelParams,
    m: MotilityModel,
    sigma_min: float,
    *,
    n: int = 256,
    summary: BifurcationSummary | None = None,
) -> BranchCurve:
    """Trace the mode-j steady-state branch from just below its bifurcation
    value down to sigma_min.

    The seed lies SEED_OFFSET below the grid's own onset sigma_h, the
    bifurcation value of the discrete eigenvalue of mode j.  One
    ``newton_steady`` at sigma_h - SEED_OFFSET solves it from the
    second-order approximate state at sigma0_j - SEED_OFFSET.  A seed that
    fails or whose dominant mode (``modal_spectrum``; 0 for a collapsed
    seed) is not j raises SeedFailureError.  The trace then loops over
    ``_arclength_step``, the first along -sigma (a natural step of
    DS_START), and returns at the first exit met, in loop order: sigma_min,
    the point cap, corrector failure at the minimum step, a state outside
    the box (not kept), a repeated point (kept; also NEWTON_FAILURE) or the
    fold budget.  Raises ValueError unless sigma_min is finite and >= 0 and
    n >= 16.
    """
    if not (math.isfinite(sigma_min) and sigma_min >= 0):
        raise ValueError(f"sigma_min must be finite and >= 0, got {sigma_min}")
    if n < 16:
        raise ValueError(f"resolution n must be >= 16, got {n}")
    if summary is None:
        summary = scan_modes(p, m)
    try:
        expansion = expansion_coefficients(j, p, m, summary)
    except ColonyKitError as exc:
        raise SeedFailureError(f"mode {j} has no branch to seed: {exc}") from exc

    h = p.l / n
    # the grid's own onset lies above or below sigma0 by up to a few 1e-3 on a coarse grid
    sigma_seed = _bifurcation_sigma(grid_eigenvalue(j, p.l, n), p, *taylor_at_one(m, 2)) - SEED_OFFSET
    if sigma_seed <= sigma_min:
        return BranchCurve(j, (), Termination.REACHED_SIGMA_MIN)

    eps = epsilon_for_sigma(expansion, expansion.sigma0 - SEED_OFFSET)
    seed_field = Field(*second_order_profiles(expansion, eps, np.linspace(0.0, p.l, n + 1)), l=p.l)
    try:
        bp0 = newton_steady(seed_field, replace(p, sigma=sigma_seed), m)
    except ColonyKitError as exc:
        raise SeedFailureError(f"seed Newton solve failed for mode {j}: {exc}") from exc
    dominant = modal_spectrum(bp0.field).dominant
    if dominant != j:
        raise SeedFailureError(f"mode {j} seed converged onto mode {dominant}")

    points = [bp0]
    w = 1.0 / (2 * (n + 1))
    X_cur, s_cur = interleave(bp0.field.u, bp0.field.v), sigma_seed
    # the first tangent is straight down in sigma: the first corrector is a natural step
    tan_x, tan_s = np.zeros_like(X_cur), -1.0
    step_size = DS_START
    folds = 0
    while points[-1].sigma > sigma_min and len(points) < MAX_POINTS:
        bp, step_size = _arclength_step(X_cur, s_cur, tan_x, tan_s, step_size, h, p, m, w)
        if bp is None:
            return BranchCurve(j, tuple(points), Termination.NEWTON_FAILURE)
        X_new = interleave(bp.field.u, bp.field.v)
        if np.min(X_new) < 1.0 / B_MAX or np.max(X_new) > B_MAX:
            return BranchCurve(j, tuple(points), Termination.AMPLITUDE_BOUND)
        points.append(bp)
        d_x, d_s = X_new - X_cur, bp.sigma - s_cur
        scale = math.sqrt(float(d_x @ d_x) * w + d_s * d_s)
        if scale == 0.0:  # the corrector returned the previous point
            return BranchCurve(j, tuple(points), Termination.NEWTON_FAILURE)
        if d_s * tan_s < 0:
            folds += 1
        if folds > MAX_FOLDS:
            return BranchCurve(j, tuple(points), Termination.FOLD_LIMIT)
        X_cur, s_cur = X_new, bp.sigma
        # the secant, unit length in the arclength metric w |X|^2 + sigma^2
        tan_x, tan_s = d_x / scale, d_s / scale
        if bp.newton_iters <= 3:
            step_size = min(2.0 * step_size, DS_MAX)
    end = Termination.REACHED_SIGMA_MIN if points[-1].sigma <= sigma_min else Termination.MAX_POINTS
    return BranchCurve(j, tuple(points), end)
