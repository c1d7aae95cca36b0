"""The spatially discrete colony model shared by every solver.

Uniform grid x_i = i h, i = 0..N, on [0, l].  Zero-flux ends are closed by
mirror ghost nodes (w_{-1} = w_1, w_{N+1} = w_{N-1}), which doubles the
inward off-diagonal weight of the 3-point Laplacian in both boundary rows.
The discrete stationary system is

    Lap_h(r(v) u) + sigma u (1 - u) = 0
    D Lap_h v - v + u              = 0

with the motility product w = r(v) u formed before the Laplacian is
applied (divergence form).  The time stepper's steady states solve it and
continuation traces its nonconstant branches.  This module is the only
place the stencil is written down: the Laplacian, the stationary residual
in the interleaved ordering (u_0, v_0, u_1, v_1, ...), its banded Jacobian,
and the backward-Euler band matrix of the signal equation.

J, the Jacobian, lives in LAPACK's band layout: a Fortran-ordered
(2 KL + KU + 1, 2 (N+1)) array, bandwidths (KL, KU) = (2, 3), whose row
KL + KU + i - j holds J[i, j] below KL rows of pivoting workspace.  Each
Newton loop reuses one: ``linearize`` fills it by strided slices and
``solve`` calls LAPACK gbsv on it in place.  ``newton`` converges once the
residual max-norm is below NEWTON_TOL (1e-10) and gives up after
MAX_NEWTON_ITERS (25) iterations.
``rightmost_eigenvalues`` gives the eigenvalues of J that decide the
stability of a steady state.  It runs unrestarted shift-invert Arnoldi
(Meerbergen, Spence & Roose, BIT 34, 1994) with ARNOLDI_VECTORS (30)
Krylov vectors of (J - s I)^-1, s = ARNOLDI_SHIFT (0.5), on one LAPACK
banded LU.  The eigenvalues nearest s converge first.  s lies right of the
rightmost eigenvalues of the model's steady states, so those are among
them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgbsv, dgbtrf, dgbtrs

from .errors import NewtonConvergenceError, SingularJacobianError
from .motility import MotilityModel

__all__ = [
    "interleave",
    "laplacian",
    "residual",
    "band_array",
    "linearize",
    "jacobian_banded",
    "solve",
    "newton",
    "rightmost_eigenvalues",
    "signal_band",
]

# (lower, upper) bandwidths of the interleaved Jacobian
KL, KU = 2, 3
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 25
ARNOLDI_SHIFT = 0.5
ARNOLDI_VECTORS = 30
# a Ritz pair counts as converged when its residual is below this share of |theta|
ARNOLDI_RTOL = 1e-8


def interleave(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Node-major state vector (u_0, v_0, u_1, v_1, ...)."""
    out = np.empty(2 * u.size)
    out[0::2] = u
    out[1::2] = v
    return out


def laplacian(w: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """3-point second difference with mirror (zero-flux) ghost closure.

    The interior is (w[:-2] - 2 w[1:-1] + w[2:]) / h^2, evaluated in that
    order in place in out, which must not share memory with w.
    """
    if out is None:
        out = np.empty_like(w)
    hh = h * h
    inner = out[1:-1]
    np.multiply(w[1:-1], 2.0, out=inner)
    np.subtract(w[:-2], inner, out=inner)
    np.add(inner, w[2:], out=inner)
    np.divide(inner, hh, out=inner)
    out[0] = 2.0 * (w[1] - w[0]) / hh
    out[-1] = 2.0 * (w[-2] - w[-1]) / hh
    return out


def residual(u, v, h: float, D: float, sigma: float, m: MotilityModel) -> np.ndarray:
    """Interleaved residual of the discrete stationary system."""
    rv = np.asarray(m.evaluate(v, 0), dtype=float)
    res_u = laplacian(rv * u, h) + sigma * u * (1.0 - u)
    res_v = D * laplacian(v, h) - v + u
    return interleave(res_u, res_v)


def band_array(npts: int) -> np.ndarray:
    """Zeroed Fortran-ordered LAPACK band array for the Jacobian on npts nodes."""
    return np.zeros((2 * KL + KU + 1, 2 * npts), order="F")


def linearize(u, v, h: float, D: float, sigma: float, m: MotilityModel, ab: np.ndarray) -> np.ndarray:
    """Write the Jacobian of the interleaved residual at (u, v) into rows KL:
    of the ``band_array`` ab and return ab.  Every band entry inside the
    matrix is written, so ab may hold the LU factors of an earlier ``solve``."""
    hh = h * h
    rv = np.asarray(m.evaluate(v, 0), dtype=float)
    rpv_u = np.asarray(m.evaluate(v, 1), dtype=float) * u
    # zero-flux stencil weights: row i couples i-1, i, i+1 with the
    # off-diagonal weight doubled at the mirrored boundaries
    sup_w = np.full(u.size - 1, 1.0 / hh)
    sup_w[0] = 2.0 / hh
    sub_w = np.full(u.size - 1, 1.0 / hh)
    sub_w[-1] = 2.0 / hh
    sup3, sup2, sup1, diag, sub1, sub2 = ab[KL:]
    sup3[0::2] = 0.0
    sup3[3::2] = sup_w * rpv_u[1:]
    sup2[2::2] = sup_w * rv[1:]
    sup2[3::2] = D * sup_w
    sup1[0::2] = 0.0
    sup1[1::2] = -2.0 * rpv_u / hh
    diag[0::2] = -2.0 * rv / hh + sigma * (1.0 - 2.0 * u)
    diag[1::2] = -2.0 * D / hh - 1.0
    sub1[0::2] = 1.0
    sub1[1:-1:2] = sub_w * rpv_u[:-1]
    sub2[0:-2:2] = sub_w * rv[:-1]
    sub2[1:-2:2] = D * sub_w
    return ab


def jacobian_banded(u, v, h: float, D: float, sigma: float, m: MotilityModel) -> np.ndarray:
    """Banded Jacobian of the interleaved residual, laid out for
    scipy.linalg.solve_banded with bandwidths (KL, KU)."""
    return linearize(u, v, h, D, sigma, m, band_array(u.size))[KL:]


def solve(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J x = rhs for J written into ab by ``linearize`` and rhs one vector or
    Fortran-ordered columns; ab is overwritten by the LU factors and rhs by x."""
    _, _, x, info = dgbsv(KL, KU, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SingularJacobianError(f"stationary linearization is singular (gbsv info {info})")
    return x


def newton(u, v, h: float, D: float, sigma: float, m: MotilityModel):
    """Newton iteration on the stationary system from (u, v), which stay unchanged.

    Returns (u, v, iterations, residual max-norm) once the residual
    max-norm is below NEWTON_TOL.  Raises SingularJacobianError when the
    linearization is singular and NewtonConvergenceError when the
    iteration budget runs out or the iterates leave the finite range.
    """
    u = u.copy()
    v = v.copy()
    ab = band_array(u.size)
    for it in range(MAX_NEWTON_ITERS + 1):
        F = residual(u, v, h, D, sigma, m)
        # max propagates NaN, so this is also the finiteness check
        res = float(np.max(np.abs(F)))
        if not math.isfinite(res):
            raise NewtonConvergenceError("residual became non-finite during Newton iteration")
        if res < NEWTON_TOL:
            return u, v, it, res
        if it == MAX_NEWTON_ITERS:
            break
        delta = solve(linearize(u, v, h, D, sigma, m, ab), F)
        u -= delta[0::2]
        v -= delta[1::2]
    raise NewtonConvergenceError(
        f"no convergence after {MAX_NEWTON_ITERS} Newton iterations (residual {res:.3e})"
    )


def rightmost_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """Converged eigenvalues of the banded Jacobian ab nearest ARNOLDI_SHIFT,
    in descending order of real part; the first gives the spectral abscissa.

    A Ritz value theta of (J - s I)^-1 maps to the eigenvalue s + 1/theta of
    J.  Only Ritz pairs whose residual is below ARNOLDI_RTOL |theta| are
    returned.  Raises SingularJacobianError when s is an eigenvalue.
    """
    size = ab.shape[1]
    lu = band_array(size // 2)
    lu[KL:] = ab
    lu[KL + KU] -= ARNOLDI_SHIFT
    lu, ipiv, info = dgbtrf(lu, KL, KU, overwrite_ab=1)
    if info != 0:
        raise SingularJacobianError(f"J - {ARNOLDI_SHIFT} I is singular (gbtrf info {info})")
    k = min(ARNOLDI_VECTORS, size)
    basis = np.empty((k + 1, size))  # Krylov vectors as rows
    hess = np.zeros((k + 1, k))
    start = np.random.default_rng(0).standard_normal(size)
    basis[0] = start / np.linalg.norm(start)
    for j in range(k):
        w = dgbtrs(lu, KL, KU, basis[j], ipiv)[0]
        # classical Gram-Schmidt, done twice to keep the basis orthogonal
        for _ in range(2):
            c = basis[: j + 1] @ w
            w -= c @ basis[: j + 1]
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        if hess[j + 1, j] == 0.0:  # invariant subspace: its Ritz values are exact
            k = j + 1
            break
        basis[j + 1] = w / hess[j + 1, j]
    theta, vecs = np.linalg.eig(hess[:k, :k])
    converged = abs(hess[k, k - 1]) * np.abs(vecs[-1]) <= ARNOLDI_RTOL * np.abs(theta)
    lam = ARNOLDI_SHIFT + 1.0 / theta[converged]
    return lam[np.argsort(-lam.real, kind="stable")]


def signal_band(dt: float, h: float, D: float, out: np.ndarray) -> np.ndarray:
    """Fill the (3, N+1) array out with (1 + dt) I - dt D Lap_h, the
    backward-Euler matrix of the signal equation, laid out for
    scipy.linalg.solve_banded with bandwidths (1, 1)."""
    c = D * dt / (h * h)
    out[0].fill(-c)
    out[0, 0] = 0.0
    out[0, 1] = -2.0 * c
    out[1].fill(1.0 + dt + 2.0 * c)
    out[2].fill(-c)
    out[2, -1] = 0.0
    out[2, -2] = -2.0 * c
    return out
