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
and the implicit solves of the time stepper, a0 I - dt Lap_h diag(c) with
c = r for the density and the constant D for the signal.  It is also the
only module that calls LAPACK, through scipy's compiled wrappers, which
``_compiled`` loads without importing scipy.linalg: gtsv for the implicit
solves, gbtrf and gbtrs for J.  Each matrix has one layout, the one its
LAPACK routine reads.

J, the Jacobian, lives in LAPACK's band layout: a Fortran-ordered
(2 KL + KU + 1, 2 (N+1)) array, bandwidths (KL, KU) = (2, 3), whose row
KL + KU + i - j holds J[i, j] below KL rows of pivoting workspace.
``linearize`` fills it by strided slices, and gbtrf factors it in place.
``newton``, the one Newton iteration, reuses one band array for its steps,
pinned (fixed sigma: the bordered system whose border row pins sigma,
Keller 1977) or as continuation's pseudo-arclength corrector, to residual
max-norm NEWTON_TOL (1e-10), by default within MAX_NEWTON_ITERS (25) steps.
Each step factors J with gbtrf and solves for its two right sides with
gbtrs, which are the two calls LAPACK's gbsv makes.
``rightmost_eigenvalues`` gives the eigenvalues of J that decide the
stability of a steady state.  It runs unrestarted shift-invert Arnoldi
(Meerbergen, Spence & Roose, BIT 34, 1994) with ARNOLDI_VECTORS (60)
Krylov vectors of (J - s I)^-1, s = ARNOLDI_SHIFT (0.5), on one gbtrf
LU.  The eigenvalues nearest s converge first.  s lies right of the
rightmost eigenvalues of the model's steady states, so those are among
them.  The uniform state at large sigma needs the 60 vectors: its spectrum
lies at -0.13 and below for sigma >= 0.7, and with 30 no Ritz value
converged there.  A call takes 4-6 ms at N = 256 and about 13 ms at
N = 1024 (2 and 6 ms with 30).
"""

from __future__ import annotations

import math

import numpy as np

from ._compiled import dgbtrf, dgbtrs, dgtsv
from .errors import NewtonConvergenceError, SingularJacobianError
from .motility import MotilityModel

__all__ = [
    "interleave",
    "laplacian",
    "residual",
    "band_array",
    "linearize",
    "newton",
    "rightmost_eigenvalues",
    "implicit_solve",
]

# (lower, upper) bandwidths of the interleaved Jacobian
KL, KU = 2, 3
NEWTON_TOL = 1e-10
MAX_NEWTON_ITERS = 25
ARNOLDI_SHIFT = 0.5
ARNOLDI_VECTORS = 60
# a Ritz pair counts as converged when its residual is below this share of |theta|
ARNOLDI_RTOL = 1e-8


def interleave(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Node-major state vector (u_0, v_0, u_1, v_1, ...)."""
    out = np.empty(2 * u.size)
    out[0::2] = u
    out[1::2] = v
    return out


def laplacian(w: np.ndarray, h: float) -> np.ndarray:
    """3-point second difference with mirror (zero-flux) ghost closure: the
    interior is (w[:-2] - 2 w[1:-1] + w[2:]) / h^2, evaluated in that order."""
    hh = h * h
    out = np.empty_like(w)
    out[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / hh
    out[0] = 2.0 * (w[1] - w[0]) / hh
    out[-1] = 2.0 * (w[-2] - w[-1]) / hh
    return out


def residual(u, v, h: float, D: float, sigma: float, m: MotilityModel) -> np.ndarray:
    """Interleaved residual of the discrete stationary system."""
    rv = m.evaluate(v, 0)
    res_u = laplacian(rv * u, h) + sigma * u * (1.0 - u)
    res_v = D * laplacian(v, h) - v + u
    return interleave(res_u, res_v)


def band_array(npts: int) -> np.ndarray:
    """Zeroed Fortran-ordered LAPACK band array for the Jacobian on npts nodes."""
    return np.zeros((2 * KL + KU + 1, 2 * npts), order="F")


def linearize(u, v, h: float, D: float, sigma: float, m: MotilityModel, ab: np.ndarray) -> np.ndarray:
    """Write the Jacobian of the interleaved residual at (u, v) into rows KL:
    of the ``band_array`` ab and return ab.  Every band entry inside the
    matrix is written, so ab may hold the LU factors of an earlier step."""
    hh = h * h
    rv = m.evaluate(v, 0)
    rpv_u = m.evaluate(v, 1) * u
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


def newton(u, v, h: float, D: float, sigma: float, m: MotilityModel, border=None, max_steps=None):
    """Newton iteration on the stationary system from (u, v, sigma), which stay unchanged.

    border = (tan_x, tan_s, anchor_x, anchor_s, ds, w) frees sigma and adds
    the row N = w tan_x . (X - anchor_x) + tan_s (sigma - anchor_s) - ds = 0
    for the interleaved state X.  None pins sigma (tan_x = 0, tan_s = 1,
    anchor_s = sigma, ds = 0), so N and every sigma update are exactly 0.
    Returns (u, v, sigma, steps, residual max-norm) once that max-norm is
    below NEWTON_TOL and |N| < max(1e-12, 1e-6 |ds|), checked before each
    step and after the last.  Raises SingularJacobianError when J or the
    bordered system is singular and NewtonConvergenceError when the iterates
    leave the finite range or max_steps steps (None: MAX_NEWTON_ITERS, read
    at call time) do not converge.
    """
    if border is None:
        border = (np.zeros(2 * u.size), 1.0, 0.0, sigma, 0.0, 1.0)
    tan_x, tan_s, anchor_x, anchor_s, ds, w = border
    max_steps = MAX_NEWTON_ITERS if max_steps is None else max_steps
    ab = band_array(u.size)
    # columns: the residual F and its derivative in sigma, (u (1 - u), 0) interleaved
    rhs = np.empty((ab.shape[1], 2), order="F")
    # an overflowing iterate fails the finiteness check; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(max_steps + 1):
            F = residual(u, v, h, D, sigma, m)
            # max propagates NaN, so this is also the finiteness check
            res = float(np.max(np.abs(F)))
            if not math.isfinite(res):
                raise NewtonConvergenceError("residual became non-finite during Newton iteration")
            N = float(tan_x @ (interleave(u, v) - anchor_x)) * w + tan_s * (sigma - anchor_s) - ds
            if res < NEWTON_TOL and abs(N) < max(1e-12, 1e-6 * abs(ds)):
                return u, v, sigma, step, res
            if step == max_steps:
                break
            rhs[:, 0] = F
            rhs[0::2, 1] = u * (1.0 - u)
            rhs[1::2, 1] = 0.0
            lu, ipiv, info = dgbtrf(linearize(u, v, h, D, sigma, m, ab), KL, KU, overwrite_ab=1)
            if info != 0:
                raise SingularJacobianError(
                    f"stationary linearization is singular (gbtrf info {info})")
            a, b = dgbtrs(lu, KL, KU, rhs, ipiv, overwrite_b=1)[0].T
            denom = tan_s - float(tan_x @ b) * w
            if abs(denom) < 1e-14:
                raise SingularJacobianError("bordered system is singular (tangent orthogonal)")
            d_sigma = (float(tan_x @ a) * w - N) / denom
            delta = -a - d_sigma * b
            u = u + delta[0::2]
            v = v + delta[1::2]
            sigma += d_sigma
    raise NewtonConvergenceError(f"no convergence after {max_steps} Newton steps (residual {res:.3e})")


def rightmost_eigenvalues(ab: np.ndarray) -> np.ndarray:
    """Converged eigenvalues of J nearest ARNOLDI_SHIFT, in descending order
    of real part; the first gives the spectral abscissa.

    J is written into the ``band_array`` ab by ``linearize``; ab is
    overwritten by the LU factors of J - s I.  A Ritz value theta of
    (J - s I)^-1 maps to the eigenvalue s + 1/theta of J.  Only Ritz pairs
    whose residual is below ARNOLDI_RTOL |theta| are returned.  Raises
    SingularJacobianError when s is an eigenvalue.
    """
    size = ab.shape[1]
    ab[KL + KU] -= ARNOLDI_SHIFT
    lu, ipiv, info = dgbtrf(ab, KL, KU, overwrite_ab=1)
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


def implicit_solve(a0: float, dt: float, h: float, c, rhs: np.ndarray):
    """The solution x of (a0 I - dt Lap_h diag(c)) x = rhs by LAPACK gtsv, or
    None when gtsv finds the matrix singular; c is an array of N+1 node
    values or one constant, and rhs is overwritten.  Entry (i, j) of
    Lap_h diag(c) is L_ij c_j.  With w = (dt / h^2) c the main diagonal is
    a0 + 2 w, the sub-diagonal -w[:-1] and the super-diagonal -w[1:], the
    mirrored weights, the last of the sub- and the first of the
    super-diagonal, doubled."""
    w = np.multiply(dt / (h * h), c, out=np.empty_like(rhs))
    dl, du = -w[:-1], -w[1:]
    dl[-1] *= 2.0
    du[0] *= 2.0
    *_, x, info = dgtsv(dl, a0 + 2.0 * w, du, rhs, 1, 1, 1, 1)
    return x if info == 0 else None
