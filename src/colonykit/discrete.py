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
place the stencil is written down: the Laplacian and its cosine-mode
eigenvalues, the stationary residual in the interleaved ordering (u_0, v_0,
u_1, v_1, ...), its Jacobian, and the implicit solves of the time stepper,
a0 I - dt Lap_h diag(c) with c = r for the density and the constant D for
the signal.  It is also the only module that calls LAPACK, through scipy's
compiled wrappers, which ``_compiled`` loads without importing
scipy.linalg: gtsv for the implicit solves, gbtrf and gbtrs for J.  Each
matrix has one layout, the one its LAPACK routine reads.

J, the Jacobian, is written in blocks, u rows then v rows,

    J = [[A, B], [I, C]],  A = Lap_h diag(r) + sigma diag(1 - 2 u),
                           B = Lap_h diag(r'(v) u),  C = D Lap_h - I,

all tridiagonal, C constant, and the derivative of the signal equation in
u the identity.  Block elimination (Govaerts, Numerical Methods for
Bifurcations of Dynamical Equilibria, SIAM 2000, ch. 3) solves
(J - s I)(x_u, x_v) = (b_u, b_v), with A_s = A - s I and C_s = C - s I, as

    S_s x_v = b_u - A_s b_v,  S_s = B - A_s C_s,   x_u = b_v - C_s x_v,

one pentadiagonal system of N+1 unknowns in place of J's 2(N+1).
``linearize`` assembles S_s from the blocks into LAPACK's band layout, a
Fortran-ordered (2 KL + KU + 1, N+1) array, bandwidths (KL, KU) = (2, 2),
whose row KL + KU + i - j holds S_s[i, j] below KL rows of pivoting
workspace, and gbtrf factors it in place.  It returns a ``Linearization``,
the one assembly and factorization of J - s I that both readers below use.
Since det(J - s I) = (-1)^(N+1) det S_s, gbtrf's info != 0 on S_s means
J - s I is singular, and the sign of det J that ROADMAP item 1 reads at
each branch point is (-1)^(N+1) times the sign of S's LU factors (U's
diagonal and the row swaps in the pivots).

``newton``, the one Newton iteration, runs pinned (fixed sigma: the
bordered system whose border row pins sigma, Keller 1977) or as
continuation's pseudo-arclength corrector, to residual max-norm
NEWTON_TOL (1e-10), by default within MAX_NEWTON_ITERS (25) steps.  Each
step linearizes once (s = 0) and solves for its two right sides in one
gbtrs call: the residual F, and F's derivative in sigma (u (1 - u), 0),
whose u part is -C x_v.  The two calls are those LAPACK's gbsv makes.
``rightmost_eigenvalues`` gives the eigenvalues of J at a state (u, v)
that decide its stability.  It runs unrestarted shift-invert Arnoldi
(Meerbergen, Spence & Roose, BIT 34, 1994) with ARNOLDI_VECTORS (60)
Krylov vectors of (J - s I)^-1, s = ARNOLDI_SHIFT (0.5), on one
factorization of S_s.  Each Krylov vector is one solve plus one step of
iterative refinement against the block product (J - s I) x (Higham,
Accuracy and Stability of Numerical Algorithms, ch. 12): S's entries
scale as 1/h^4 against J's 1/h^2, and without that step the rightmost
eigenvalues at N = 1024 lie up to 1.2e-10 from dense eigvals, against
5e-12 with it.  The eigenvalues nearest s converge first.  s lies right
of the rightmost eigenvalues of the model's steady states, so those are
among them.  The uniform state at large sigma needs the 60 vectors: its
spectrum lies at -0.13 and below for sigma >= 0.7, and with 30 no Ritz
value converged there.

Per call at N = 256, 512 and 1024 (best of 7 x 200 calls, a 2-vCPU Xeon,
one BLAS thread): the assembly of S with its two motility evaluations
36, 46 and 64 us, gbtrf 12, 24 and 48 us, and the two-column gbtrs 11,
22 and 43 us.  gbtrf and gbtrs on J's interleaved (2, 3) band of 2(N+1)
columns took 44, 86 and 94 us and 31, 58 and 81 us.  A call of
``rightmost_eigenvalues`` takes about 9, 15 and 21 ms, against 5.6, 8.4
and 8.6 ms on the interleaved band: each Krylov vector now costs two
reduced solves and a block product.
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
    "grid_eigenvalue",
    "residual",
    "Linearization",
    "linearize",
    "newton",
    "rightmost_eigenvalues",
    "implicit_solve",
]

# (lower, upper) bandwidths of the reduced Jacobian S
KL = KU = 2
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


def grid_eigenvalue(j: int, l: float, n: int) -> float:
    """The grid's mode-j eigenvalue lam_h = (4 / h^2) sin^2(pi j h / 2 l),
    h = l / n: Lap_h maps cos(pi j x / l) to -lam_h times itself."""
    h = l / n
    return (2.0 / h * math.sin(0.5 * math.pi * j * h / l)) ** 2


def residual(u, v, h: float, D: float, sigma: float, m: MotilityModel) -> np.ndarray:
    """Interleaved residual of the discrete stationary system."""
    rv = m.evaluate(v, 0)
    res_u = laplacian(rv * u, h) + sigma * u * (1.0 - u)
    res_v = D * laplacian(v, h) - v + u
    return interleave(res_u, res_v)


class Linearization:
    """J - shift I at one state (u, v) in block form, made by ``linearize``,
    with gbtrf's LU factors of its reduced matrix S_s = B - A_s C_s in
    ``lu`` and ``ipiv``.  The block products below are the linearized
    residual itself, so ``apply`` is exact up to rounding:
    A_s x + B y = Lap_h(r x + r'(v) u y) + (sigma (1 - 2 u) - shift) x."""

    def __init__(self, h, D, shift, rv, rpv_u, growth, lu, ipiv):
        self.h, self.D, self.shift = h, D, shift
        self.rv, self.rpv_u, self.growth = rv, rpv_u, growth
        self.lu, self.ipiv = lu, ipiv

    def a_times(self, x):
        """A_s x."""
        return laplacian(self.rv * x, self.h) + self.growth * x

    def c_times(self, y):
        """C_s y = D Lap_h y - (1 + shift) y."""
        return self.D * laplacian(y, self.h) - (1.0 + self.shift) * y

    def solve_reduced(self, rhs):
        """S_s y = rhs by gbtrs, for one column or a Fortran-ordered (N+1, k)
        array of them; rhs is overwritten."""
        return dgbtrs(self.lu, KL, KU, rhs, self.ipiv, overwrite_b=1)[0]

    def solve(self, b):
        """(J - shift I)^-1 b for an interleaved b: S_s y = b_u - A_s b_v for
        the v part y, and b_v - C_s y for the u part."""
        bu, bv = b[0::2], b[1::2]
        y = self.solve_reduced(bu - self.a_times(bv))
        return interleave(bv - self.c_times(y), y)

    def apply(self, x):
        """(J - shift I) x for an interleaved x, from the blocks."""
        xu, xv = x[0::2], x[1::2]
        top = laplacian(self.rv * xu + self.rpv_u * xv, self.h) + self.growth * xu
        return interleave(top, xu + self.c_times(xv))


def linearize(u, v, h: float, D: float, sigma: float, m: MotilityModel,
              shift: float = 0.0) -> Linearization:
    """J - shift I at (u, v), its reduced matrix S_s assembled in LAPACK's
    (2, 2) band of N+1 columns and factored by gbtrf.  Raises
    SingularJacobianError when gbtrf finds S_s, and so J - shift I,
    singular.

    A_s and B are tridiagonal with entries L_ij r_j (less shift on the
    diagonal, plus sigma (1 - 2 u_i)) and L_ij r'(v_j) u_j, and C_s has
    D L_ij (less 1 + shift on the diagonal).  Each entry of S_s is B less
    the sum of the products A_s[i, k] C_s[k, j]: the diagonal's three
    summed from k = i, then k = i - 1, then k = i + 1, the first
    off-diagonals' two from k = i, and the second off-diagonals' one.
    """
    hh = h * h
    w = 1.0 / hh
    rv = m.evaluate(v, 0)
    rpv_u = m.evaluate(v, 1) * u
    growth = sigma * (1.0 - 2.0 * u)
    # A_s and B by diagonal: up[i] = [i, i + 1] and down[i] = [i + 1, i],
    # the mirrored weight doubled in up[0] and down[-1]
    a_diag = -2.0 * rv / hh + growth - shift
    a_up, a_down, b_up, b_down = w * rv[1:], w * rv[:-1], w * rpv_u[1:], w * rpv_u[:-1]
    a_up[0] *= 2.0
    b_up[0] *= 2.0
    a_down[-1] *= 2.0
    b_down[-1] *= 2.0
    # C_s: off-diagonal c_off, 2 c_off at the mirrored ends, and diagonal c_diag
    c_off = D * w
    c_diag = -2.0 * D / hh - 1.0 - shift
    ab = np.zeros((2 * KL + KU + 1, u.size), order="F")
    sup2, sup1, diag, sub1, sub2 = ab[KL:]
    # the products through the off-diagonals, A[k + 1, k] C[k, k + 1] and
    # A[k, k + 1] C[k + 1, k], k = 0..N-1
    left = c_off * a_down
    left[0] *= 2.0
    right = c_off * a_up
    right[-1] *= 2.0
    np.negative(right[:-1], out=sup2[2:])
    np.negative(left[1:], out=sub2[:-2])
    up = np.multiply(c_off, a_diag[:-1], out=sup1[1:])
    up[0] *= 2.0
    up += c_diag * a_up
    np.subtract(b_up, up, out=up)
    down = np.multiply(c_off, a_diag[1:], out=sub1[:-1])
    down[-1] *= 2.0
    down += c_diag * a_down
    np.subtract(b_down, down, out=down)
    np.multiply(a_diag, c_diag, out=diag)
    diag[1:] += left
    diag[:-1] += right
    np.subtract(-2.0 * rpv_u / hh, diag, out=diag)
    lu, ipiv, info = dgbtrf(ab, KL, KU, overwrite_ab=1)
    if info != 0:
        what = f"J - {shift} I" if shift else "stationary linearization"
        raise SingularJacobianError(f"{what} is singular (gbtrf info {info})")
    return Linearization(h, D, shift, rv, rpv_u, growth - shift, lu, ipiv)


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
    # S's right sides for J a = F and J b = (u (1 - u), 0), F's derivative in
    # sigma, and the interleaved solutions a and b as the columns of sol
    rhs = np.empty((u.size, 2), order="F")
    sol = np.empty((2 * u.size, 2), order="F")
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
            lin = linearize(u, v, h, D, sigma, m)
            fu, fv = F[0::2], F[1::2]
            np.subtract(fu, lin.a_times(fv), out=rhs[:, 0])
            np.multiply(u, 1.0 - u, out=rhs[:, 1])
            y = lin.solve_reduced(rhs)
            # the u parts, f_v - C y for F and -C y for (u (1 - u), 0)
            cy = lin.c_times(y)
            sol[0::2, 0] = fv - cy[:, 0]
            sol[0::2, 1] = -cy[:, 1]
            sol[1::2] = y
            a, b = sol.T
            denom = tan_s - float(tan_x @ b) * w
            if abs(denom) < 1e-14:
                raise SingularJacobianError("bordered system is singular (tangent orthogonal)")
            d_sigma = (float(tan_x @ a) * w - N) / denom
            delta = -a - d_sigma * b
            u = u + delta[0::2]
            v = v + delta[1::2]
            sigma += d_sigma
    raise NewtonConvergenceError(f"no convergence after {max_steps} Newton steps (residual {res:.3e})")


def rightmost_eigenvalues(u, v, h: float, D: float, sigma: float, m: MotilityModel) -> np.ndarray:
    """Converged eigenvalues of J at (u, v) nearest ARNOLDI_SHIFT, in
    descending order of real part; the first gives the spectral abscissa.

    ``linearize`` factors S_s for s = ARNOLDI_SHIFT once; u and v stay
    unchanged.  Each Krylov vector is one solve of J - s I plus one step of
    iterative refinement against the block product.  A Ritz value theta of
    (J - s I)^-1 maps to the eigenvalue s + 1/theta of J.  Only Ritz pairs
    whose residual is below ARNOLDI_RTOL |theta| are returned.  Raises
    SingularJacobianError when s is an eigenvalue.
    """
    lin = linearize(u, v, h, D, sigma, m, ARNOLDI_SHIFT)
    size = 2 * u.size
    k = min(ARNOLDI_VECTORS, size)
    basis = np.empty((k + 1, size))  # Krylov vectors as rows
    hess = np.zeros((k + 1, k))
    start = np.random.default_rng(0).standard_normal(size)
    basis[0] = start / np.linalg.norm(start)
    for j in range(k):
        x = lin.solve(basis[j])
        w = x + lin.solve(basis[j] - lin.apply(x))
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
