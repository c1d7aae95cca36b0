"""Oracle tests for the band-layout linearization and the direct LAPACK solve.

The reference functions below are the assembly and solves they replaced: the
Jacobian assembled by fancy indexing into a fresh (6, 2N) array, and Newton
and the bordered corrector solving through scipy.linalg.solve_banded.  The
arithmetic is unchanged, so every comparison is exact (np.array_equal).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

from colonykit import (
    CustomMotility,
    ExponentialDecay,
    LogisticDecay,
    ModelParams,
    NewtonConvergenceError,
    SingularJacobianError,
    trace_branch,
)
from colonykit import continuation, discrete
from colonykit.discrete import (
    band_array,
    interleave,
    jacobian_banded,
    linearize,
    newton,
    residual,
    rightmost_eigenvalues,
    solve,
)

REF = LogisticDecay(steepness=8.0, center=1.0)
P = ModelParams(D=1.0, sigma=0.3, l=20.0)
MODELS = [REF, ExponentialDecay(r0=np.e ** 2, rate=2.0), CustomMotility(lambda v: 2.0 / (1.0 + v ** 2))]


def reference_jacobian(u, v, h, D, sigma, m):
    npts = u.size
    hh = h * h
    rv = np.asarray(m.evaluate(v, 0), dtype=float)
    rpv_u = np.asarray(m.evaluate(v, 1), dtype=float) * u
    sup_w = np.full(npts - 1, 1.0 / hh)
    sup_w[0] = 2.0 / hh
    sub_w = np.full(npts - 1, 1.0 / hh)
    sub_w[-1] = 2.0 / hh
    ab = np.zeros((6, 2 * npts))
    even = np.arange(0, 2 * npts, 2)
    odd = even + 1
    ab[3, even] = -2.0 * rv / hh + sigma * (1.0 - 2.0 * u)
    ab[3, odd] = -2.0 * D / hh - 1.0
    ab[1, even[1:]] = sup_w * rv[1:]
    ab[5, even[:-1]] = sub_w * rv[:-1]
    ab[2, odd] = -2.0 * rpv_u / hh
    ab[0, odd[1:]] = sup_w * rpv_u[1:]
    ab[4, odd[:-1]] = sub_w * rpv_u[:-1]
    ab[1, odd[1:]] = D * sup_w
    ab[5, odd[:-1]] = D * sub_w
    ab[4, even] = 1.0
    return ab


def reference_solve(ab, rhs):
    try:
        return solve_banded((2, 3), ab, rhs, check_finite=False)
    except LinAlgError as exc:
        raise SingularJacobianError(f"stationary linearization is singular: {exc}") from exc


def reference_newton(u, v, h, D, sigma, m):
    u = u.copy()
    v = v.copy()
    for it in range(discrete.MAX_NEWTON_ITERS + 1):
        F = residual(u, v, h, D, sigma, m)
        if not np.all(np.isfinite(F)):
            raise NewtonConvergenceError("residual became non-finite during Newton iteration")
        res = float(np.max(np.abs(F)))
        if res < discrete.NEWTON_TOL:
            return u, v, it, res
        if it == discrete.MAX_NEWTON_ITERS:
            break
        delta = reference_solve(reference_jacobian(u, v, h, D, sigma, m), F)
        u -= delta[0::2]
        v -= delta[1::2]
    raise NewtonConvergenceError("no convergence")


def reference_corrector(u, v, sigma, tan_u, tan_s, anchor_u, anchor_s, ds, h, D, m, w):
    dot = continuation._dot
    for it in range(1, continuation.MAX_CORRECTOR_ITERS + 1):
        F = residual(u, v, h, D, sigma, m)
        if not np.all(np.isfinite(F)):
            raise NewtonConvergenceError("corrector produced non-finite residual")
        N = dot(tan_u, tan_s, interleave(u, v) - anchor_u, sigma - anchor_s, w) - ds
        res = float(np.max(np.abs(F)))
        if res < discrete.NEWTON_TOL and abs(N) < max(1e-12, 1e-6 * abs(ds)):
            return u, v, sigma, it - 1, res
        dF_dsigma = np.zeros(2 * u.size)
        dF_dsigma[0::2] = u * (1.0 - u)
        ab = reference_jacobian(u, v, h, D, sigma, m)
        a, b = reference_solve(ab, np.column_stack((F, dF_dsigma))).T
        denom = tan_s - dot(tan_u, 0.0, b, 0.0, w)
        if abs(denom) < 1e-14:
            raise SingularJacobianError("bordered system is singular (tangent orthogonal)")
        d_sigma = (dot(tan_u, 0.0, a, 0.0, w) - N) / denom
        delta = -a - d_sigma * b
        u = u + delta[0::2]
        v = v + delta[1::2]
        sigma = sigma + d_sigma
    raise NewtonConvergenceError("corrector did not converge")


def reference_trace(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(continuation, "_corrector", reference_corrector)
        patch.setattr(continuation, "newton", reference_newton)
        return trace_branch(*args, **kwargs)


def assert_same_curve(got, ref):
    assert got.termination is ref.termination
    assert len(got.points) == len(ref.points)
    for a, b in zip(got.points, ref.points):
        assert (a.sigma, a.amplitude, a.newton_iters, a.residual) == (
            b.sigma, b.amplitude, b.newton_iters, b.residual)
        assert np.array_equal(a.field.u, b.field.u)
        assert np.array_equal(a.field.v, b.field.v)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 3.0, n + 1), rng.uniform(0.2, 3.0, n + 1)


class TestLinearize:
    # n = 16 and 17 leave the shortest interior slices next to the
    # doubled boundary weights
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 17, 64, 1024]), seed=st.integers(0, 2 ** 32 - 1),
           sigma=st.floats(0.0, 2.0), D=st.floats(0.05, 20.0), l=st.floats(1.0, 60.0),
           m=st.sampled_from(MODELS))
    def test_matches_reference_assembly(self, n, seed, sigma, D, l, m):
        u, v = random_state(n, seed)
        h = l / n
        ref = reference_jacobian(u, v, h, D, sigma, m)
        assert np.array_equal(jacobian_banded(u, v, h, D, sigma, m), ref)
        # refilled over the LU factors of another state's Jacobian
        ab = band_array(n + 1)
        solve(linearize(v, u, h, D, sigma, m, ab), np.ones(2 * (n + 1)))
        linearize(u, v, h, D, sigma, m, ab)
        assert ab.flags.f_contiguous
        assert np.array_equal(ab[discrete.KL:], ref)


class TestSolve:
    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_solve_banded(self, columns):
        n = 64
        u, v = random_state(n, 3)
        h = 20.0 / n
        rhs = np.random.default_rng(4).standard_normal((2 * (n + 1), columns)).squeeze()
        ref = reference_solve(reference_jacobian(u, v, h, 1.0, 0.3, REF), rhs)
        got = solve(linearize(u, v, h, 1.0, 0.3, REF, band_array(n + 1)), np.asfortranarray(rhs))
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("column", [None, 0, 5, 33])
    def test_singular_jacobian_raises(self, column):
        n = 16
        ab = band_array(n + 1)
        if column is not None:
            u, v = random_state(n, 0)
            linearize(u, v, 20.0 / n, 1.0, 0.3, REF, ab)
            ab[:, column] = 0.0
        with pytest.raises(SingularJacobianError):
            solve(ab, np.ones(2 * (n + 1)))
        with pytest.raises(SingularJacobianError):
            reference_solve(ab[discrete.KL:], np.ones(2 * (n + 1)))


def test_newton_rejects_non_finite_residual():
    u, v = random_state(16, 1)
    u[3] = np.nan
    with pytest.raises(NewtonConvergenceError, match="non-finite"):
        newton(u, v, 20.0 / 16, 1.0, 0.3, REF)


@pytest.fixture(scope="module")
def states():
    """Branch points of modes 4, 6 and 8 nearest sigma = 0.32 at n = 128,
    traced by the reference path."""
    out = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for j in (4, 6, 8):
            curve = reference_trace(monkeypatch, j, P, REF, sigma_min=0.315, n=128)
            out[j] = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
    return out


class TestAgainstReference:
    def test_full_trace(self, monkeypatch):
        got = trace_branch(6, P, REF, sigma_min=0.05, n=256)
        assert_same_curve(got, reference_trace(monkeypatch, 6, P, REF, sigma_min=0.05, n=256))

    def test_traces_at_two_resolutions_back_to_back(self, monkeypatch):
        first = trace_branch(6, P, REF, sigma_min=0.3, n=64)
        other = trace_branch(6, P, REF, sigma_min=0.3, n=96)
        again = trace_branch(6, P, REF, sigma_min=0.3, n=64)
        assert_same_curve(again, first)
        assert_same_curve(first, reference_trace(monkeypatch, 6, P, REF, sigma_min=0.3, n=64))
        assert_same_curve(other, reference_trace(monkeypatch, 6, P, REF, sigma_min=0.3, n=96))

    @pytest.mark.parametrize("j", [4, 6, 8])
    def test_newton(self, states, j):
        bp = states[j]
        f = bp.field
        bump = 1e-3 * np.cos(np.pi * j * f.x / f.l)
        got = newton(f.u + bump, f.v, f.h, 1.0, bp.sigma, REF)
        ref = reference_newton(f.u + bump, f.v, f.h, 1.0, bp.sigma, REF)
        assert got[2] == ref[2] > 1
        assert got[3] == ref[3]
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("j", [4, 6, 8])
    def test_rightmost_eigenvalues(self, states, j, monkeypatch):
        f = states[j].field
        args = (f.u, f.v, f.h, 1.0, states[j].sigma, REF)
        got = rightmost_eigenvalues(jacobian_banded(*args))
        # the LU array of the replaced code: C-ordered zeros
        rows = 2 * discrete.KL + discrete.KU + 1
        monkeypatch.setattr(discrete, "band_array", lambda npts: np.zeros((rows, 2 * npts)))
        ref = rightmost_eigenvalues(reference_jacobian(*args))
        assert got.size >= 4
        assert np.array_equal(got, ref)
