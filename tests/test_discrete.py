"""Oracle tests for the reduced Jacobian, its banded LAPACK solves, the one
Newton iteration, the shift-invert Arnoldi and the implicit solve of the
time stepper.

J is written in blocks, u rows then v rows, [[A, B], [I, C]], and
``discrete`` factors only its reduced matrix S = B - A C, pentadiagonal in
LAPACK's (2, 2) band.  The reference functions below rebuild that step
from the interleaved Jacobian the solver used before, assembled by fancy
indexing into a fresh (6, 2N) array: ``reference_reduced`` reads A, B and
C out of it and forms S entry by entry, ``reduced_solve`` solves J's two
Newton right sides through S by scipy's public ``dgbsv``, and Newton at
fixed sigma and the bordered corrector are two loops around a solve.
``discrete.newton`` keeps the arithmetic of that reduced step, so those
comparisons are exact (np.array_equal): gbtrf and gbtrs are the two calls
gbsv makes.  The interleaved solve through scipy.linalg.solve_banded stays
as the conditioning reference: reduced and interleaved Newton take the
same steps to states within a measured bound, and the eigenvalues agree
with dense ``eigvals``.
"""

import contextlib
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgbsv

import colonykit

from colonykit import (
    ExponentialDecay,
    LogisticDecay,
    ModelParams,
    NewtonConvergenceError,
    NewtonError,
    SingularJacobianError,
    trace_branch,
)
from colonykit import continuation, discrete
from colonykit.discrete import (
    Linearization,
    implicit_solve,
    interleave,
    laplacian,
    linearize,
    newton,
    residual,
    rightmost_eigenvalues,
)

REF = LogisticDecay(steepness=8.0, center=1.0)
P = ModelParams(D=1.0, sigma=0.3, l=20.0)
MODELS = [REF, ExponentialDecay(r0=np.e ** 2, rate=2.0), LogisticDecay(steepness=3.0, center=0.7)]
KL = KU = 2  # S's bandwidths


def reference_jacobian(u, v, h, D, sigma, m):
    """J in solve_banded's (2, 3) layout for the interleaved state
    (u_0, v_0, u_1, v_1, ...): row 3 + i - j holds J[i, j]."""
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


def dense_from_interleaved(ab):
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for col in range(size):
        for row in range(max(0, col - 3), min(size, col + 3)):
            dense[row, col] = ab[3 + row - col, col]
    return dense


def interleaved_solve(ab, rhs):
    try:
        return solve_banded((2, 3), ab, rhs, check_finite=False)
    except LinAlgError as exc:
        raise SingularJacobianError(f"stationary linearization is singular: {exc}") from exc


def reference_reduced(u, v, h, D, sigma, m, shift=0.0):
    """S_s = B - A_s C_s in LAPACK's (2, 2) band, KL zero rows above it,
    from the blocks of ``reference_jacobian``: each entry is B less the sum
    of A_s[i, k] C_s[k, j], summed from k = i, then k = i - 1, then k = i + 1."""
    ab = reference_jacobian(u, v, h, D, sigma, m)
    even = np.arange(0, ab.shape[1], 2)
    odd = even + 1
    # (diagonal, up[i] = [i, i + 1], down[i] = [i + 1, i]) of each block
    a = (ab[3, even] - shift, ab[1, even[1:]], ab[5, even[:-1]])
    b = (ab[2, odd], ab[0, odd[1:]], ab[4, odd[:-1]])
    c = (ab[3, odd] - shift, ab[1, odd[1:]], ab[5, odd[:-1]])
    assert np.all(ab[4, even] == 1.0)  # the identity block
    npts = even.size
    s = np.zeros((2 * KL + KU + 1, npts))
    s[2, 2:] = -(a[1][:-1] * c[1][1:])
    s[3, 1:] = b[1] - (a[0][:-1] * c[1] + a[1] * c[0][1:])
    left, right = np.zeros(npts), np.zeros(npts)
    left[1:] = a[2] * c[1]
    right[:-1] = a[1] * c[2]
    s[4] = b[0] - ((a[0] * c[0] + left) + right)
    s[5, :-1] = b[2] - (a[2] * c[0][:-1] + a[0][1:] * c[2])
    s[6, :-2] = -(a[2][1:] * c[2][:-1])
    return s


def gbsv(ab, rhs):
    """Solve S x = rhs by LAPACK gbsv on the (2, 2) band ab, through scipy's
    public wrapper; ab is overwritten by the LU factors and rhs by x."""
    _, _, x, info = dgbsv(KL, KU, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SingularJacobianError(f"gbsv info {info}")
    return x


def reduced_solve(u, v, h, D, sigma, m, F):
    """The interleaved a and b of J a = F and J b = (u (1 - u), 0), by gbsv
    on S for the v parts y, with the block products the reduction needs
    written out: S y = (F_u - A F_v, u (1 - u)), A F_v = Lap_h(r F_v) +
    sigma (1 - 2 u) F_v, and the u parts F_v - C y and -C y, C y = D Lap_h y - y."""
    fu, fv = F[0::2], F[1::2]
    a_fv = laplacian(m.evaluate(v, 0) * fv, h) + sigma * (1.0 - 2.0 * u) * fv
    rhs = np.asfortranarray(np.column_stack((fu - a_fv, u * (1.0 - u))))
    y = gbsv(reference_reduced(u, v, h, D, sigma, m), rhs)
    cy = D * laplacian(y, h) - y
    a = interleave(fv - cy[:, 0], y[:, 0])
    b = interleave(-cy[:, 1], y[:, 1])
    return a, b


def interleaved_pair(u, v, h, D, sigma, m, F):
    """a and b of ``reduced_solve`` by solve_banded on the interleaved J."""
    dF_dsigma = np.zeros(2 * u.size)
    dF_dsigma[0::2] = u * (1.0 - u)
    return interleaved_solve(reference_jacobian(u, v, h, D, sigma, m),
                             np.column_stack((F, dF_dsigma))).T


def reference_newton(u, v, h, D, sigma, m, solve=reduced_solve):
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
        delta = solve(u, v, h, D, sigma, m, F)[0]
        u -= delta[0::2]
        v -= delta[1::2]
    raise NewtonConvergenceError("no convergence")


# the replaced corrector checked its residual this many times and gave up
# after that many solves, the last one unchecked
REFERENCE_CORRECTOR_ITERS = 8


def dot(xu, xs, yu, ys, w):
    """Arclength inner product: state part weighted by w, plus sigma part."""
    return float(xu @ yu) * w + xs * ys


def reference_corrector(u, v, sigma, tan_u, tan_s, anchor_u, anchor_s, ds, h, D, m, w):
    for it in range(1, REFERENCE_CORRECTOR_ITERS + 1):
        F = residual(u, v, h, D, sigma, m)
        if not np.all(np.isfinite(F)):
            raise NewtonConvergenceError("corrector produced non-finite residual")
        N = dot(tan_u, tan_s, interleave(u, v) - anchor_u, sigma - anchor_s, w) - ds
        res = float(np.max(np.abs(F)))
        if res < discrete.NEWTON_TOL and abs(N) < max(1e-12, 1e-6 * abs(ds)):
            return u, v, sigma, it - 1, res
        a, b = reduced_solve(u, v, h, D, sigma, m, F)
        denom = tan_s - dot(tan_u, 0.0, b, 0.0, w)
        if abs(denom) < 1e-14:
            raise SingularJacobianError("bordered system is singular (tangent orthogonal)")
        d_sigma = (dot(tan_u, 0.0, a, 0.0, w) - N) / denom
        delta = -a - d_sigma * b
        u = u + delta[0::2]
        v = v + delta[1::2]
        sigma = sigma + d_sigma
    raise NewtonConvergenceError("corrector did not converge")


def reference_dispatch(u, v, h, D, sigma, m, border=None, max_steps=None):
    """``discrete.newton``'s signature over the two reference loops."""
    if border is None:
        u, v, it, res = reference_newton(u, v, h, D, sigma, m)
        return u, v, sigma, it, res
    tan_x, tan_s, anchor_x, anchor_s, ds, w = border
    return reference_corrector(u, v, sigma, tan_x, tan_s, anchor_x, anchor_s, ds, h, D, m, w)


def reference_trace(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(continuation, "newton", reference_dispatch)
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


@contextlib.contextmanager
def factoring(monkeypatch, edit):
    """Run ``discrete`` with edit(ab) applied to each band just before gbtrf
    factors it; yields the list of the bands as edited, copied."""
    bands = []
    factor = discrete.dgbtrf

    def edited(ab, kl, ku, **kwargs):
        edit(ab)
        bands.append(ab.copy(order="F"))
        return factor(ab, kl, ku, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(discrete, "dgbtrf", edited)
        yield bands


class TestLinearize:
    # n = 16 and 17 leave the shortest interior slices next to the
    # doubled boundary weights
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 17, 64, 1024]), seed=st.integers(0, 2 ** 32 - 1),
           sigma=st.floats(0.0, 2.0), D=st.floats(0.05, 20.0), l=st.floats(1.0, 60.0),
           m=st.sampled_from(MODELS), shift=st.sampled_from([0.0, discrete.ARNOLDI_SHIFT]))
    # at sigma = 0 mass conservation makes J, and so S, singular; the
    # interleaved gbsv reported it for this draw, S's gbtrf leaves a pivot of
    # rounding size, and the band it receives is the same either way
    @example(n=16, seed=7, sigma=0.0, D=1.0, l=1.0, m=MODELS[1], shift=0.0)
    def test_matches_reference_assembly(self, n, seed, sigma, D, l, m, shift):
        u, v = random_state(n, seed)
        h = l / n
        with pytest.MonkeyPatch.context() as monkeypatch, \
                factoring(monkeypatch, lambda ab: None) as bands:
            with contextlib.suppress(SingularJacobianError):
                linearize(u, v, h, D, sigma, m, shift)
        (band,) = bands
        assert band.shape == (2 * KL + KU + 1, n + 1)
        assert np.array_equal(band, reference_reduced(u, v, h, D, sigma, m, shift))

    def test_factors_in_place(self):
        # the band is assembled Fortran-ordered, so gbtrf overwrites it
        # instead of a copy, and the Linearization keeps the LU factors
        u, v = random_state(64, 1)
        lin = linearize(u, v, 20.0 / 64, 1.0, 0.3, REF)
        assert isinstance(lin, Linearization)
        assert lin.lu.flags.f_contiguous and lin.lu.shape == (2 * KL + KU + 1, 65)
        lu, ipiv, _ = discrete.dgbtrf(reference_reduced(u, v, 20.0 / 64, 1.0, 0.3, REF), KL, KU)
        assert np.array_equal(lin.lu, lu) and np.array_equal(lin.ipiv, ipiv)


class TestDeterminantIdentity:
    """det J = (-1)^(N+1) det S: gbtrf's verdict on S is its verdict on J."""

    @pytest.mark.parametrize("n", [16, 17, 32])
    def test_sign_and_magnitude(self, n):
        u, v = random_state(n, n)
        h, D, sigma = 20.0 / n, 1.0, 0.3
        dense = dense_from_interleaved(reference_jacobian(u, v, h, D, sigma, REF))
        A, B, C = dense[0::2, 0::2], dense[0::2, 1::2], dense[1::2, 1::2]
        assert np.array_equal(dense[1::2, 0::2], np.eye(n + 1))
        S = B - A @ C
        sign_j, log_j = np.linalg.slogdet(dense)
        sign_s, log_s = np.linalg.slogdet(S)
        assert sign_j == (-1) ** (n + 1) * sign_s != 0
        assert abs(log_j - log_s) <= 1e-12
        # the library's band is S up to the order of summation
        band = reference_reduced(u, v, h, D, sigma, REF)
        rows, cols = np.nonzero(np.abs(np.subtract.outer(np.arange(n + 1), np.arange(n + 1))) <= 2)
        atol = 8 * np.finfo(float).eps * np.max(np.abs(A)) * np.max(np.abs(C))
        np.testing.assert_allclose(band[4 + rows - cols, cols], S[rows, cols], rtol=0, atol=atol)


class TestSolve:
    """gbtrf then gbtrs, the pair ``newton`` calls on the band it fills."""

    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_solve_banded(self, columns):
        n = 64
        u, v = random_state(n, 3)
        h = 20.0 / n
        rhs = np.random.default_rng(4).standard_normal((n + 1, columns)).squeeze()
        band = reference_reduced(u, v, h, 1.0, 0.3, REF)
        ref = solve_banded((KL, KU), band[KL:], rhs, check_finite=False)
        expected = gbsv(band.copy(order="F"), rhs.copy(order="F"))
        lin = linearize(u, v, h, 1.0, 0.3, REF)
        got = lin.solve_reduced(rhs.copy(order="F"))
        assert np.array_equal(got, ref) and np.array_equal(got, expected)
        # and J's solve through S inverts J's block product
        b = np.random.default_rng(5).standard_normal(2 * (n + 1))
        np.testing.assert_allclose(lin.apply(lin.solve(b)), b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("column", [None, 0, 5, 33])
    def test_singular_jacobian_raises(self, column, monkeypatch):
        # newton's first S with its first, an inner or its last column zero,
        # or zero throughout
        n = 33
        u, v = random_state(n, 0)
        args = (u, v, 20.0 / n, 1.0, 0.3, REF)

        def singular(ab):
            ab[:, slice(None) if column is None else column] = 0.0

        with factoring(monkeypatch, singular):
            with pytest.raises(SingularJacobianError, match="linearization is singular .gbtrf info"):
                newton(*args)
        band = reference_reduced(*args)
        singular(band)
        with pytest.raises(LinAlgError):
            solve_banded((KL, KU), band[KL:], np.ones(n + 1))
        with pytest.raises(SingularJacobianError):
            gbsv(band, np.ones(n + 1))

    def test_shift_at_an_eigenvalue_raises(self, monkeypatch):
        # S_s = 0: J - s I is singular, which gbtrf cannot factor
        n = 16
        u, v = random_state(n, 0)
        with factoring(monkeypatch, lambda ab: ab.fill(0.0)):
            with pytest.raises(SingularJacobianError, match=r"J - 0\.5 I is singular .gbtrf info"):
                rightmost_eigenvalues(u, v, 20.0 / n, 1.0, 0.3, REF)


def gbsv_step(u, v, h, D, sigma, m, border):
    """The iterate after one step of ``newton`` from (u, v, sigma), with S in
    a fresh band solved by ``gbsv``."""
    tan_x, tan_s, anchor_x, anchor_s, ds, w = border
    F = residual(u, v, h, D, sigma, m)
    N = float(tan_x @ (interleave(u, v) - anchor_x)) * w + tan_s * (sigma - anchor_s) - ds
    a, b = reduced_solve(u, v, h, D, sigma, m, F)
    d_sigma = (float(tan_x @ a) * w - N) / (tan_s - float(tan_x @ b) * w)
    delta = -a - d_sigma * b
    return u + delta[0::2], v + delta[1::2], sigma + d_sigma


def assert_gbsv_iterates(monkeypatch, u, v, h, D, sigma, m, border=None, max_steps=None):
    """Each iterate of ``newton`` is ``gbsv_step`` of the one before, bit for
    bit; returns how many steps were compared."""
    iterates = []

    def recording(u, v, h, D, sigma, m):
        iterates.append((u, v, sigma))
        return residual(u, v, h, D, sigma, m)

    with monkeypatch.context() as patch:
        patch.setattr(discrete, "residual", recording)
        with contextlib.suppress(NewtonConvergenceError, SingularJacobianError):
            newton(u, v, h, D, sigma, m, border, max_steps)
    pinned = (np.zeros(2 * u.size), 1.0, 0.0, sigma, 0.0, 1.0)
    for (u0, v0, s0), (u1, v1, s1) in zip(iterates, iterates[1:]):
        u_ref, v_ref, s_ref = gbsv_step(u0, v0, h, D, s0, m, border or pinned)
        assert np.array_equal(u1, u_ref) and np.array_equal(v1, v_ref) and s1 == s_ref
    return len(iterates) - 1


class TestGbsvOracle:
    """``newton``'s iterates against steps solved by LAPACK gbsv."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.sampled_from(MODELS), sigma=st.floats(0.05, 1.0), D=st.floats(0.1, 10.0),
           n=st.integers(16, 200), j=st.integers(1, 12), amplitude=st.floats(0.0, 0.9),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pinned(self, m, sigma, D, n, j, amplitude, seed):
        x = np.linspace(0.0, 1.0, n + 1)
        noise = np.random.default_rng(seed).uniform(-0.01, 0.01, (2, n + 1))
        u = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[0]
        v = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[1]
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert assert_gbsv_iterates(monkeypatch, u, v, 20.0 / n, D, sigma, m) >= 1

    def test_bordered(self, monkeypatch):
        # every corrector of a trace, failed ones included
        calls = []

        def recording(*args):
            calls.append(args)
            return newton(*args)

        with monkeypatch.context() as patch:
            patch.setattr(continuation, "newton", recording)
            trace_branch(6, P, REF, sigma_min=0.05, n=64)
        correctors = [args for args in calls if len(args) > 6]
        steps = [assert_gbsv_iterates(monkeypatch, *args) for args in correctors]
        assert len(steps) >= 10 and max(steps) == continuation.MAX_CORRECTOR_STEPS


def test_newton_rejects_non_finite_residual():
    u, v = random_state(16, 1)
    u[3] = np.nan
    with pytest.raises(NewtonConvergenceError, match="non-finite"):
        newton(u, v, 20.0 / 16, 1.0, 0.3, REF)


def outcome(solver, *args):
    """What solver returns, or the class of the Newton error it raises."""
    try:
        # the replaced loop did not silence overflow; its finiteness check
        # still turns an overflowed iterate into NewtonConvergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            return solver(*args)
    except (NewtonConvergenceError, SingularJacobianError) as exc:
        return type(exc)


class TestPinnedNewton:
    # seeds of one cosine mode plus noise: of 300 such draws 262 converged
    # onto the uniform state, 11 onto a pattern and 27 failed
    @settings(max_examples=100, deadline=None)
    @given(m=st.sampled_from(MODELS), sigma=st.floats(0.0, 1.0), D=st.floats(0.1, 10.0),
           n=st.integers(16, 200), j=st.integers(1, 12), amplitude=st.floats(0.0, 0.9),
           seed=st.integers(0, 2 ** 32 - 1))
    # at sigma = 0 the interleaved solver reported SingularJacobianError where
    # this one iterates into NewtonConvergenceError
    @example(m=REF, sigma=0.0, D=4.671736891152922, n=28, j=1, amplitude=0.7957803295370736,
             seed=1)
    def test_matches_reference_newton(self, m, sigma, D, n, j, amplitude, seed):
        x = np.linspace(0.0, 1.0, n + 1)
        noise = np.random.default_rng(seed).uniform(-0.01, 0.01, (2, n + 1))
        u = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[0]
        v = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[1]
        u0, v0 = u.copy(), v.copy()
        h = 20.0 / n
        got = outcome(newton, u, v, h, D, sigma, m)
        ref = outcome(reference_newton, u, v, h, D, sigma, m)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)
        if isinstance(ref, type) and sigma == 0.0:
            # the Jacobian is singular by mass conservation for every state:
            # which error a solver reports depends on the rounding in its LU
            assert isinstance(got, type) and issubclass(got, NewtonError)
        elif isinstance(ref, type):
            assert got is ref
        else:
            assert got[2] == sigma and got[3:] == ref[2:]
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls ``newton`` makes to ``linearize`` and ``residual``."""
    count = {"linearize": 0, "residual": 0}
    for name in count:
        def counted(*args, _name=name, _fn=getattr(discrete, name)):
            count[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(discrete, name, counted)
    return count


class TestNewtonBudget:
    """A solve that fails after k steps has checked the residual of each of
    them: k linearizations and k + 1 residuals."""

    def test_pinned_solve(self, calls, monkeypatch):
        monkeypatch.setattr(discrete, "MAX_NEWTON_ITERS", 4)
        rng = np.random.default_rng(0)
        u, v = 5 + rng.uniform(-1, 1, 65), 0.1 + 0.05 * rng.uniform(-1, 1, 65)
        with pytest.raises(NewtonConvergenceError, match="after 4 Newton steps"):
            newton(u, v, 20.0 / 64, 1.0, 0.3, REF)
        assert calls == {"linearize": 4, "residual": 5}

    def test_failing_corrector_in_a_trace(self, calls, monkeypatch):
        failed = []

        def watched(*args, **kwargs):
            before = dict(calls)
            try:
                return newton(*args, **kwargs)
            except NewtonConvergenceError:
                failed.append({name: calls[name] - before[name] for name in calls})
                raise

        monkeypatch.setattr(continuation, "newton", watched)
        # one corrector of this trace runs out of steps
        trace_branch(6, P, REF, sigma_min=0.05, n=64)
        steps = continuation.MAX_CORRECTOR_STEPS
        assert failed == [{"linearize": steps, "residual": steps + 1}]
        # the replaced corrector's residual checks: the same points converge
        assert steps + 1 == REFERENCE_CORRECTOR_ITERS


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
        assert got[2] == bp.sigma
        assert got[3] == ref[2] > 1
        assert got[4] == ref[3]
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("j", [4, 6, 8])
    def test_rightmost_eigenvalues(self, states, j, monkeypatch):
        f = states[j].field
        u, v = f.u.copy(), f.v.copy()
        args = (f.u, f.v, f.h, 1.0, states[j].sigma, REF)
        got = rightmost_eigenvalues(*args)
        # the state is only read, and a second call repeats the first
        assert np.array_equal(f.u, u) and np.array_equal(f.v, v)
        assert np.array_equal(rightmost_eigenvalues(*args), got)

        def reference(ab):
            ab[:] = reference_reduced(*args, discrete.ARNOLDI_SHIFT)

        # the same Arnoldi on S_s of the reference blocks
        with factoring(monkeypatch, reference) as bands:
            ref = rightmost_eigenvalues(*args)
        assert len(bands) == 1
        assert got.size >= 4
        assert np.array_equal(got, ref)


# a Newton path of more than this many steps wanders before it contracts,
# and there the rounding of either solve can change where it goes: of 2300
# draws of TestPinnedNewton's kind, four ended differently, each after 23 or
# 25 interleaved steps
CONTRACTING_STEPS = 12
# the largest distance between the two converged states seen over those
# draws was 7.7e-12
REDUCED_STATE_TOL = 1e-10
# the 5 rightmost eigenvalues against dense eigvals: at most 5.3e-12 seen at
# n = 1024 (1.2e-10 without the refinement step) and 1.4e-12 at n = 256
EIGENVALUE_TOL = 1e-11


def assert_newton_matches_interleaved(u, v, h, D, sigma, m):
    """Where the interleaved Newton converges within CONTRACTING_STEPS,
    ``newton`` takes as many steps to a state within REDUCED_STATE_TOL."""
    ref = outcome(reference_newton, u, v, h, D, sigma, m, interleaved_pair)
    if isinstance(ref, type) or ref[2] > CONTRACTING_STEPS:
        return False
    got = outcome(newton, u, v, h, D, sigma, m)
    assert not isinstance(got, type), got
    assert got[3] == ref[2]
    assert np.max(np.abs(got[0] - ref[0])) <= REDUCED_STATE_TOL
    assert np.max(np.abs(got[1] - ref[1])) <= REDUCED_STATE_TOL
    return True


class TestConditioning:
    """S's entries scale as 1/h^4 against J's 1/h^2; the reduced solves stay
    as accurate as the interleaved ones."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from([LogisticDecay, ExponentialDecay]), a=st.floats(2.0, 12.0),
           b=st.floats(0.5, 2.0), sigma=st.floats(0.05, 1.0), D=st.floats(0.1, 10.0),
           n=st.integers(16, 512), j=st.integers(1, 12), amplitude=st.floats(0.0, 0.9),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_newton_against_interleaved(self, family, a, b, sigma, D, n, j, amplitude, seed):
        # (a, b) is (steepness, center) or (r0, rate)
        m = family(a, b)
        x = np.linspace(0.0, 1.0, n + 1)
        noise = np.random.default_rng(seed).uniform(-0.01, 0.01, (2, n + 1))
        u = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[0]
        v = 1.0 + amplitude * np.cos(np.pi * j * x) + noise[1]
        assert_newton_matches_interleaved(u, v, 20.0 / n, D, sigma, m)

    def test_newton_against_interleaved_at_2048(self):
        n = 2048
        x = np.linspace(0.0, 1.0, n + 1)
        noise = np.random.default_rng(0).uniform(-0.01, 0.01, (2, n + 1))
        u = 1.0 + 0.3 * np.cos(6 * np.pi * x) + noise[0]
        v = 1.0 + 0.3 * np.cos(6 * np.pi * x) + noise[1]
        assert assert_newton_matches_interleaved(u, v, 20.0 / n, 1.0, 0.3, REF)

    @pytest.mark.parametrize("n, j", [(256, 4), (256, 6), (256, 8), (1024, 8)])
    def test_eigenvalues_against_dense(self, n, j):
        curve = trace_branch(j, P, REF, sigma_min=0.315, n=n)
        bp = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
        f = bp.field
        args = (f.u, f.v, f.h, 1.0, bp.sigma, REF)
        dense = np.linalg.eigvals(dense_from_interleaved(reference_jacobian(*args)))
        got = rightmost_eigenvalues(*args)
        assert got.size >= 5
        for lam in got[:5]:
            assert np.min(np.abs(dense - lam)) <= EIGENVALUE_TOL


def tridiagonal_band(a0, dt, h, c, npts):
    """a0 I - dt Lap_h diag(c) in solve_banded's (1, 1) layout, c an array or
    a constant: entry (i, j) of Lap_h diag(c) is L_ij c_j, with the mirrored
    weight doubled in rows 0 and N."""
    w = dt / (h * h) * np.broadcast_to(c, npts)
    ab = np.zeros((3, npts))
    ab[0, 1:] = -w[1:]
    ab[0, 1] *= 2.0
    ab[1] = a0 + 2.0 * w
    ab[2, :-1] = -w[:-1]
    ab[2, -2] *= 2.0
    return ab


class TestImplicitSolve:
    @pytest.mark.parametrize("n", [16, 17, 256])
    @pytest.mark.parametrize("c", ["array", "constant"])
    # unit right sides on the two mirrored rows, and one on every row
    @pytest.mark.parametrize("row", [0, -1, None])
    def test_matches_solve_banded(self, n, c, row):
        rng = np.random.default_rng(n)
        c = rng.uniform(0.05, 2.0, n + 1) if c == "array" else 0.7
        h, dt = 20.0 / n, 0.1
        if row is None:
            rhs = rng.uniform(0.5, 1.5, n + 1)
        else:
            rhs = np.zeros(n + 1)
            rhs[row] = 1.0
        for a0 in (1.0, 1.5, 1.5 + dt):
            ref = solve_banded((1, 1), tridiagonal_band(a0, dt, h, c, n + 1), rhs,
                               check_finite=False)
            assert np.array_equal(implicit_solve(a0, dt, h, c, rhs.copy()), ref)

    def test_singular_matrix_gives_none(self):
        # a0 = 0 and c = 0: the zero matrix
        assert implicit_solve(0.0, 0.1, 1.0, 0.0, np.ones(17)) is None


def test_only_discrete_calls_lapack():
    # f2py wraps each LAPACK routine in an object of type "fortran"
    holders = set()
    for info in pkgutil.iter_modules(colonykit.__path__):
        module = importlib.import_module(f"colonykit.{info.name}")
        if any(type(value).__name__ == "fortran" for value in vars(module).values()):
            holders.add(info.name)
    assert holders == {"_compiled", "discrete"}


def test_only_discrete_holds_the_band_jacobian():
    # every other module asks ``discrete`` by state: newton, rightmost_eigenvalues
    holders = set()
    for info in pkgutil.iter_modules(colonykit.__path__):
        module = importlib.import_module(f"colonykit.{info.name}")
        if any(value is Linearization or value is linearize for value in vars(module).values()):
            holders.add(info.name)
    assert holders == {"discrete"}


@pytest.mark.parametrize("n", [16, 17, 128, 1024])
@pytest.mark.parametrize("j", [0, 1, 6, 11])
def test_laplacian_eigenvalue_of_cosine_mode(j, n):
    # Lap_h cos(pi j x / l) = -lam_h cos(pi j x / l), mirrored ends included
    l = 20.0
    mode = np.cos(np.pi * j * np.linspace(0.0, l, n + 1) / l)
    lam_h = discrete.grid_eigenvalue(j, l, n)
    # a few ulps of the stencil's largest weight 4 / h^2; 10 is the most seen
    atol = 32 * np.finfo(float).eps * 4.0 * (n / l) ** 2
    np.testing.assert_allclose(laplacian(mode, l / n), -lam_h * mode, rtol=0, atol=atol)
