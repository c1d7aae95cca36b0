"""Oracle tests for the band-layout linearization, the banded LAPACK solves,
the one Newton iteration and the implicit solve of the time stepper.

The reference functions below are the assembly and solves they replaced: the
Jacobian assembled by fancy indexing into a fresh (6, 2N) array, and Newton
at fixed sigma and the bordered corrector as two loops solving through
scipy.linalg.solve_banded.  ``discrete.newton`` keeps their arithmetic, so
every comparison is exact (np.array_equal).  Newton factors J with LAPACK
gbtrf and solves with gbtrs, the two calls gbsv makes; ``gbsv`` below, on
scipy's public wrapper, is the oracle for that pair.
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
    band_array,
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


def gbsv(ab, rhs):
    """Solve J x = rhs by LAPACK gbsv on the ``band_array`` ab, through scipy's
    public wrapper; ab is overwritten by the LU factors and rhs by x."""
    _, _, x, info = dgbsv(discrete.KL, discrete.KU, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SingularJacobianError(f"gbsv info {info}")
    return x


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


def reference_dispatch(u, v, h, D, sigma, m, border=None, max_steps=None):
    """``discrete.newton``'s signature over the two replaced loops."""
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


class TestLinearize:
    # n = 16 and 17 leave the shortest interior slices next to the
    # doubled boundary weights
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 17, 64, 1024]), seed=st.integers(0, 2 ** 32 - 1),
           sigma=st.floats(0.0, 2.0), D=st.floats(0.05, 20.0), l=st.floats(1.0, 60.0),
           m=st.sampled_from(MODELS))
    # at sigma = 0 mass conservation makes J singular, and with this draw
    # gbsv reports it, so the refill starts from a singular LU
    @example(n=16, seed=7, sigma=0.0, D=1.0, l=1.0, m=MODELS[1])
    def test_matches_reference_assembly(self, n, seed, sigma, D, l, m):
        u, v = random_state(n, seed)
        h = l / n
        ref = reference_jacobian(u, v, h, D, sigma, m)
        assert np.array_equal(linearize(u, v, h, D, sigma, m, band_array(n + 1))[discrete.KL:], ref)
        # refilled over the LU factors of another state's Jacobian, which
        # gbsv writes into ab even when it finds that Jacobian singular
        ab = band_array(n + 1)
        with contextlib.suppress(SingularJacobianError):
            gbsv(linearize(v, u, h, D, sigma, m, ab), np.ones(2 * (n + 1)))
        linearize(u, v, h, D, sigma, m, ab)
        assert ab.flags.f_contiguous
        assert np.array_equal(ab[discrete.KL:], ref)


class TestSolve:
    """gbtrf then gbtrs, the pair ``newton`` calls on the band it fills."""

    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_solve_banded(self, columns):
        n = 64
        u, v = random_state(n, 3)
        h = 20.0 / n
        rhs = np.random.default_rng(4).standard_normal((2 * (n + 1), columns)).squeeze()
        ref = reference_solve(reference_jacobian(u, v, h, 1.0, 0.3, REF), rhs)
        ab = linearize(u, v, h, 1.0, 0.3, REF, band_array(n + 1))
        expected = gbsv(ab.copy(order="F"), rhs.copy(order="F"))
        lu, ipiv, info = discrete.dgbtrf(ab, discrete.KL, discrete.KU, overwrite_ab=1)
        assert info == 0 and lu is ab
        got = discrete.dgbtrs(lu, discrete.KL, discrete.KU, rhs.copy(order="F"), ipiv)[0]
        assert np.array_equal(got, ref) and np.array_equal(got, expected)

    @pytest.mark.parametrize("column", [None, 0, 5, 33])
    def test_singular_jacobian_raises(self, column, monkeypatch):
        # newton's first J with one zero column, or zero throughout
        n = 16
        u, v = random_state(n, 0)
        args = (u, v, 20.0 / n, 1.0, 0.3, REF)

        def singular(*call):
            ab = linearize(*call)
            ab[:, slice(None) if column is None else column] = 0.0
            return ab

        monkeypatch.setattr(discrete, "linearize", singular)
        with pytest.raises(SingularJacobianError, match="gbtrf info"):
            newton(*args)
        ab = singular(*args, band_array(n + 1))
        with pytest.raises(SingularJacobianError):
            reference_solve(ab[discrete.KL:], np.ones(2 * (n + 1)))
        with pytest.raises(SingularJacobianError):
            gbsv(ab, np.ones(2 * (n + 1)))

    def test_shift_at_an_eigenvalue_raises(self, monkeypatch):
        # J = ARNOLDI_SHIFT I makes J - s I zero, which gbtrf cannot factor
        n = 16
        u, v = random_state(n, 0)

        def shifted(*call):
            ab = linearize(*call)
            ab[:] = 0.0
            ab[discrete.KL + discrete.KU] = discrete.ARNOLDI_SHIFT
            return ab

        monkeypatch.setattr(discrete, "linearize", shifted)
        with pytest.raises(SingularJacobianError, match="gbtrf info"):
            rightmost_eigenvalues(u, v, 20.0 / n, 1.0, 0.3, REF)


def gbsv_step(u, v, h, D, sigma, m, border):
    """The iterate after one step of ``newton`` from (u, v, sigma), with J in
    a fresh band array solved by ``gbsv``."""
    tan_x, tan_s, anchor_x, anchor_s, ds, w = border
    F = residual(u, v, h, D, sigma, m)
    N = float(tan_x @ (interleave(u, v) - anchor_x)) * w + tan_s * (sigma - anchor_s) - ds
    rhs = np.zeros((2 * u.size, 2), order="F")
    rhs[:, 0] = F
    rhs[0::2, 1] = u * (1.0 - u)
    a, b = gbsv(linearize(u, v, h, D, sigma, m, band_array(u.size)), rhs).T
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
    # at sigma = 0 this solver iterates into NewtonConvergenceError where the
    # reference reports SingularJacobianError
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

        def reference(*call):
            ab = call[-1]
            ab[discrete.KL:] = reference_jacobian(*call[:-1])
            return ab

        # the same Arnoldi on the Jacobian of the replaced assembly
        monkeypatch.setattr(discrete, "linearize", reference)
        ref = rightmost_eigenvalues(*args)
        assert got.size >= 4
        assert np.array_equal(got, ref)


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
        if any(value is band_array or value is linearize for value in vars(module).values()):
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
