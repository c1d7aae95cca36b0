import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from colonykit import (
    ExplicitField,
    ExponentialDecay,
    Field,
    LogisticDecay,
    ModelParams,
    NewtonConvergenceError,
    SeedFailureError,
    SimConfig,
    Termination,
    epsilon_for_sigma,
    expansion_coefficients,
    modal_spectrum,
    newton_steady,
    simulate,
    stationary_residual,
    trace_branch,
)
from colonykit import continuation, discrete
from colonykit.asymptotics import BranchVerdict, second_order_profiles
from colonykit.discrete import linearize, residual, rightmost_eigenvalues
from colonykit.linear_analysis import _bifurcation_sigma, scan_modes
from colonykit.motility import taylor_at_one

REF = LogisticDecay(steepness=8.0, center=1.0)


def params(sigma):
    return ModelParams(D=1.0, sigma=sigma, l=20.0)


def asymptotic_field(j, sigma, n=256):
    e = expansion_coefficients(j, params(sigma), REF)
    eps = epsilon_for_sigma(e, sigma)
    return Field(*second_order_profiles(e, eps, np.linspace(0.0, 20.0, n + 1)), l=20.0)


def dense_jacobian(bp):
    """J at a branch point, dense, in the interleaved order (u_0, v_0, u_1,
    ...), from the matrix L of Lap_h: the blocks L diag(r) + diag(sigma
    (1 - 2 u)), L diag(r'(v) u), I and D L - I."""
    f = bp.field
    npts = f.u.size
    L = np.diag(np.ones(npts - 1), 1) + np.diag(np.ones(npts - 1), -1) - 2.0 * np.eye(npts)
    L[0, 1] = L[-1, -2] = 2.0
    L /= f.h * f.h
    J = np.empty((2 * npts, 2 * npts))
    J[0::2, 0::2] = L * REF.evaluate(f.v, 0) + np.diag(bp.sigma * (1.0 - 2.0 * f.u))
    J[0::2, 1::2] = L * (REF.evaluate(f.v, 1) * f.u)
    J[1::2, 0::2] = np.eye(npts)
    J[1::2, 1::2] = L - np.eye(npts)  # D = 1
    return J


def spectrum_at(bp):
    f = bp.field
    return rightmost_eigenvalues(f.u, f.v, f.h, 1.0, bp.sigma, REF)


class RationalDecay:
    """Duck-typed motility r(v) = a / (1 + (v / b)^2), outside both
    library families: the assembly reads r only through ``evaluate``.
    Orders 0 and 1 are all that ``residual`` and ``linearize`` ask for."""

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def evaluate(self, v, order=0):
        w = np.asarray(v, dtype=float) / self.b
        if order == 0:
            out = self.a / (1.0 + w * w)
        elif order == 1:
            out = -2.0 * self.a * w / (self.b * (1.0 + w * w) ** 2)
        else:
            raise ValueError(f"derivative order must be in 0..1, got {order}")
        return out if np.ndim(v) else float(out)


class TestJacobian:
    # a and b are the model's two parameters, (steepness, center), (r0,
    # rate) or the rational (a, b); every example runs with all three
    @pytest.mark.parametrize("family", [LogisticDecay, ExponentialDecay, RationalDecay],
                             ids=["logistic", "exponential", "custom"])
    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.5, 12.0), b=st.floats(0.2, 3.0), sigma=st.floats(0.0, 2.0),
           D=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(a=8.0, b=1.0, sigma=0.37, D=1.0, seed=5)
    @example(a=2.0, b=1.0, sigma=0.37, D=1.0, seed=5)
    @example(a=np.e ** 2, b=2.0, sigma=0.37, D=1.0, seed=5)
    @example(a=3.0, b=0.7, sigma=0.37, D=1.0, seed=5)
    def test_matches_finite_differences(self, family, a, b, sigma, D, seed):
        # J from the block product, (J - s I) e + s e column by column,
        # against finite differences of F; linearize factors J - s I, which
        # mass conservation does not make singular at sigma = 0 as it does J
        m = family(a, b)
        rng = np.random.default_rng(seed)
        n = 12
        h = 20.0 / n
        u = 1.0 + 0.1 * rng.uniform(-1, 1, n + 1)
        v = 1.0 + 0.1 * rng.uniform(-1, 1, n + 1)
        shift = discrete.ARNOLDI_SHIFT
        m_size = 2 * (n + 1)
        unit = np.eye(m_size)
        lin = linearize(u, v, h, D, sigma, m, shift)
        dense = np.column_stack([lin.apply(e) + shift * e for e in unit])

        def F(u_, v_):
            return residual(u_, v_, h, D, sigma, m)

        base = F(u, v)
        eps = 1e-7
        for col in range(m_size):
            du = u.copy()
            dv = v.copy()
            if col % 2 == 0:
                du[col // 2] += eps
            else:
                dv[col // 2] += eps
            fd_col = (F(du, dv) - base) / eps
            np.testing.assert_allclose(dense[:, col], fd_col, rtol=2e-5, atol=2e-4)


class TestNewton:
    def test_converges_instantly_at_uniform_state(self):
        f = Field(u=np.ones(129), v=np.ones(129), l=20.0)
        bp = newton_steady(f, params(0.4), REF)
        assert bp.newton_iters == 0
        assert bp.residual == 0.0
        assert bp.amplitude == 0.0

    def test_converges_to_mode6_pattern(self):
        f = asymptotic_field(6, 0.49)
        bp = newton_steady(f, params(0.49), REF)
        assert bp.residual < 1e-10
        assert bp.amplitude > 0.05
        assert modal_spectrum(bp.field).dominant == 6
        # cross-module residual check
        ru, rv = stationary_residual(bp.field, params(0.49), REF)
        assert max(ru, rv) <= 10 * 1e-10

    def test_at_bifurcation_point_collapses_or_degenerates(self):
        from colonykit import SingularJacobianError

        sigma0 = expansion_coefficients(6, params(0.49), REF).sigma0
        e = expansion_coefficients(6, params(0.49), REF)
        f = Field(*second_order_profiles(e, 1e-4, np.linspace(0.0, 20.0, 257)), l=20.0)
        try:
            bp = newton_steady(f, params(sigma0), REF)
            assert bp.amplitude < 1e-6  # fell back onto the uniform state
        except (SingularJacobianError, NewtonConvergenceError):
            pass  # degenerate linearization is also an acceptable report

    def test_distant_start_fails_cleanly(self, monkeypatch):
        monkeypatch.setattr(discrete, "MAX_NEWTON_ITERS", 4)
        rng = np.random.default_rng(0)
        f = Field(u=5 + rng.uniform(-1, 1, 65), v=0.1 + 0.05 * rng.uniform(-1, 1, 65), l=20.0)
        with pytest.raises(NewtonConvergenceError):
            newton_steady(f, params(0.3), REF)

    def test_length_mismatch_rejected(self):
        f = Field(u=np.ones(65), v=np.ones(65), l=10.0)
        with pytest.raises(ValueError):
            newton_steady(f, params(0.3), REF)


@pytest.fixture(scope="module")
def branch6():
    return trace_branch(6, params(0.3), REF, sigma_min=0.05)


class TestRightmostEigenvalues:
    @pytest.mark.parametrize("j, sigma", [(4, 0.32), (6, 0.32), (8, 0.32),
                                          (0, 0.8), (0, 1.5), (0, 3.0)],
                             ids=["4", "6", "8", "uniform-0.8", "uniform-1.5", "uniform-3.0"])
    def test_matches_dense_eigenvalues(self, j, sigma):
        # branch states near sigma = 0.32, and j = 0: the uniform state (1, 1)
        # at growth rates where its whole spectrum lies at -0.19 and below,
        # far left of the shift
        if j:
            curve = trace_branch(j, params(0.3), REF, sigma_min=0.315, n=128)
            bp = min(curve.points, key=lambda q: abs(q.sigma - sigma))
        else:
            bp = newton_steady(Field(u=np.ones(129), v=np.ones(129), l=20.0), params(sigma), REF)
        dense = np.linalg.eigvals(dense_jacobian(bp))
        got = spectrum_at(bp)
        dense = dense[np.argsort(-dense.real)]
        assert got.size >= 4
        # the rightmost eigenvalues, conjugate pairs matched by |Im|
        for lam, ref in zip(got[:4], dense[:4]):
            assert lam.real == pytest.approx(ref.real, abs=1e-6)
            assert abs(lam.imag) == pytest.approx(abs(ref.imag), abs=1e-6)
        # every converged Ritz value is an eigenvalue
        for lam in got:
            assert np.min(np.abs(dense - lam)) <= 1e-6

    @pytest.mark.parametrize("j", range(1, 12))
    def test_abscissa_sign_matches_verdict_below_onset(self, j):
        # the weakly nonlinear verdict: only the mode-6 branch is stable
        e = expansion_coefficients(j, params(0.3), REF)
        sigma = e.sigma0 - 1e-3
        bp = newton_steady(asymptotic_field(j, sigma), params(sigma), REF)
        assert bp.amplitude > 1e-3 and modal_spectrum(bp.field).dominant == j
        abscissa = spectrum_at(bp)[0].real
        assert (abscissa < 0) == (e.verdict is BranchVerdict.STABLE_ADMISSIBLE)
        assert (abscissa < 0) == (j == 6)

    @pytest.mark.parametrize("j, unstable", zip(range(1, 12), [9, 8, 6, 4, 2, 0, 1, 3, 5, 7, 10]))
    def test_unstable_count_is_modes_with_larger_onset(self, j, unstable):
        # near onset the mode-j branch keeps the uniform state's unstable
        # modes: every k != j with sigma0_k > sigma0_j
        summary = scan_modes(params(0.3), REF)
        onset = summary.mode(j).sigma_j
        assert sum(mi.sigma_j > onset for mi in summary.modes) == unstable
        curve = trace_branch(j, params(0.3), REF, sigma_min=max(0.0, onset - 0.01), n=128, summary=summary)
        lam = spectrum_at(curve.points[2])
        assert np.count_nonzero(lam.real > 0) == unstable

    def test_slow_eigenvalue_matches_gamma2_near_onset(self, branch6):
        # exchange of stability at the mode-6 onset: the rightmost real
        # eigenvalue of a branch state of amplitude eps = |c6| / a is
        # eps^2 gamma2 (1 + O(eps^2)); further down another real eigenvalue
        # overtakes it
        e = expansion_coefficients(6, params(0.3), REF)
        near = []
        for bp in branch6.points:
            eps = abs(modal_spectrum(bp.field).amplitude(6)) / abs(e.a)
            if eps > 0.035:
                break
            lam = spectrum_at(bp)
            slow = lam[lam.imag == 0][0].real
            near.append((eps, slow / (eps ** 2 * e.gamma2)))
        assert len(near) >= 4 and near[0][0] < 0.015
        for eps, ratio in near:
            assert 35.0 <= (ratio - 1.0) / eps ** 2 <= 50.0, (eps, ratio)


class TestTraceBranch:
    def test_reaches_sigma_min_backward(self, branch6):
        assert branch6.termination is Termination.REACHED_SIGMA_MIN
        sig = branch6.sigmas
        assert sig[0] > 0.49
        assert sig[-1] <= 0.05
        assert np.all(np.diff(sig) < 0)  # backward branch, no folds

    def test_amplitude_grows_away_from_onset(self, branch6):
        amp = np.array([bp.amplitude for bp in branch6.points])
        assert np.all(np.diff(amp) > 0)
        assert amp[0] < 0.06
        assert amp[-1] > 0.3

    def test_every_point_is_steady(self, branch6):
        for bp in branch6.points[:: max(1, len(branch6.points) // 6)]:
            ru, rv = stationary_residual(bp.field, params(bp.sigma), REF)
            assert max(ru, rv) <= 10 * 1e-10
            assert bp.residual <= 1e-10

    def test_box_bounds_respected(self, branch6):
        for bp in branch6.points:
            assert np.min(bp.field.u) > 1e-2
            assert np.max(bp.field.u) < 100.0

    def test_near_onset_amplitude_matches_prediction(self, branch6):
        # leading-mode amplitude against the backward-branch law
        e = expansion_coefficients(6, params(0.3), REF)
        for bp in branch6.points:
            eps = epsilon_for_sigma(e, bp.sigma)
            if eps > 0.05:
                continue
            measured = modal_spectrum(bp.field).amplitude(6)
            predicted = eps * e.a
            tol = 0.03 if eps <= 0.02 else 0.10
            assert measured == pytest.approx(predicted, rel=tol)

    @pytest.mark.parametrize("n", [32, 128, 1024])
    @pytest.mark.parametrize("j", range(1, 12))
    def test_seeds_below_the_grids_own_onset(self, j, n):
        # the grid's onset, at its eigenvalue lam_h, lies up to a few 1e-3
        # off sigma0 on a coarse grid, on either side
        lam_h = discrete.grid_eigenvalue(j, 20.0, n)
        sigma_h = _bifurcation_sigma(lam_h, params(0.3), *taylor_at_one(REF, 2))
        offset = continuation.SEED_OFFSET
        curve = trace_branch(j, params(0.3), REF, sigma_min=sigma_h - offset - 1e-4, n=n)
        bp = curve.points[0]
        assert bp.sigma == sigma_h - offset
        assert modal_spectrum(bp.field).dominant == j
        assert bp.residual < 1e-10

    @pytest.mark.parametrize("j", [10, 11])
    def test_seeds_below_discrete_onset_on_coarse_grid(self, j):
        # at n = 128 the discrete onset lies above sigma0 (0.19362 vs 0.18950
        # for j = 10, 0.01217 vs 0.00541 for j = 11), so the seed, SEED_OFFSET
        # below it, lies above sigma0 too
        e = expansion_coefficients(j, params(0.3), REF)
        curve = trace_branch(j, params(0.3), REF, sigma_min=e.sigma0 - 2e-3, n=128)
        assert curve.termination is Termination.REACHED_SIGMA_MIN
        assert curve.points[0].sigma > e.sigma0 + 2e-3
        assert len(curve.points) >= 4
        amp = np.array([bp.amplitude for bp in curve.points])
        assert amp[0] > 0.01 and np.all(np.diff(amp) > 0)
        for bp in curve.points:
            assert modal_spectrum(bp.field).dominant == j
            assert bp.residual < 1e-10

    def test_seed_off_its_mode_is_seed_failure(self):
        # at n = 16 Newton carries the mode-10 seed onto another mode
        with pytest.raises(SeedFailureError, match="mode 10 seed converged onto mode"):
            trace_branch(10, params(0.3), REF, sigma_min=0.05, n=16)

    def test_seed_collapsed_onto_uniform_state_is_seed_failure(self, monkeypatch):
        # a seed that Newton carries onto (1, 1) has no pattern, so mode 0
        def uniform_point(init, p, m):
            ones = np.ones_like(init.u)
            return continuation._branch_point(p.l, ones, ones.copy(), p.sigma, 1, 0.0)

        monkeypatch.setattr(continuation, "newton_steady", uniform_point)
        with pytest.raises(SeedFailureError, match="mode 6 seed converged onto mode 0$"):
            trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)

    def test_no_branch_beyond_cutoff(self):
        with pytest.raises(SeedFailureError):
            trace_branch(12, params(0.3), REF, sigma_min=0.05)

    def test_empty_when_sigma_min_above_onset(self):
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.6)
        assert curve.points == ()
        assert curve.termination is Termination.REACHED_SIGMA_MIN

    def test_point_cap_reported(self, monkeypatch):
        monkeypatch.setattr(continuation, "MAX_POINTS", 5)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05)
        assert curve.termination is Termination.MAX_POINTS
        assert len(curve.points) == 5

    def test_corrector_failure_at_minimum_step_reported(self, monkeypatch):
        # with no Newton step allowed every corrector fails: the loop halves
        # the step down to DS_MIN, tries it once and stops with the seed alone
        steps = []

        def newton(*args):
            if len(args) > 6:
                steps.append(args[6][4])
                assert len(steps) < 100, "no exit at DS_MIN"
            return discrete.newton(*args)

        monkeypatch.setattr(continuation, "MAX_CORRECTOR_STEPS", 0)
        monkeypatch.setattr(continuation, "newton", newton)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)
        assert curve.termination is Termination.NEWTON_FAILURE
        assert len(curve.points) == 1
        assert steps[0] == continuation.DS_START and steps[-1] == continuation.DS_MIN
        assert np.all(np.diff(steps) < 0)

    def test_collapsed_corrector_is_retried_at_half_the_step(self, monkeypatch):
        # a corrector that lands on the uniform state (1, 1) has left the
        # branch: it is not kept, and the step is tried again at half the size
        steps = []

        def newton(u, v, h, D, sigma, m, border=None, max_steps=None):
            if border is not None:
                steps.append(border[4])
                if len(steps) == 1:
                    return np.ones_like(u), np.ones_like(v), sigma, 1, 0.0
            return discrete.newton(u, v, h, D, sigma, m, border, max_steps)

        monkeypatch.setattr(continuation, "newton", newton)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)
        assert steps[:2] == [continuation.DS_START, continuation.DS_START / 2]
        assert curve.termination is Termination.REACHED_SIGMA_MIN
        assert all(bp.amplitude >= continuation.COLLAPSE_FLOOR for bp in curve.points)

    def test_fold_budget_reported(self):
        # at n = 128 the mode-4 trace turns back in sigma again and again;
        # the fold past MAX_FOLDS ends it, the point that made it kept
        curve = trace_branch(4, params(0.3), REF, sigma_min=0.05, n=128)
        assert curve.termination is Termination.FOLD_LIMIT
        turns = np.count_nonzero(np.diff(np.sign(np.diff(curve.sigmas))))
        assert turns == continuation.MAX_FOLDS + 1
        assert curve.sigmas[-1] > 0.05

    def test_box_bound_reported(self, monkeypatch):
        # in a box of [1 / 1.2, 1.2] the growing mode-6 pattern soon leaves
        # it; the corrector outside the box is not kept
        monkeypatch.setattr(continuation, "B_MAX", 1.2)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)
        assert curve.termination is Termination.AMPLITUDE_BOUND
        assert len(curve.points) >= 2
        for bp in curve.points:
            for w in (bp.field.u, bp.field.v):
                assert 1 / 1.2 <= np.min(w) and np.max(w) <= 1.2

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: a trace keeps the first point at or below sigma_min "
        "even where its sigma is negative; this one ends at sigma = -0.00669, "
        "a state ModelParams rejects",
    )
    def test_no_point_below_zero_sigma(self):
        # mode 11 at n = 128: sigma_min = sigma0 - 2e-3 = 0.0034, and the last
        # arclength step overshoots it past 0
        e = expansion_coefficients(11, params(0.3), REF)
        curve = trace_branch(11, params(0.3), REF, sigma_min=e.sigma0 - 2e-3, n=128)
        assert all(bp.sigma >= 0 for bp in curve.points)

    def test_overflowing_corrector_fails_without_warning(self, monkeypatch):
        # the first corrector iterates at this step overflow; under the suite's
        # error::RuntimeWarning filter numpy's overflow warning would be raised.
        # The loop halves the step until a natural step converges
        monkeypatch.setattr(continuation, "DS_START", 1e300)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)
        assert curve.termination is Termination.REACHED_SIGMA_MIN
        first, second = curve.points[:2]
        assert 0 < first.sigma - second.sigma <= continuation.DS_MAX

    def test_first_step_below_rounding_is_newton_failure(self, monkeypatch):
        # sigma_seed - 1e-300 == sigma_seed: the corrector returns the seed
        # unchanged, the secant has length 0, and the repeated point is kept
        monkeypatch.setattr(continuation, "DS_START", 1e-300)
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.05, n=64)
        assert curve.termination is Termination.NEWTON_FAILURE
        seed, repeated = curve.points
        assert repeated.sigma == seed.sigma and repeated.newton_iters == 0
        assert np.array_equal(repeated.field.u, seed.field.u)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(sigma_min=float("inf")), "sigma_min"),
        (dict(sigma_min=-5e-324), "sigma_min"),
        (dict(n=-16), "n must be >= 16"),
        (dict(sigma_min=float("nan")), "sigma_min"),
        (dict(sigma_min=float("-inf")), "sigma_min"),
        (dict(sigma_min=-0.1), "sigma_min"),
        (dict(n=0), "n must be >= 16"),
        (dict(n=15), "n must be >= 16"),
    ])
    def test_rejects_bad_input(self, kwargs, match, monkeypatch):
        # rejected before any work: the mode scan is never reached
        monkeypatch.setattr(continuation, "scan_modes", None)
        with pytest.raises(ValueError, match=match):
            trace_branch(6, params(0.3), REF, **{"sigma_min": 0.05, **kwargs})


class TestDynamicCrossCheck:
    """Time integration agrees with the branch stability verdicts.  The
    departure of a wrong-mode branch point is criterion 13's dynamic check
    (tests/test_acceptance.py)."""

    def test_admissible_branch_point_attracts(self):
        curve = trace_branch(6, params(0.3), REF, sigma_min=0.31)
        bp = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
        rng = np.random.default_rng(11)
        noisy = Field(
            u=bp.field.u + 1e-4 * rng.uniform(-1, 1, bp.field.u.size),
            v=bp.field.v + 1e-4 * rng.uniform(-1, 1, bp.field.v.size),
            l=bp.field.l,
        )
        cfg = SimConfig(
            params=params(bp.sigma), motility=REF, init=ExplicitField(noisy),
            n=bp.field.n, t_end=300.0, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert modal_spectrum(traj.final).dominant == 6
        assert np.max(np.abs(traj.final.u - bp.field.u)) < 1e-4

