import numpy as np
import pytest

from colonykit import (
    CustomMotility,
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
from colonykit.discrete import jacobian_banded, residual, rightmost_eigenvalues

REF = LogisticDecay(steepness=8.0, center=1.0)


def params(sigma):
    return ModelParams(D=1.0, sigma=sigma, l=20.0)


def asymptotic_field(j, sigma, n=256):
    e = expansion_coefficients(j, params(sigma), REF)
    eps = epsilon_for_sigma(e, sigma)
    return Field(*second_order_profiles(e, eps, np.linspace(0.0, 20.0, n + 1)), l=20.0)


def dense_from_band(ab):
    """The full matrix of a Jacobian in the (2, 3)-banded layout."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for col in range(size):
        for row in range(max(0, col - 3), min(size, col + 3)):
            dense[row, col] = ab[3 + row - col, col]
    return dense


def jacobian_at(bp):
    f = bp.field
    return jacobian_banded(f.u, f.v, f.h, 1.0, bp.sigma, REF)


class TestJacobian:
    @pytest.mark.parametrize("m", [
        REF,
        ExponentialDecay(r0=np.e ** 2, rate=2.0),
        CustomMotility(lambda v: 2.0 / (1.0 + v ** 2)),
    ], ids=["logistic", "exponential", "custom"])
    def test_matches_finite_differences(self, m):
        # analytic banded assembly vs column-wise finite differences
        rng = np.random.default_rng(5)
        n = 12
        h = 20.0 / n
        u = 1.0 + 0.1 * rng.uniform(-1, 1, n + 1)
        v = 1.0 + 0.1 * rng.uniform(-1, 1, n + 1)
        sigma, D = 0.37, 1.0
        dense = dense_from_band(jacobian_banded(u, v, h, D, sigma, m))
        m_size = 2 * (n + 1)

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


class TestRightmostEigenvalues:
    @pytest.mark.parametrize("j", [4, 6, 8])
    def test_matches_dense_eigenvalues(self, j):
        curve = trace_branch(j, params(0.3), REF, sigma_min=0.315, n=128)
        bp = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
        ab = jacobian_at(bp)
        got = rightmost_eigenvalues(ab)
        dense = np.linalg.eigvals(dense_from_band(ab))
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
        abscissa = rightmost_eigenvalues(jacobian_at(bp))[0].real
        assert (abscissa < 0) == (e.verdict is BranchVerdict.STABLE_ADMISSIBLE)
        assert (abscissa < 0) == (j == 6)


@pytest.fixture(scope="module")
def branch6():
    return trace_branch(6, params(0.3), REF, sigma_min=0.05)


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

    @pytest.mark.parametrize("j", [10, 11])
    def test_seeds_below_discrete_onset_on_coarse_grid(self, j):
        # at n = 128 the discrete onset lies above sigma0 (0.19362 vs 0.18950
        # for j = 10, 0.01217 vs 0.00541 for j = 11), so the first seed collapses
        e = expansion_coefficients(j, params(0.3), REF)
        curve = trace_branch(j, params(0.3), REF, sigma_min=e.sigma0 - 2e-3, n=128)
        assert curve.termination is Termination.REACHED_SIGMA_MIN
        assert len(curve.points) == 2
        for bp in curve.points:
            assert bp.amplitude > 0.04
            assert modal_spectrum(bp.field).dominant == j
            assert bp.residual < 1e-10

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

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            trace_branch(6, params(0.3), REF, sigma_min=0.05, ds=-1.0)


@pytest.mark.slow
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
            n=bp.field.n, t_end=300.0, steady_tol=1e-10, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert modal_spectrum(traj.final).dominant == 6
        assert np.max(np.abs(traj.final.u - bp.field.u)) < 1e-4

