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
from colonykit import continuation
from colonykit.asymptotics import second_order_profiles
from colonykit.discrete import jacobian_banded, residual

REF = LogisticDecay(steepness=8.0, center=1.0)


def params(sigma):
    return ModelParams(D=1.0, sigma=sigma, l=20.0)


def asymptotic_field(j, sigma, n=256):
    e = expansion_coefficients(j, params(sigma), REF)
    eps = epsilon_for_sigma(e, sigma)
    return Field(*second_order_profiles(e, eps, np.linspace(0.0, 20.0, n + 1)), l=20.0)


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
        ab = jacobian_banded(u, v, h, D, sigma, m)
        m_size = 2 * (n + 1)
        dense = np.zeros((m_size, m_size))
        for col in range(m_size):
            for row in range(max(0, col - 3), min(m_size, col + 3)):
                band_row = 3 + row - col
                if 0 <= band_row < 6:
                    dense[row, col] = ab[band_row, col]

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
        monkeypatch.setattr(continuation, "MAX_NEWTON_ITERS", 4)
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

