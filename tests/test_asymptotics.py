import numpy as np
import pytest
from scipy.integrate import simpson

from colonykit import (
    BranchSideError,
    BranchVerdict,
    ExponentialDecay,
    LogisticDecay,
    ModelParams,
    NonpositiveSigma0Error,
    epsilon_for_sigma,
    eta_by_quadrature,
    expansion_coefficients,
    scan_modes,
)
from colonykit import asymptotics
from colonykit.asymptotics import adjoint_projection_first_order, second_order_profiles

REF = LogisticDecay(steepness=8.0, center=1.0)
P = ModelParams(D=1.0, sigma=0.3, l=20.0)


@pytest.fixture(scope="module")
def summary():
    return scan_modes(P, REF)


@pytest.fixture(scope="module")
def exp6(summary):
    return expansion_coefficients(6, P, REF, summary)


class TestCoefficients:
    def test_reference_mode6(self, exp6):
        assert exp6.a == pytest.approx(1.8883, abs=5e-4)
        assert exp6.c == pytest.approx(exp6.a / -2.0, rel=1e-12)
        assert exp6.d1 == pytest.approx(-1.7828, abs=5e-4)
        assert exp6.d2 == pytest.approx(8.1736, abs=5e-4)
        assert exp6.d3 == exp6.d1
        assert exp6.d4 == pytest.approx(1.7952, abs=5e-4)
        assert exp6.sigma2 == pytest.approx(-5.4569, rel=2e-3)

    def test_reference_sigma2_values(self, summary):
        expected = {7: -8.5523, 8: -13.4555, 9: -21.4103, 10: -34.1442, 11: -54.0143}
        for j, ref in expected.items():
            e = expansion_coefficients(j, P, REF, summary)
            assert e.sigma2 == pytest.approx(ref, rel=2e-3)

    def test_solvability_identities(self, summary):
        # exact structural relations, any admissible mode and motility
        for m in (REF, ExponentialDecay(r0=np.e ** 2, rate=2.0)):
            s = scan_modes(P, m)
            for j in range(1, s.i_c + 1):
                e = expansion_coefficients(j, P, m, s)
                assert e.d1 == e.d3
                assert e.d2 == pytest.approx((1 + 4 * P.D * e.lambda_j) * e.d4, rel=1e-14)
                assert e.d1 == pytest.approx(-e.a ** 2 / 2, rel=1e-14)
                assert e.c < 0

    def test_nonpositive_sigma0_rejected(self, summary):
        with pytest.raises(NonpositiveSigma0Error):
            expansion_coefficients(12, P, REF, summary)

    def test_eta_populated_only_at_admissible_mode(self, summary):
        e5 = expansion_coefficients(5, P, REF, summary)
        assert e5.eta is None and e5.gamma2 is None
        e6 = expansion_coefficients(6, P, REF, summary)
        assert e6.eta is not None and e6.gamma2 is not None


class TestEta:
    def test_reference_value(self, summary, exp6):
        assert summary.i_a == exp6.j
        assert exp6.eta == pytest.approx(10.3042, rel=1e-3)

    def test_quadrature_oracle_agrees(self, summary, exp6):
        quad = eta_by_quadrature(P, REF, summary)
        assert quad == pytest.approx(exp6.eta, rel=1e-6)

    def test_quadrature_oracle_with_asymmetric_taylor_data(self):
        # nonzero second and third derivatives exercise every forcing term
        for m in (LogisticDecay(steepness=6.0, center=1.1), ExponentialDecay(r0=np.e ** 2, rate=2.0)):
            p = ModelParams(D=1.0, sigma=0.1, l=20.0)
            s = scan_modes(p, m)
            closed = expansion_coefficients(s.i_a, p, m, s).eta
            assert eta_by_quadrature(p, m, s) == pytest.approx(closed, rel=1e-6)

    def test_first_order_projection_vanishes(self, summary, exp6):
        scale = abs(exp6.eta)
        assert abs(adjoint_projection_first_order(P, REF, summary)) < 1e-9 * scale

    def test_gamma2_negative_when_eta_positive(self, exp6):
        assert exp6.eta > 0
        assert exp6.gamma2 < 0

    def test_gamma2_sign_opposes_eta(self):
        # c < 0 and a negative adjoint normalization make the slow
        # eigenvalue's sign the opposite of eta's, for any motility
        cases = [
            (LogisticDecay(steepness=8.0, center=1.0), 0.3),
            (LogisticDecay(steepness=6.0, center=1.1), 0.1),
            (LogisticDecay(steepness=2.2, center=1.0), 0.01),
            (ExponentialDecay(r0=np.e ** 2, rate=2.0), 0.1),
        ]
        for m, sigma in cases:
            p = ModelParams(D=1.0, sigma=sigma, l=20.0)
            s = scan_modes(p, m)
            e = expansion_coefficients(s.i_a, p, m, s)
            assert e.gamma2 * e.eta < 0

    def test_eta_affine_in_sigma2(self, exp6):
        # the closed form is affine in sigma2 with slope a/2
        from colonykit.asymptotics import _eta_closed_form

        base = _eta_closed_form(exp6.lambda_j, exp6.sigma0, exp6.sigma2, exp6.a,
                                exp6.d1, exp6.d2, exp6.d3, exp6.d4, -2.0, 0.0, 64.0)
        shifted = _eta_closed_form(exp6.lambda_j, exp6.sigma0, exp6.sigma2 + 1.0, exp6.a,
                                   exp6.d1, exp6.d2, exp6.d3, exp6.d4, -2.0, 0.0, 64.0)
        assert shifted - base == pytest.approx(exp6.a / 2, rel=1e-12)


class TestSimpsonMatchesScipy:
    """The in-house Simpson rule against scipy.integrate.simpson."""

    @pytest.mark.parametrize("m", [
        LogisticDecay(steepness=6.0),
        LogisticDecay(steepness=8.0),
        LogisticDecay(steepness=10.0),
        ExponentialDecay(rate=3.0),
    ], ids=["logistic6", "logistic8", "logistic10", "exponential"])
    def test_quadratures_equal_scipy_value(self, m, monkeypatch):
        s = scan_modes(P, m)
        ours = (eta_by_quadrature(P, m, s), adjoint_projection_first_order(P, m, s))
        monkeypatch.setattr(asymptotics, "_simpson", lambda y, x: simpson(y, x=x))
        assert (eta_by_quadrature(P, m, s), adjoint_projection_first_order(P, m, s)) == ours

    @pytest.mark.parametrize("n", [3, 5, 101, 4097])
    def test_uneven_grid(self, n):
        # spacings over four decades, so every rounding of the node weights shows
        rng = np.random.default_rng(3)
        x = np.cumsum(10.0 ** rng.uniform(-3.0, 1.0, n))
        y = rng.normal(size=n)
        assert asymptotics._simpson(y, x) == simpson(y, x=x)


class TestApproximateState:
    def test_reference_profile_values(self, exp6):
        u, v = second_order_profiles(exp6, 0.01, np.linspace(0.0, 20.0, 513))
        # value at the left boundary: 1 + eps a + eps^2 (d1 + d2)
        expected = 1.0 + 0.01 * exp6.a + 1e-4 * (exp6.d1 + exp6.d2)
        assert u[0] == pytest.approx(expected, rel=1e-14)
        assert u[0] == pytest.approx(1.0 + 0.01 * 1.8883 + 1e-4 * (-1.7828 + 8.1736), abs=1e-5)
        assert v[0] == pytest.approx(1.0 + 0.01 + 1e-4 * (exp6.d3 + exp6.d4), rel=1e-14)

    def test_zero_amplitude_is_uniform(self, exp6):
        u, v = second_order_profiles(exp6, 0.0, np.linspace(0.0, 20.0, 129))
        np.testing.assert_array_equal(u, np.ones(129))
        np.testing.assert_array_equal(v, np.ones(129))

    def test_neumann_compatibility(self, exp6):
        # cosine modes have vanishing slope at both walls; check with a
        # one-sided fine difference of the analytic profile
        grid = np.linspace(0.0, 20.0, 2049)
        h = grid[1] - grid[0]
        for u in second_order_profiles(exp6, 0.01, grid):
            assert abs(-1.5 * u[0] + 2 * u[1] - 0.5 * u[2]) / h < 1e-5
            assert abs(1.5 * u[-1] - 2 * u[-2] + 0.5 * u[-3]) / h < 1e-5


class TestAmplitudeLaw:
    def test_zero_at_onset(self, exp6):
        assert epsilon_for_sigma(exp6, exp6.sigma0) == 0.0

    def test_inversion_identity(self, exp6):
        sigma = exp6.sigma0 + exp6.sigma2 * 1e-4
        assert epsilon_for_sigma(exp6, sigma) == pytest.approx(0.01, rel=1e-12)

    def test_reference_example(self, exp6):
        # published rounding of the same identity
        sigma = 0.4967 - 5.4569e-4
        assert epsilon_for_sigma(exp6, sigma) == pytest.approx(0.01, rel=1e-2)

    def test_wrong_side_raises(self, exp6):
        with pytest.raises(BranchSideError):
            epsilon_for_sigma(exp6, 0.51)

    def test_amplitude_decreases_toward_onset(self, exp6):
        sigmas = np.linspace(0.45, exp6.sigma0, 20)
        amps = [epsilon_for_sigma(exp6, s) for s in sigmas]
        assert all(a >= b for a, b in zip(amps, amps[1:]))


class TestBranchStability:
    def test_reference_verdicts(self, summary):
        for j in range(1, 12):
            e = expansion_coefficients(j, P, REF, summary)
            if j == 6:
                assert e.verdict is BranchVerdict.STABLE_ADMISSIBLE
            else:
                assert e.verdict is BranchVerdict.UNSTABLE_WRONG_MODE

    def test_unstable_admissible_with_shallow_motility(self):
        # shallow logistic: the cubic contribution is too weak to stabilize
        # the admissible branch, so eta turns negative
        m = LogisticDecay(steepness=2.2, center=1.0)
        p = ModelParams(D=1.0, sigma=0.01, l=20.0)
        s = scan_modes(p, m)
        e = expansion_coefficients(s.i_a, p, m, s)
        assert e.eta < 0
        assert e.verdict is BranchVerdict.UNSTABLE_ADMISSIBLE
        assert e.gamma2 > 0


class TestResidualOrder:
    def test_second_order_field_residual_scaling(self, exp6):
        # independent consistency oracle: the truncated state plugged into
        # the discrete stationary operator must lose accuracy as the cube
        # of the amplitude
        from colonykit import stationary_residual
        from colonykit.asymptotics import second_order_profiles
        from colonykit.pde_solver import Field

        grid = np.linspace(0.0, 20.0, 65537)
        eps_values = [0.005, 0.01, 0.02]
        residuals = []
        for eps in eps_values:
            u, v = second_order_profiles(exp6, eps, grid)
            f = Field(u=u, v=v, l=20.0)
            p_eps = ModelParams(D=1.0, sigma=exp6.sigma0 + eps ** 2 * exp6.sigma2, l=20.0)
            ru, rv = stationary_residual(f, p_eps, REF)
            residuals.append(max(ru, rv))
        slope = np.polyfit(np.log(eps_values), np.log(residuals), 1)[0]
        assert slope >= 2.7
