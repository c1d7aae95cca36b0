import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from colonykit import (
    ExponentialDecay,
    LogisticDecay,
    ModelParams,
    NoInstabilityWindowError,
    NoPositiveModesError,
    ScanWindowError,
    StabilityKind,
    bifurcation_sigma,
    classify_uniform_state,
    critical_sigma,
    dispersion_roots,
    eigenvalue_lambda,
    scan_modes,
)
from colonykit import linear_analysis

REF = LogisticDecay(steepness=8.0, center=1.0)

# both decreasing motility families over a range of their parameters
MOTILITIES = st.one_of(
    st.builds(LogisticDecay, steepness=st.floats(0.1, 20.0), center=st.floats(-1.0, 3.0)),
    st.builds(ExponentialDecay, r0=st.floats(0.1, 10.0), rate=st.floats(0.1, 10.0)),
)


def params(sigma=0.3, D=1.0, l=20.0):
    return ModelParams(D=D, sigma=sigma, l=l)


class TestEigenvalue:
    def test_values(self):
        assert eigenvalue_lambda(0, 20.0) == 0.0
        assert eigenvalue_lambda(1, math.pi) == pytest.approx(1.0, rel=1e-15)
        assert eigenvalue_lambda(6, 20.0) == pytest.approx((0.3 * math.pi) ** 2, rel=1e-15)
        assert math.sqrt(eigenvalue_lambda(6, 20.0)) == pytest.approx(0.9425, abs=5e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            eigenvalue_lambda(-1, 20.0)
        with pytest.raises(ValueError):
            eigenvalue_lambda(1, 0.0)


class TestBifurcationSigma:
    @pytest.mark.parametrize(
        "j,expected",
        [(6, 0.4967), (7, 0.4901), (8, 0.4350), (9, 0.3337), (10, 0.1895), (11, 0.0054)],
    )
    def test_reference_values(self, j, expected):
        assert bifurcation_sigma(j, params(), REF) == pytest.approx(expected, abs=5e-5)

    def test_negative_beyond_cutoff(self):
        assert bifurcation_sigma(12, params(), REF) < 0

    def test_zero_at_balanced_motility(self):
        # r'(1) = -r(1) (1 + D lambda_j) zeroes the bifurcation value
        p = params()
        lam = eigenvalue_lambda(3, p.l)
        k = 4 * 0.5 * (1 + lam)  # logistic: r(1) = 1/2, r'(1) = -k/4
        m = LogisticDecay(steepness=k, center=1.0)
        assert bifurcation_sigma(3, p, m) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_mode_zero(self):
        with pytest.raises(ValueError):
            bifurcation_sigma(0, params(), REF)


class TestDispersionRoots:
    def test_factored_case_at_lambda_zero(self):
        roots = dispersion_roots(0.0, params(sigma=0.3), REF)
        assert roots[0] == pytest.approx(-0.3)
        assert roots[1] == pytest.approx(-1.0)

    def test_root_vanishes_at_bifurcation_value(self):
        lam = eigenvalue_lambda(6, 20.0)
        sig6 = bifurcation_sigma(6, params(), REF)
        roots = dispersion_roots(lam, params(sigma=sig6), REF)
        assert abs(roots[0]) < 1e-10

    def test_positive_root_below_bifurcation_value(self):
        lam = eigenvalue_lambda(6, 20.0)
        roots = dispersion_roots(lam, params(sigma=0.3), REF)
        assert roots[0].imag == 0.0
        assert roots[0].real > 0

    def test_vieta_identities(self):
        # product of roots = constant coefficient, sum = -linear coefficient
        rng = np.random.default_rng(42)
        r1 = REF.evaluate(1.0, 0)
        rp1 = REF.evaluate(1.0, 1)
        for _ in range(200):
            lam = float(rng.uniform(0.0, 10.0))
            sigma = float(rng.uniform(0.0, 1.0))
            p = params(sigma=sigma)
            b = (p.D + r1) * lam + 1.0 + sigma
            c = (sigma + r1 * lam) * (1.0 + p.D * lam) + rp1 * lam
            z1, z2 = dispersion_roots(lam, p, REF)
            assert abs(z1 * z2 - c) <= 1e-12 * max(1.0, abs(c))
            assert abs(z1 + z2 + b) <= 1e-12 * max(1.0, abs(b))
            assert z1.real >= z2.real

    @settings(max_examples=300, deadline=None)
    @given(MOTILITIES, st.floats(0.01, 10.0), st.floats(0.0, 50.0), st.floats(0.0, 3.0))
    @example(REF, 1.0, 0.0, math.nextafter(1.0, 2.0))
    def test_roots_are_real(self, m, D, lam, sigma):
        # r is decreasing, so the discriminant is a square minus
        # 4 r'(1) lam >= 0, and Vieta holds at test_vieta_identities' tolerance
        r1, rp1 = m.evaluate(1.0, 0), m.evaluate(1.0, 1)
        b = (D + r1) * lam + 1.0 + sigma
        c = (sigma + r1 * lam) * (1.0 + D * lam) + rp1 * lam
        z1, z2 = dispersion_roots(lam, params(sigma=sigma, D=D), m)
        assert z1.imag == 0.0 and z2.imag == 0.0
        assert abs(z1 * z2 - c) <= 1e-12 * max(1.0, abs(c))
        assert abs(z1 + z2 + b) <= 1e-12 * max(1.0, abs(b))
        assert z1.real >= z2.real

    def test_double_root_up_to_rounding_is_real(self):
        # at lam = 0 the roots are -1 and -sigma; for sigma one ulp above 1
        # the unfactored discriminant (1 + sigma)^2 - 4 sigma rounds below 0
        sigma = math.nextafter(1.0, 2.0)
        assert dispersion_roots(0.0, params(sigma=sigma), REF) == (-1.0, -sigma)

    def test_near_double_root_to_one_ulp(self):
        # the factored discriminant is (sigma - 1)^2 at lam = 0, exact near
        # sigma = 1; (1 + sigma)^2 - 4 sigma cancels, and the roots from it
        # were off by up to 1.5e-8
        for sigma in 1.0 + 1e-10 * np.arange(-2000, 2001):
            got = dispersion_roots(0.0, params(sigma=float(sigma)), REF)
            want = sorted((-1.0, -sigma), reverse=True)
            assert all(z.imag == 0.0 for z in got)
            assert np.all(np.abs(np.real(got) - want) <= np.spacing(np.abs(want))), sigma

    def test_residual_of_quadratic(self):
        rng = np.random.default_rng(3)
        r1 = REF.evaluate(1.0, 0)
        rp1 = REF.evaluate(1.0, 1)
        for _ in range(100):
            lam = float(rng.uniform(0.0, 6.0))
            p = params(sigma=float(rng.uniform(0.0, 0.8)))
            b = (p.D + r1) * lam + 1.0 + p.sigma
            c = (p.sigma + r1 * lam) * (1.0 + p.D * lam) + rp1 * lam
            for z in dispersion_roots(lam, p, REF):
                residual = z * z + b * z + c
                assert abs(residual) <= 1e-12 * max(1.0, abs(b) ** 2, abs(c))


class TestCriticalSigma:
    def test_reference_values(self):
        sigma_c, lambda_star = critical_sigma(params(), REF)
        assert sigma_c == pytest.approx(0.5, abs=1e-12)
        assert lambda_star == pytest.approx(1.0, abs=1e-12)

    def test_no_window_raises(self):
        m = ExponentialDecay(r0=np.e ** 0.5, rate=0.5)  # r'(1) + r(1) = 0.5 > 0
        with pytest.raises(NoInstabilityWindowError):
            critical_sigma(params(), m)

    def test_envelope_dominates_grid_values(self):
        # sigma(lam) <= sigma_c for every real lam
        sigma_c, lambda_star = critical_sigma(params(), REF)
        rng = np.random.default_rng(11)
        r1 = REF.evaluate(1.0, 0)
        rp1 = REF.evaluate(1.0, 1)
        lams = rng.uniform(0.0, 4 * lambda_star, 1000)
        vals = -(rp1 / (1.0 + lams) + r1) * lams
        assert np.max(vals) <= sigma_c + 1e-12

    def test_zero_exactly_at_balanced_decay(self):
        # r'(1) = -r(1): the instability window has shrunk to a point at 0
        m = ExponentialDecay(r0=np.e, rate=1.0)
        sigma_c, lambda_star = critical_sigma(params(), m)
        assert sigma_c == pytest.approx(0.0, abs=1e-15)
        assert lambda_star == pytest.approx(0.0, abs=1e-15)


class TestScanModes:
    def test_reference_aggregates(self):
        s = scan_modes(params(), REF, j_max=30)
        assert s.i_c == 11
        assert s.i_a == 6
        assert s.sigma_a == pytest.approx(0.4967, abs=5e-5)
        assert s.sigma_c == pytest.approx(0.5, abs=1e-12)
        assert s.sigma_a <= s.sigma_c
        assert 1 <= s.i_a <= s.i_c

    def test_measured_ascending_order(self):
        s = scan_modes(params(), REF, j_max=30)
        below_cutoff = tuple(j for j in s.ordering if j <= 11)
        assert below_cutoff == (11, 1, 2, 10, 3, 9, 4, 8, 5, 7, 6)

    def test_sign_structure(self):
        s = scan_modes(params(), REF, j_max=30)
        for mi in s.modes:
            if mi.j <= s.i_c:
                assert mi.sigma_j > 0
            else:
                assert mi.sigma_j <= 0

    def test_argmax_consistency(self):
        s = scan_modes(params(), REF)
        for mi in s.modes[: s.i_c]:
            assert s.sigma_a >= mi.sigma_j

    def test_mode_info_invariants(self):
        p = params(sigma=0.3)
        s = scan_modes(p, REF)
        for mi in s.modes:
            assert mi.lambda_j == eigenvalue_lambda(mi.j, p.l)
            assert mi.a_j == 1.0 + p.D * mi.lambda_j
            assert mi.a_j > 0

    def test_matches_public_per_mode_functions(self):
        # the scan evaluates r(1), r'(1) once; the values must not move
        p = params(sigma=0.3)
        s = scan_modes(p, REF)
        for mi in s.modes:
            assert mi.sigma_j == bifurcation_sigma(mi.j, p, REF)
            assert mi.rho_pair == dispersion_roots(mi.lambda_j, p, REF)

    def test_reads_motility_once(self):
        calls = []

        class Counting:
            def evaluate(self, v, order=0):
                calls.append(order)
                return REF.evaluate(v, order)

        scan_modes(params(), Counting())
        assert calls == [0, 1]
        calls.clear()
        classify_uniform_state(params(), Counting())
        assert calls == [0, 1]

    def test_scan_window_too_small(self):
        with pytest.raises(ScanWindowError):
            scan_modes(params(), REF, j_max=5)

    @pytest.mark.parametrize("scan", [scan_modes, classify_uniform_state])
    def test_scan_window_capped(self, scan, monkeypatch):
        # the reference window is 4 ceil(l sqrt(lambda_star) / pi) = 28 modes
        monkeypatch.setattr(linear_analysis, "MAX_SCAN_MODES", 28)
        scan(params(), REF)
        scan(params(), REF, 28)
        monkeypatch.setattr(linear_analysis, "MAX_SCAN_MODES", 27)
        for j_max in (None, 28):
            with pytest.raises(ScanWindowError, match="MAX_SCAN_MODES = 27"):
                scan(params(), REF, j_max)

    @pytest.mark.parametrize("scan", [scan_modes, classify_uniform_state])
    def test_infinite_scan_window_is_refused(self, scan):
        # a subnormal D makes lambda_star inf, whose window math.ceil cannot
        # take; the huge finite windows are tested in a child process by
        # tests/test_cli.py, since without the cap they run for months
        with pytest.raises(ScanWindowError):
            scan(params(D=5e-324), REF)

    def test_no_positive_modes_on_short_domain(self):
        # lambda_1 already beyond the instability band
        with pytest.raises(NoPositiveModesError):
            scan_modes(params(l=1.0), REF, j_max=10)


class TestClassification:
    def test_stable_by_large_sigma(self):
        c = classify_uniform_state(params(sigma=0.6), REF)
        assert c.kind is StabilityKind.STABLE_BY_LARGE_SIGMA
        assert c.unstable_modes == ()
        assert c.max_growth_rate <= 0

    def test_unstable_at_low_sigma(self):
        c = classify_uniform_state(params(sigma=0.3), REF)
        assert c.kind is StabilityKind.UNSTABLE
        assert 6 in c.unstable_modes
        assert c.max_growth_rate > 0

    def test_stable_by_monotonicity(self):
        m = ExponentialDecay(r0=np.e, rate=1.0)  # r'(1) + r(1) = 0
        c = classify_uniform_state(params(sigma=0.05), m)
        assert c.kind is StabilityKind.STABLE_BY_MONOTONICITY

    def test_indeterminate_window(self):
        # between the grid maximum and the envelope maximum
        c = classify_uniform_state(params(sigma=0.499), REF)
        assert c.kind is StabilityKind.INDETERMINATE
        assert c.unstable_modes == ()


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [dict(D=0.0), dict(sigma=-0.1), dict(l=-5.0),
                                        dict(D=np.nan), dict(sigma=np.nan), dict(l=np.inf)])
    def test_validation(self, kwargs):
        defaults = dict(D=1.0, sigma=0.3, l=20.0)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**defaults)

    def test_shortest_length(self):
        # L_MIN keeps (pi j / l)^2 finite across the largest scan window
        assert ModelParams(l=linear_analysis.L_MIN).l == 1e-100
        with pytest.raises(ValueError, match="l must be finite and >= 1e-100"):
            ModelParams(l=math.nextafter(1e-100, 0.0))
        assert math.isfinite(eigenvalue_lambda(linear_analysis.MAX_SCAN_MODES, 1e-100))
