import numpy as np
import pytest

from colonykit import (
    CustomMotility,
    EvaluationError,
    ExponentialDecay,
    LogisticDecay,
    eval_r,
    validate_structure,
)


class TestLogisticDecay:
    def test_center_values(self):
        m = LogisticDecay(steepness=8.0, center=1.0)
        assert eval_r(m, 1.0, 0) == pytest.approx(0.5, abs=0)
        assert eval_r(m, 1.0, 1) == pytest.approx(-2.0, rel=1e-14)
        assert eval_r(m, 1.0, 2) == pytest.approx(0.0, abs=1e-14)
        # k**3 / 8 at the center; cross-checked by finite differences below
        assert eval_r(m, 1.0, 3) == pytest.approx(64.0, rel=1e-13)

    @pytest.mark.parametrize("k", [2.0, 5.0, 8.0, 11.5])
    def test_center_derivative_pattern(self, k):
        m = LogisticDecay(steepness=k, center=1.0)
        assert eval_r(m, 1.0, 0) == pytest.approx(0.5)
        assert eval_r(m, 1.0, 1) == pytest.approx(-k / 4)
        assert eval_r(m, 1.0, 2) == pytest.approx(0.0, abs=1e-12)
        assert eval_r(m, 1.0, 3) == pytest.approx(k ** 3 / 8)

    def test_third_derivative_against_finite_differences(self):
        # independent confirmation of the closed form: central difference of
        # the exact second derivative
        m = LogisticDecay(steepness=8.0, center=1.0)
        h = 1e-4
        for v in [0.3, 0.8, 1.0, 1.4, 2.5]:
            fd = (m.evaluate(v + h, 2) - m.evaluate(v - h, 2)) / (2 * h)
            assert m.evaluate(v, 3) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_rejects_bad_steepness(self):
        with pytest.raises(ValueError):
            LogisticDecay(steepness=-1.0)


@pytest.mark.parametrize("family, kwargs", [
    (LogisticDecay, dict(steepness=np.nan)),
    (LogisticDecay, dict(steepness=np.inf)),
    (LogisticDecay, dict(center=np.nan)),
    (ExponentialDecay, dict(r0=np.nan)),
    (ExponentialDecay, dict(rate=np.inf)),
])
def test_rejects_nonfinite_parameters(family, kwargs):
    with pytest.raises(ValueError):
        family(**kwargs)


class TestDerivativeConsistency:
    """Analytic order-n derivative vs central difference of order n-1."""

    @pytest.mark.parametrize(
        "model",
        [
            LogisticDecay(steepness=8.0, center=1.0),
            LogisticDecay(steepness=3.0, center=0.7),
            ExponentialDecay(r0=2.0, rate=1.3),
        ],
    )
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_against_richardson_differences(self, model, order):
        grid = np.linspace(0.1, 3.0, 17)
        h = 1e-4

        def central(v, hh):
            return (model.evaluate(v + hh, order - 1) - model.evaluate(v - hh, order - 1)) / (2 * hh)

        fd = (4 * central(grid, h / 2) - central(grid, h)) / 3
        exact = model.evaluate(grid, order)
        scale = np.maximum(np.abs(exact), 1e-8)
        assert np.max(np.abs(fd - exact) / scale) < 1e-6


class TestEvalR:
    def test_order_validation(self):
        m = LogisticDecay()
        with pytest.raises(ValueError):
            eval_r(m, 1.0, 4)
        with pytest.raises(ValueError):
            eval_r(m, 1.0, -1)

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            eval_r(LogisticDecay(), -0.5, 0)

    def test_vectorized(self):
        m = ExponentialDecay(r0=1.0, rate=1.0)
        v = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(eval_r(m, v, 0), np.exp(-v))
        np.testing.assert_allclose(eval_r(m, v, 1), -np.exp(-v))


class TestCustomMotility:
    def test_matches_analytic_family(self):
        exact = LogisticDecay(steepness=8.0, center=1.0)
        custom = CustomMotility(lambda v: 1.0 / (1.0 + np.exp(8.0 * (v - 1.0))))
        for order in range(4):
            for v in [0.5, 1.0, 1.5]:
                assert custom.evaluate(v, order) == pytest.approx(
                    exact.evaluate(v, order), rel=1e-6, abs=1e-4
                )

    def test_failing_evaluator(self):
        def broken(v):
            raise RuntimeError("sensor offline")

        m = CustomMotility(broken)
        with pytest.raises(EvaluationError):
            m.evaluate(1.0, 0)

    def test_nonfinite_evaluator(self):
        m = CustomMotility(lambda v: np.where(v > 0.9, np.inf, 1.0))
        with pytest.raises(EvaluationError):
            m.evaluate(1.0, 0)


class TestValidation:
    def test_reference_logistic_passes(self):
        report = validate_structure(LogisticDecay(steepness=8.0, center=1.0), v_max=5.0, n_samples=1000)
        assert report.passed
        assert report.decay_margin == pytest.approx(-1.5, rel=1e-12)
        assert report.has_instability_window

    def test_constant_motility_fails_decrease(self):
        report = validate_structure(CustomMotility(lambda v: np.ones_like(v)))
        assert not report.passed
        assert report.violation_kind == "nondecreasing_r"
        assert not report.has_instability_window

    def test_exponential_passes(self):
        report = validate_structure(ExponentialDecay(r0=1.0, rate=1.0), v_max=10.0, n_samples=100)
        assert report.passed

    def test_sign_violation_location(self):
        # positive then crossing zero near v = 2
        report = validate_structure(CustomMotility(lambda v: 2.0 - v), v_max=5.0, n_samples=501)
        assert not report.passed
        assert report.violation_kind == "nonpositive_r"
        assert report.violation_v == pytest.approx(2.0, abs=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            validate_structure(LogisticDecay(), v_max=-1.0)
        with pytest.raises(ValueError):
            validate_structure(LogisticDecay(), n_samples=1)
