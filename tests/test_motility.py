import numpy as np
import pytest

from colonykit import ExponentialDecay, LogisticDecay


class TestLogisticDecay:
    def test_center_values(self):
        m = LogisticDecay(steepness=8.0, center=1.0)
        assert m.evaluate(1.0, 0) == pytest.approx(0.5, abs=0)
        assert m.evaluate(1.0, 1) == pytest.approx(-2.0, rel=1e-14)
        assert m.evaluate(1.0, 2) == pytest.approx(0.0, abs=1e-14)
        # k**3 / 8 at the center; cross-checked by finite differences below
        assert m.evaluate(1.0, 3) == pytest.approx(64.0, rel=1e-13)

    @pytest.mark.parametrize("k", [2.0, 5.0, 8.0, 11.5])
    def test_center_derivative_pattern(self, k):
        m = LogisticDecay(steepness=k, center=1.0)
        assert m.evaluate(1.0, 0) == pytest.approx(0.5)
        assert m.evaluate(1.0, 1) == pytest.approx(-k / 4)
        assert m.evaluate(1.0, 2) == pytest.approx(0.0, abs=1e-12)
        assert m.evaluate(1.0, 3) == pytest.approx(k ** 3 / 8)

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


@pytest.mark.parametrize("family, kwargs", [
    (LogisticDecay, {"center": -200.0}),
    (LogisticDecay, {"steepness": 1e3, "center": 0.0}),
    (ExponentialDecay, {"rate": 1000.0}),
    (ExponentialDecay, {"r0": 1e-300, "rate": 100.0}),
])
def test_rejects_r_underflowing_at_one(family, kwargs):
    # the linear analysis divides by r(1); a library caller must not meet a
    # ZeroDivisionError there
    with pytest.raises(ValueError, match="r\\(1\\) underflows to 0"):
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


class TestEvaluate:
    def test_order_validation(self):
        for m in (LogisticDecay(), ExponentialDecay()):
            for order in (4, -1):
                with pytest.raises(ValueError):
                    m.evaluate(1.0, order)

    @pytest.mark.parametrize("m", [LogisticDecay(), ExponentialDecay()])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_return_types(self, m, order):
        # callers use the result as it comes: float64 arrays, Python floats;
        # the argument is left as it was
        assert type(m.evaluate(1.0, order)) is float
        for v in (np.array([0.5, 1.0, 2.0]), np.array([0, 1, 2]), np.full((2, 3), 1.5)):
            v0 = v.copy()
            out = m.evaluate(v, order)
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.float64 and out.shape == v.shape
            assert np.array_equal(v, v0) and v.dtype == v0.dtype

    def test_vectorized(self):
        m = ExponentialDecay(r0=1.0, rate=1.0)
        v = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(m.evaluate(v, 0), np.exp(-v))
        np.testing.assert_allclose(m.evaluate(v, 1), -np.exp(-v))

