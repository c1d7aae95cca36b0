import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.signal import find_peaks

from colonykit import (
    AsymptoticMode,
    BlowUpError,
    ExplicitField,
    ExponentialDecay,
    Field,
    LogisticDecay,
    ModelParams,
    PositivityLossError,
    SimConfig,
    UniformPerturbed,
    count_peaks,
    modal_spectrum,
    simulate,
    stationary_residual,
)
from colonykit.discrete import laplacian, signal_band
from colonykit.asymptotics import second_order_profiles
from colonykit.pde_solver import DT_SAFETY, _find_peaks, initial_field

REF = LogisticDecay(steepness=8.0, center=1.0)


def params(sigma=0.3):
    return ModelParams(D=1.0, sigma=sigma, l=20.0)


def uniform_field(value=1.0, n=64):
    return Field(u=np.full(n + 1, value), v=np.full(n + 1, value), l=20.0)


def cosine_field(j, amplitude, n=256, l=20.0):
    x = np.linspace(0.0, l, n + 1)
    pattern = amplitude * np.cos(np.pi * j * x / l)
    return Field(u=1.0 + pattern, v=1.0 + pattern, l=l)


class TestField:
    def test_grid_properties(self):
        f = uniform_field(n=64)
        assert f.n == 64
        assert f.h == pytest.approx(20.0 / 64)
        assert f.x[0] == 0.0 and f.x[-1] == 20.0

    def test_rejects_nonfinite(self):
        u = np.ones(65)
        u[3] = np.nan
        with pytest.raises(ValueError):
            Field(u=u, v=np.ones(65), l=20.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Field(u=np.ones(65), v=np.ones(64), l=20.0)

    @pytest.mark.parametrize("l", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_length(self, l):
        with pytest.raises(ValueError, match="l must be finite"):
            Field(u=np.ones(65), v=np.ones(65), l=l)


def seeded_field(n, seed):
    rng = np.random.default_rng(seed)
    return Field(u=1.0 + 0.1 * rng.uniform(-1, 1, n + 1),
                 v=1.0 + 0.1 * rng.uniform(-1, 1, n + 1), l=20.0)


@st.composite
def positive_fields(draw):
    """Fields of 17 to 65 nodes with values anywhere in [0.1, 3]."""
    n = draw(st.integers(16, 64))
    values = st.lists(st.floats(0.1, 3.0), min_size=n + 1, max_size=n + 1)
    return Field(u=np.array(draw(values)), v=np.array(draw(values)), l=20.0)


def run_from(f, sigma, **kwargs):
    """simulate from an explicit field at the given growth rate."""
    cfg = SimConfig(params=params(sigma), motility=REF, init=ExplicitField(f), n=f.n, **kwargs)
    return simulate(cfg)


class TestStep:
    """Properties of a single IMEX step, observed through simulate."""

    def test_uniform_state_is_fixed_point(self):
        f = uniform_field(1.0)
        traj = run_from(f, 0.3, dt=1e-3, t_end=5.0)
        assert traj.steady
        np.testing.assert_array_equal(traj.final.u, f.u)
        np.testing.assert_array_equal(traj.final.v, f.v)

    def test_extinct_state_is_fixed_point(self):
        f = uniform_field(0.0)
        traj = run_from(f, 0.3, dt=1e-3, t_end=5.0)
        assert traj.steady
        np.testing.assert_array_equal(traj.final.u, f.u)
        np.testing.assert_array_equal(traj.final.v, f.v)

    @settings(max_examples=20, deadline=None)
    @given(positive_fields())
    @example(seeded_field(128, seed=1))
    def test_mass_conserved_without_growth(self, f):
        # with sigma = 0 the density equation is in divergence form, so the
        # trapezoidal mass is preserved to rounding over many steps
        traj = run_from(f, 0.0, t_end=100.0, steady_tol=1e-14, snapshot_every=5.0)
        wts = np.full(f.n + 1, f.h)
        wts[0] *= 0.5
        wts[-1] *= 0.5
        mass = traj.u_history @ wts
        assert traj.steady or len(mass) == 21
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]

    def test_positivity_loss_detected(self):
        # r(5) is tiny, so the explicit bound does not bind and the given
        # step overshoots the logistic decay below zero
        with pytest.raises(PositivityLossError):
            run_from(uniform_field(5.0), 1.0, dt=0.5, t_end=10.0)

    def test_blow_up_detected(self):
        with pytest.raises(BlowUpError, match="exceeded bound"):
            run_from(uniform_field(50.0), 1.0, dt=0.9, t_end=10.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_detected(self):
        # from a negative state no positivity is lost, and the logistic term
        # grows u quadratically until it overflows within a generous bound
        with pytest.raises(BlowUpError, match="non-finite"):
            run_from(uniform_field(-1.0), 1.0, dt=0.5, t_end=10.0, b_max=1e300)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimConfig(params=params(), motility=REF, init=UniformPerturbed(), dt=0.0)


class TestSimConfig:
    @pytest.mark.parametrize("name", ["dt", "t_end", "steady_tol", "snapshot_every", "b_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_nonfinite_and_nonpositive(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(params=params(), motility=REF, init=UniformPerturbed(), **{name: value})


def reference_run(cfg):
    """simulate's explicit loop written out plainly: the IMEX formula with
    scipy's solve_banded, the stability-bound dt and the snapshot clipping.
    Stops at t_end only; returns the snapshots and the final state."""
    p, m = cfg.params, cfg.motility
    f0 = initial_field(cfg.init, p, m, cfg.n)
    h, u, v = f0.h, f0.u, f0.v
    times, us, vs = [0.0], [u], [v]
    t, next_snap = 0.0, cfg.snapshot_every
    while t < cfg.t_end:
        rv = m.evaluate(v, 0)
        dt_full = DT_SAFETY * h * h / float(np.max(rv))
        if cfg.dt is not None:
            dt_full = min(dt_full, cfg.dt)
        dt = min(dt_full, next_snap - t, cfg.t_end - t)
        if dt <= 0:
            dt = 1e-15
        u_new = u + dt * (laplacian(rv * u, h) + p.sigma * u * (1.0 - u))
        ab = signal_band(dt, h, p.D, np.empty((3, u.size)))
        v = solve_banded((1, 1), ab, v + dt * u_new, check_finite=False)
        u = u_new
        t += dt
        if t >= next_snap - 1e-12:
            times.append(t)
            us.append(u)
            vs.append(v)
            next_snap += cfg.snapshot_every
    return np.array(times), np.array(us), np.array(vs), u, v


class TestLaplacian:
    @pytest.mark.parametrize("n", [16, 257])
    def test_matches_plain_expression(self, n):
        w = np.random.default_rng(n).uniform(0.5, 1.5, n + 1)
        h = 20.0 / n
        hh = h * h
        expected = np.empty_like(w)
        expected[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / hh
        expected[0] = 2.0 * (w[1] - w[0]) / hh
        expected[-1] = 2.0 * (w[-2] - w[-1]) / hh
        assert np.array_equal(laplacian(w, h), expected)
        out = np.full_like(w, np.nan)
        assert laplacian(w, h, out) is out
        assert np.array_equal(out, expected)


class TestStepLoopBitIdentity:
    """simulate's fused, in-place step loop must reproduce the plain formula
    bit for bit: transition times seeded by rounding depend on it."""

    @pytest.mark.parametrize("motility, dt, snapshot_every", [
        (REF, None, 0.3),
        (ExponentialDecay(r0=1.0, rate=2.0), 0.05, 0.45),
    ], ids=["logistic", "exponential-dt-cap"])
    def test_snapshots_equal_reference_loop(self, motility, dt, snapshot_every):
        cfg = SimConfig(params=params(0.3), motility=motility,
                        init=UniformPerturbed(amplitude=0.05, seed=7), n=64, dt=dt,
                        t_end=20.0, steady_tol=1e-300, snapshot_every=snapshot_every)
        times, us, vs, u_end, v_end = reference_run(cfg)
        traj = simulate(cfg)
        assert not traj.steady
        assert len(times) > 40  # snapshot-clipped steps among a few hundred
        assert np.array_equal(traj.times, times)
        for i in range(len(times)):
            assert np.array_equal(traj.u_history[i], us[i]), i
            assert np.array_equal(traj.v_history[i], vs[i]), i
        assert np.array_equal(traj.final.u, u_end)
        assert np.array_equal(traj.final.v, v_end)


class TestModalSpectrum:
    def test_pure_mode(self):
        f = cosine_field(6, 0.01)
        spec = modal_spectrum(f)
        assert spec.dominant == 6
        assert spec.amplitude(6) == pytest.approx(0.01, rel=1e-6)
        others = [abs(spec.amplitude(j)) for j in range(1, 20) if j != 6]
        assert max(others) < 1e-12

    def test_uniform_field(self):
        spec = modal_spectrum(uniform_field())
        assert spec.dominant == 0
        assert np.max(np.abs(spec.coefficients)) < 1e-13

    def test_mixture_argmax(self):
        x = np.linspace(0.0, 20.0, 257)
        u = 1.0 + 0.01 * np.cos(4 * np.pi * x / 20) + 0.03 * np.cos(8 * np.pi * x / 20)
        f = Field(u=u, v=np.ones_like(u), l=20.0)
        assert modal_spectrum(f).dominant == 8


class TestCountPeaks:
    def test_mode6_pattern(self):
        assert count_peaks(cosine_field(6, 0.02)) == 3.0

    def test_mode4_pattern(self):
        assert count_peaks(cosine_field(4, 0.02)) == 2.0

    def test_phase_flip_keeps_count(self):
        assert count_peaks(cosine_field(6, -0.02)) == 3.0

    def test_uniform_is_flat(self):
        assert count_peaks(uniform_field()) == 0.0

    def test_prominence_filters_ripples(self):
        x = np.linspace(0.0, 20.0, 513)
        u = 1.0 + 0.1 * np.cos(4 * np.pi * x / 20) + 0.002 * np.cos(16 * np.pi * x / 20)
        f = Field(u=u, v=np.ones_like(u), l=20.0)
        assert count_peaks(f) == 2.0


def mirrored(u):
    """u reflected across both ends, as the peak count builds it."""
    return np.concatenate([u[1:][::-1], u, u[:-1][::-1]])


class TestFindPeaksMatchesScipy:
    """The in-house peak finder against scipy.signal.find_peaks."""

    @staticmethod
    def assert_same(x, prominence):
        x = np.asarray(x, dtype=float)
        expected = find_peaks(x, prominence=prominence)[0]
        got = _find_peaks(x, prominence)
        assert np.array_equal(got, expected), (x.tolist(), prominence, got, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=40), st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]))
    def test_ties_and_plateaus(self, values, prominence):
        self.assert_same(values, prominence)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=60),
           st.floats(0.0, 500.0))
    def test_distinct_values(self, values, prominence):
        self.assert_same(values, prominence)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=30))
    def test_mirrored_as_peak_count_builds_them(self, values):
        u = np.asarray(values, dtype=float)
        self.assert_same(mirrored(u), 0.1 * float(np.max(u) - np.min(u)))

    def test_noisy_and_smooth_fields(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 20.0, 1025)
        for u in (1.0 + 0.01 * rng.uniform(-1.0, 1.0, x.size),
                  1.0 + 0.3 * np.cos(6 * np.pi * x / 20) + 0.01 * np.cos(30 * np.pi * x / 20)):
            self.assert_same(mirrored(u), 0.1 * float(np.max(u) - np.min(u)))

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 50])
    def test_flat_and_short(self, size):
        self.assert_same(np.full(size, 2.5), 0.0)


class TestStationaryResidual:
    def test_uniform_state(self):
        ru, rv = stationary_residual(uniform_field(), params(), REF)
        assert ru == 0.0 and rv == 0.0

    def test_asymptotic_field_is_nearly_steady(self):
        from colonykit import expansion_coefficients

        e = expansion_coefficients(6, params(), REF)
        f = Field(*second_order_profiles(e, 0.01, np.linspace(0.0, 20.0, 4097)), l=20.0)
        p_eps = ModelParams(D=1.0, sigma=e.sigma0 + 1e-4 * e.sigma2, l=20.0)
        ru, rv = stationary_residual(f, p_eps, REF)
        assert max(ru, rv) < 1e-3  # third-order small


class TestInitialConditions:
    def test_uniform_perturbed_determinism(self):
        f1 = initial_field(UniformPerturbed(0.01, seed=3), params(), REF, 64)
        f2 = initial_field(UniformPerturbed(0.01, seed=3), params(), REF, 64)
        np.testing.assert_array_equal(f1.u, f2.u)
        f3 = initial_field(UniformPerturbed(0.01, seed=4), params(), REF, 64)
        assert not np.array_equal(f1.u, f3.u)

    def test_asymptotic_mode_scaling(self):
        f1 = initial_field(AsymptoticMode(j=4, epsilon=0.01, u1_scale=1.0), params(), REF, 128)
        f2 = initial_field(AsymptoticMode(j=4, epsilon=0.01, u1_scale=1.2), params(), REF, 128)
        from colonykit import expansion_coefficients

        e = expansion_coefficients(4, params(), REF)
        # scaling acts on the leading u-term only
        diff = f2.u - f1.u
        x = np.linspace(0.0, 20.0, 129)
        np.testing.assert_allclose(
            diff, 0.2 * 0.01 * e.a * np.cos(4 * np.pi * x / 20.0), atol=1e-14
        )
        np.testing.assert_array_equal(f1.v, f2.v)

    def test_explicit_field_resolution_check(self):
        f = uniform_field(n=32)
        with pytest.raises(ValueError):
            initial_field(ExplicitField(f), params(), REF, 64)


class TestSimulate:
    def test_stable_regime_returns_to_uniform(self):
        cfg = SimConfig(
            params=params(sigma=0.6), motility=REF,
            init=UniformPerturbed(amplitude=0.01, seed=0),
            n=128, t_end=500.0, steady_tol=1e-8, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert traj.steady
        assert not traj.t_end_reached
        assert np.max(np.abs(traj.final.u - 1)) < 1e-6
        assert np.max(np.abs(traj.final.v - 1)) < 1e-6
        # the seeded noise decays: the run ends with no established pattern
        mode_events = [ev for ev in traj.events if ev.kind == "dominant_mode"]
        assert mode_events and mode_events[-1].new is None

    def test_snapshot_times_strictly_increasing(self):
        cfg = SimConfig(
            params=params(sigma=0.6), motility=REF,
            init=UniformPerturbed(amplitude=0.01, seed=0),
            n=64, t_end=5.0, steady_tol=1e-12, snapshot_every=0.5,
        )
        traj = simulate(cfg)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert traj.t_end_reached

    def test_mode6_seed_stays_mode6(self):
        cfg = SimConfig(
            params=params(sigma=0.32), motility=REF,
            init=AsymptoticMode(j=6, epsilon=0.01), n=128,
            t_end=400.0, steady_tol=1e-8, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert traj.steady
        assert modal_spectrum(traj.final).dominant == 6
        assert count_peaks(traj.final) == 3.0
        # steady detection implies a small stationary residual
        ru, rv = stationary_residual(traj.final, params(sigma=0.32), REF)
        assert max(ru, rv) <= 10 * cfg.steady_tol

    def test_positivity_never_lost_in_normal_run(self):
        cfg = SimConfig(
            params=params(sigma=0.3), motility=REF,
            init=AsymptoticMode(j=6, epsilon=0.02), n=64,
            t_end=50.0, steady_tol=1e-10, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert np.min(traj.u_history) > 0
        assert np.min(traj.v_history) > 0

    @pytest.mark.slow
    def test_grid_convergence_of_steady_pattern(self):
        # doubling the resolution moves the converged pattern by O(h^2)
        finals = {}
        for n in (256, 512):
            cfg = SimConfig(
                params=params(sigma=0.32), motility=REF,
                init=AsymptoticMode(j=6, epsilon=0.01), n=n,
                t_end=400.0, steady_tol=1e-8, snapshot_every=1.0,
            )
            finals[n] = simulate(cfg).final
        coarse = finals[256].u
        fine = finals[512].u[::2]
        assert np.max(np.abs(coarse - fine)) <= 1e-3
