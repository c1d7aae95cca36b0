import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv
from scipy.signal import find_peaks

from colonykit import (
    AsymptoticMode,
    BlowUpError,
    ColonyKitError,
    ExplicitField,
    ExponentialDecay,
    Field,
    LogisticDecay,
    ModelParams,
    NewtonError,
    PositivityLossError,
    SimConfig,
    SingularJacobianError,
    UniformPerturbed,
    count_peaks,
    epsilon_for_sigma,
    expansion_coefficients,
    modal_spectrum,
    newton_steady,
    simulate,
    stationary_residual,
    trace_branch,
)
from colonykit import discrete, pde_solver
from colonykit import reproduce as rp
from colonykit.discrete import laplacian
from colonykit.asymptotics import second_order_profiles
from colonykit.pde_solver import (
    LAST_STEP_SLACK,
    STOP_DIST,
    _annotate,
    _find_peaks,
    initial_field,
)

REF = LogisticDecay(steepness=8.0, center=1.0)


def params(sigma=0.3):
    return ModelParams(D=1.0, sigma=sigma, l=20.0)


def uniform_field(value=1.0, n=64):
    return Field(u=np.full(n + 1, value), v=np.full(n + 1, value), l=20.0)


def cosine_field(j, amplitude, n=256, l=20.0):
    x = np.linspace(0.0, l, n + 1)
    pattern = amplitude * np.cos(np.pi * j * x / l)
    return Field(u=1.0 + pattern, v=1.0 + pattern, l=l)


def noisy_uniform_field():
    """(1, 1) plus rounding noise in u: normal noise of scale 1e-15."""
    u = 1.0 + 1e-15 * np.random.default_rng(0).standard_normal(65)
    return Field(u=u, v=np.ones_like(u), l=20.0)


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
    """Properties of the SBDF2 step, observed through simulate."""

    def test_uniform_state_is_fixed_point(self):
        # one short step leaves (1, 1) exact; longer steps and many of them
        # move it by rounding, since the rounded diagonal of each solve's
        # matrix no longer sums with its row to a0 (2.4e-15 in 500 steps of
        # 0.1); at sigma = 0.3 the state is unstable, so the certified stop
        # never ends the run there
        f = uniform_field(1.0)
        traj = run_from(f, 0.3, dt=1e-3, t_end=1e-3)
        np.testing.assert_array_equal(traj.final.u, f.u)
        np.testing.assert_array_equal(traj.final.v, f.v)
        traj = run_from(f, 0.3, t_end=50.0)
        assert not traj.steady
        assert np.max(np.abs(traj.u_history - 1.0)) <= 1e-14
        assert np.max(np.abs(traj.v_history - 1.0)) <= 1e-14

    def test_extinct_state_is_fixed_point(self):
        # exact over the whole run, also across the backward-Euler restart
        # before an off-grid t_end; the state is unstable (u grows at rate
        # sigma), so the run is not steady
        f = uniform_field(0.0)
        for dt, t_end in ((1e-3, 5.0), (0.1, 10.25)):
            traj = run_from(f, 0.3, dt=dt, t_end=t_end)
            assert not traj.steady
            assert not np.any(traj.u_history) and not np.any(traj.v_history)

    def test_second_order_in_time(self):
        # self-convergence in dt at fixed n on a smooth field: the
        # differences of the finals at dt, dt/2, dt/4 and dt/8 shrink by
        # 2**order per halving (1.97 and 1.98 here)
        x = np.linspace(0.0, 20.0, 65)
        wave = 0.1 * np.cos(np.pi * 2 * x / 20.0)
        f = Field(u=1.0 + wave, v=1.0 + 0.5 * wave, l=20.0)
        finals = [run_from(f, 0.3, dt=0.1 / 2 ** k, t_end=2.0, snapshot_every=2.0).final
                  for k in range(4)]
        diffs = [max(np.max(np.abs(a.u - b.u)), np.max(np.abs(a.v - b.v)))
                 for a, b in zip(finals, finals[1:])]
        orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (diffs, orders)

    def test_mass_kept_across_a_restart(self):
        # t_end 10.25 is off the snapshot grid: its last interval of 0.25
        # takes 3 steps of 0.0833 after 100 of 0.1, starting with a
        # backward-Euler step; the trapezoid mass of u stays put throughout
        f = seeded_field(64, seed=2)
        traj = run_from(f, 0.0, t_end=10.25, steady_tol=1e-14)
        assert traj.times[-1] == 10.25 and not traj.steady
        wts = np.full(f.n + 1, f.h)
        wts[0] *= 0.5
        wts[-1] *= 0.5
        mass = traj.u_history @ wts
        assert np.max(np.abs(mass - mass[0])) <= 1e-12 * mass[0]

    def test_steep_state_loses_positivity(self):
        # a spike of 40 on one node: at sigma = 0 the backward-Euler start
        # keeps u positive, but it flattens the spike so far that the BDF2
        # right side 2 u^1 - u^0 / 2 is negative there, and so is u^2
        u0 = np.ones(65)
        u0[32] += 40.0
        f = Field(u=u0, v=np.ones(65), l=20.0)
        first = run_from(f, 0.0, dt=1.0, t_end=1.0).final.u
        assert np.min(first) > 0 and np.min(2.0 * first - 0.5 * u0) < 0
        with pytest.raises(PositivityLossError, match="at t=2$"):
            run_from(f, 0.0, dt=1.0, t_end=2.0)

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

    def test_second_order_in_space(self):
        # self-convergence on a smooth cosine field: every run takes the same
        # steps, so the time error cancels and successive differences on the
        # shared nodes shrink by 2**order per doubling of n; n = 1024 is the
        # reference for the n = 512 run
        sizes = (64, 128, 256, 512, 1024)
        t_end, dt = 0.1, 1e-3
        finals = []
        for n in sizes:
            x = np.linspace(0.0, 20.0, n + 1)
            wave = 0.1 * np.cos(np.pi * 2 * x / 20.0)
            f = Field(u=1.0 + wave, v=1.0 + 0.5 * wave, l=20.0)
            traj = run_from(f, 0.3, dt=dt, t_end=t_end, snapshot_every=t_end)
            assert traj.times[-1] == t_end
            finals.append(traj.final)
        diffs = [max(np.max(np.abs(c.u - f.u[::2])), np.max(np.abs(c.v - f.v[::2])))
                 for c, f in zip(finals, finals[1:])]
        orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
        assert np.all((1.8 <= orders) & (orders <= 2.2)), (diffs, orders)

    def test_positivity_loss_detected(self):
        # the logistic term is explicit, so a step of 0.5 overshoots its
        # decay from 5 below zero (5 + 0.5 * 5 * (1 - 5) = -5)
        with pytest.raises(PositivityLossError):
            run_from(uniform_field(5.0), 1.0, dt=0.5, t_end=10.0)

    def test_blow_up_detected(self):
        with pytest.raises(BlowUpError, match="exceeded bound"):
            run_from(uniform_field(50.0), 1.0, dt=0.9, t_end=10.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_detected(self, monkeypatch):
        # from a negative state no positivity is lost, and the logistic term
        # grows u quadratically until it overflows within a generous bound
        monkeypatch.setattr(pde_solver, "B_MAX", 1e300)
        with pytest.raises(BlowUpError, match="non-finite"):
            run_from(uniform_field(-1.0), 1.0, dt=0.5, t_end=10.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SimConfig(params=params(), motility=REF, init=UniformPerturbed(), dt=0.0)

    @pytest.mark.parametrize("amplitude", [150.0, 1e300])
    def test_initial_state_outside_bound(self, amplitude):
        # the initial field is checked before the first step, so the error
        # names t = 0, not the time of the first step (0.625 here)
        cfg = SimConfig(params=params(), motility=REF, init=UniformPerturbed(amplitude=amplitude),
                        n=16, t_end=1.0)
        with pytest.raises(BlowUpError, match=r"exceeded bound 100.0 at t=0$"):
            simulate(cfg)


class TestSimConfig:
    @pytest.mark.parametrize("name", ["dt", "t_end", "steady_tol", "snapshot_every"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_nonfinite_and_nonpositive(self, name, value):
        with pytest.raises(ValueError, match=name):
            SimConfig(params=params(), motility=REF, init=UniformPerturbed(), **{name: value})


def band_matrix(a0, dt, h, c, npts):
    """a0 I - dt Lap_h diag(c) on npts nodes, c an array or a constant, in
    solve_banded's (1, 1) layout: entry (i, j) of Lap_h diag(c) is L_ij c_j,
    with the mirrored weight doubled in rows 0 and N."""
    w = dt / (h * h) * np.broadcast_to(c, npts)
    ab = np.zeros((3, npts))
    ab[0, 1:] = -w[1:]
    ab[0, 1] *= 2.0
    ab[1] = a0 + 2.0 * w
    ab[2, :-1] = -w[:-1]
    ab[2, -2] *= 2.0
    return ab


def reference_run(cfg, rate_stop=False):
    """simulate's step loop written out plainly: SBDF2 with scipy's
    solve_banded and fresh arrays every step.  Snapshot k is at
    k snapshot_every up to t_end, where a multiple within LAST_STEP_SLACK of
    t_end (relative) is t_end; each interval is split into
    ceil(span / dt) equal steps, the last one landing on the snapshot time.
    The first step, and the first of an interval whose step size differs
    from the one before (a last interval to an off-grid t_end), is backward
    Euler.  Stops after the snapshot at t_end, and with rate_stop also at
    the first snapshot whose step's rate max|new - old| / step is below
    steady_tol (unless the step was below a quarter of the smaller of dt
    and snapshot_every).  Returns the snapshots and the final state."""
    p, m = cfg.params, cfg.motility
    f0 = initial_field(cfg.init, p, m, cfg.n)
    h, u, v = f0.h, f0.u, f0.v
    times, us, vs = [0.0], [u], [v]
    t, k = 0.0, 1
    u_old = v_old = step_old = None
    f = lambda w: w * (1.0 - w)  # noqa: E731
    while t < cfg.t_end:
        t_snap, span = k * cfg.snapshot_every, cfg.snapshot_every
        if t_snap >= (1.0 - LAST_STEP_SLACK) * cfg.t_end:
            t_snap, span = cfg.t_end, cfg.t_end - (k - 1) * cfg.snapshot_every
            if abs(span - cfg.snapshot_every) <= LAST_STEP_SLACK * cfg.t_end:
                span = cfg.snapshot_every
        steps = math.ceil(span / cfg.dt)
        step = span / steps
        for _ in range(steps):
            if step == step_old:
                a0, rv = 1.5, m.evaluate(2.0 * v - v_old, 0)
                rhs_u = 2.0 * u - 0.5 * u_old + step * p.sigma * (2.0 * f(u) - f(u_old))
                rhs_v = lambda u_new: 2.0 * v - 0.5 * v_old + step * u_new  # noqa: E731
            else:
                a0, rv = 1.0, m.evaluate(v, 0)
                rhs_u = u + step * p.sigma * f(u)
                rhs_v = lambda u_new: v + step * u_new  # noqa: E731
            u_new = solve_banded((1, 1), band_matrix(a0, step, h, rv, u.size), rhs_u,
                                 check_finite=False)
            v_new = solve_banded((1, 1), band_matrix(a0 + step, step, h, p.D, u.size),
                                 rhs_v(u_new), check_finite=False)
            u_old, v_old, step_old = u, v, step
            u, v = u_new, v_new
        t = t_snap
        rate = np.max(np.abs(np.stack([u, v]) - np.stack([u_old, v_old]))) / step
        times.append(t)
        us.append(u)
        vs.append(v)
        k += 1
        if (rate_stop and rate < cfg.steady_tol
                and step >= 0.25 * min(cfg.dt, cfg.snapshot_every)):
            break
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


class TestStepLoopBitIdentity:
    """simulate's fused, in-place step loop must reproduce the plain formula
    bit for bit: transition times seeded by rounding depend on it."""

    # the default dt, 12 steps per interval, and a given one, 9 steps; both
    # t_end are off the grid, so the last interval restarts with backward Euler
    @pytest.mark.parametrize("motility, dt, snapshot_every", [
        (REF, None, 0.3),
        (ExponentialDecay(r0=1.0, rate=2.0), 0.05, 0.45),
    ], ids=["logistic", "exponential-dt-cap"])
    def test_snapshots_equal_reference_loop(self, motility, dt, snapshot_every, monkeypatch):
        # no stop attempt: the exponential run would otherwise certify (1, 1)
        # before t_end
        monkeypatch.setattr(pde_solver, "STOP_RATE", 0.0)
        cfg = SimConfig(params=params(0.3), motility=motility,
                        init=UniformPerturbed(amplitude=0.05, seed=7), n=64,
                        t_end=20.0, snapshot_every=snapshot_every,
                        **({} if dt is None else {"dt": dt}))
        times, us, vs, u_end, v_end = reference_run(cfg)
        traj = simulate(cfg)
        assert not traj.steady
        assert len(times) > 40
        assert np.array_equal(traj.times, times)
        for i in range(len(times)):
            assert np.array_equal(traj.u_history[i], us[i]), i
            assert np.array_equal(traj.v_history[i], vs[i]), i
        assert np.array_equal(traj.final.u, u_end)
        assert np.array_equal(traj.final.v, v_end)


class TestStateChecks:
    """The state checks decide exactly what the plain tests decide: the
    max-norm bound and positivity at every step, the steady rate at
    snapshot steps."""

    def test_rate_stop_at_snapshot_equals_reference_loop(self):
        # sigma = 0 makes no stop attempt; the rate falls below steady_tol at
        # t = 418, and the run ends at a later snapshot step
        cfg = SimConfig(params=params(0.0), motility=ExponentialDecay(r0=1.0, rate=0.5),
                        init=UniformPerturbed(amplitude=0.05, seed=3), n=32, t_end=5000.0,
                        steady_tol=1e-6, snapshot_every=50.0)
        times, us, vs, u_end, v_end = reference_run(cfg, rate_stop=True)
        traj = simulate(cfg)
        assert traj.steady
        assert 400.0 < times[-1] < cfg.t_end
        assert times[-1] == pytest.approx(cfg.snapshot_every * (len(times) - 1))
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.u_history, us)
        assert np.array_equal(traj.v_history, vs)
        assert np.array_equal(traj.final.u, u_end)
        assert np.array_equal(traj.final.v, v_end)

    def test_rate_stop_with_snapshots_shorter_than_the_full_step(self):
        # snapshot_every 0.05 is below dt, so every step is one snapshot
        # interval; the run must still end steady near where the
        # snapshot_every = 50 run above does
        cfg = SimConfig(params=params(0.0), motility=ExponentialDecay(r0=1.0, rate=0.5),
                        init=UniformPerturbed(amplitude=0.05, seed=3), n=32, t_end=1000.0,
                        steady_tol=1e-6, snapshot_every=0.05)
        assert cfg.snapshot_every < cfg.dt
        times, us, vs, u_end, v_end = reference_run(cfg, rate_stop=True)
        traj = simulate(cfg)
        assert traj.steady
        assert 400.0 < traj.times[-1] <= 450.0
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.u_history, us)
        assert np.array_equal(traj.v_history, vs)
        assert np.array_equal(traj.final.u, u_end)
        assert np.array_equal(traj.final.v, v_end)

    @pytest.mark.parametrize("value, dt, b_max", [(-1.0, 0.1, 1.5), (2.0, 5.0, 3.0)],
                             ids=["negative-field", "overshoot-past-zero"])
    def test_state_below_minus_bound_exceeds_it(self, value, dt, b_max, monkeypatch):
        # u stays finite and drops below -b_max while every value stays
        # within b_max from above; in the overshoot case u also crosses zero
        # in the first step, a backward-Euler step of 5 from a uniform state
        # (2 + 5 * 2 * (1 - 2) = -8), and the bound is checked first
        monkeypatch.setattr(pde_solver, "B_MAX", b_max)
        with pytest.raises(BlowUpError, match="exceeded bound"):
            run_from(uniform_field(value), 1.0, dt=dt, t_end=10.0, snapshot_every=10.0)


class TestSchedule:
    """Snapshots fall exactly at k snapshot_every and at t_end, and the run's
    end state is the last of them."""

    # t_end off the grid, and t_end a multiple that 3 * 0.3 rounds just below
    @pytest.mark.parametrize("t_end, every, times", [
        (2.5, 1.0, [0.0, 1.0, 2.0, 2.5]),
        (0.9, 0.3, [0.0, 0.3, 0.6, 0.9]),
    ])
    def test_t_end_is_the_last_snapshot(self, t_end, every, times):
        cfg = SimConfig(params=params(0.3), motility=REF, init=UniformPerturbed(), n=32,
                        t_end=t_end, snapshot_every=every)
        traj = simulate(cfg)
        assert traj.times.tolist() == times
        # final, the last snapshot, is the state the plain loop ends with
        _, _, _, u_end, v_end = reference_run(cfg)
        assert np.array_equal(traj.final.u, u_end)
        assert np.array_equal(traj.final.v, v_end)

    def test_snapshot_times_are_exact_multiples(self):
        # every step is clipped to a snapshot time, 400 of them
        cfg = SimConfig(params=params(0.0), motility=REF, init=UniformPerturbed(), n=32,
                        t_end=2.0, snapshot_every=0.005)
        traj = simulate(cfg)
        assert traj.times.tolist() == [k * 0.005 for k in range(401)]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 10.0), st.integers(1, 2000),
           st.sampled_from([-1e-9, -1e-15, 0.0, 1e-15, 1e-9, 0.5]))
    @example(0.3, 3, 0.0)
    @example(0.005, 400, 0.0)
    def test_snapshot_count_matches_the_loop(self, every, multiples, offset):
        # the histories are sized before the first step by this count of the
        # multiples k every below t_last, which the step loop then visits
        t_last = (1.0 - LAST_STEP_SLACK) * every * (multiples + offset)
        k = 1
        while k * every < t_last:
            k += 1
        assert pde_solver._multiples_below(every, t_last) == k - 1


class TestWorkBounds:
    """A run is refused before its first step when its snapshots would hold
    more than MAX_SNAPSHOT_VALUES floats, or when it would take more than
    MAX_STEPS steps; a run right at either bound runs."""

    def test_snapshot_values(self, monkeypatch):
        # 3 snapshots of u and v on 17 nodes: 102 values
        cfg = SimConfig(params=params(0.3), motility=REF, init=UniformPerturbed(), n=16,
                        t_end=1.0, snapshot_every=0.5)
        monkeypatch.setattr(pde_solver, "MAX_SNAPSHOT_VALUES", 102)
        traj = simulate(cfg)
        assert traj.u_history.size + traj.v_history.size == 102
        monkeypatch.setattr(pde_solver, "MAX_SNAPSHOT_VALUES", 101)
        with pytest.raises(ColonyKitError, match="MAX_SNAPSHOT_VALUES"):
            simulate(cfg)

    def test_snapshot_count_past_the_float_grid(self):
        # 1e18 multiples: past 2**53 the count is inf, and the run is refused
        # before anything is allocated
        assert pde_solver._multiples_below(1e-12, (1.0 - LAST_STEP_SLACK) * 1e6) == math.inf
        cfg = SimConfig(params=params(0.3), motility=REF, init=UniformPerturbed(), n=16,
                        t_end=1e6, snapshot_every=1e-12)
        with pytest.raises(ColonyKitError, match="over MAX_SNAPSHOT_VALUES"):
            simulate(cfg)

    def test_steps(self, monkeypatch):
        # one snapshot interval of 1 in steps of dt = 0.01: 100 steps
        cfg = SimConfig(params=params(0.3), motility=REF, init=UniformPerturbed(), n=16,
                        dt=0.01, t_end=1.0, snapshot_every=1.0)
        monkeypatch.setattr(pde_solver, "MAX_STEPS", 100)
        assert simulate(cfg).times.tolist() == [0.0, 1.0]
        monkeypatch.setattr(pde_solver, "MAX_STEPS", 99)
        with pytest.raises(ColonyKitError, match="over MAX_STEPS = .* steps of dt = 0.01"):
            simulate(cfg)
        # two intervals of 4 steps of 0.25 and a last one of 0.5 in 2 steps of 0.25
        cfg = replace(cfg, dt=0.3, t_end=2.5)
        monkeypatch.setattr(pde_solver, "MAX_STEPS", 10)
        assert simulate(cfg).times.tolist() == [0.0, 1.0, 2.0, 2.5]
        monkeypatch.setattr(pde_solver, "MAX_STEPS", 9)
        with pytest.raises(ColonyKitError, match="over MAX_STEPS"):
            simulate(cfg)


def mode6_state(sigma, n):
    """The discrete mode-6 steady state at sigma, by Newton from the expansion."""
    e = expansion_coefficients(6, params(sigma), REF)
    x = np.linspace(0.0, 20.0, n + 1)
    seed = Field(*second_order_profiles(e, epsilon_for_sigma(e, sigma), x), l=20.0)
    return newton_steady(seed, params(sigma), REF).field


def perturbed(f, amplitude, seed):
    rng = np.random.default_rng(seed)
    return Field(u=f.u + amplitude * rng.uniform(-1, 1, f.u.size),
                 v=f.v + amplitude * rng.uniform(-1, 1, f.v.size), l=f.l)


class TestCertifiedStop:
    """simulate ends at a stable discrete steady state once Newton reaches it
    from the current state and the Jacobian spectrum confirms it."""

    def test_output_before_stop_equals_reference_loop(self):
        cfg = rp.ReproductionContext(n=64).protocol_config("mode3_at_030")
        traj = simulate(cfg)
        t_stop = traj.times[-1]
        assert traj.steady and t_stop < 150.0  # rate-based steady comes after t = 230
        assert [ev.kind for ev in traj.events] == ["peak_count", "dominant_mode"]
        times, us, vs, _, _ = reference_run(replace(cfg, t_end=t_stop + 0.5))
        k = len(traj.times)
        assert np.array_equal(traj.times, times[:k])
        for i in range(k - 1):
            assert np.array_equal(traj.u_history[i], us[i]), i
            assert np.array_equal(traj.v_history[i], vs[i]), i
        assert traj.events == _annotate(times[:k], us[:k], traj.l)
        # the last snapshot, the final state, is the exact discrete steady
        # state near the run's state
        assert max(stationary_residual(traj.final, cfg.params, REF)) < 1e-10
        assert np.max(np.abs(traj.final.u - us[k - 1])) <= STOP_DIST

    def test_unstable_branch_state_is_not_a_stop(self, monkeypatch):
        curve = trace_branch(4, params(0.3), REF, sigma_min=0.315, n=64)
        bp = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
        abscissas = []

        def recording(*state):
            lam = discrete.rightmost_eigenvalues(*state)
            abscissas.append(lam[0].real)
            return lam

        monkeypatch.setattr(pde_solver, "rightmost_eigenvalues", recording)
        traj = run_from(perturbed(bp.field, 1e-4, seed=7), bp.sigma, t_end=40.0)
        # Newton returns to the mode-4 state, whose spectrum rejects each attempt
        assert len(abscissas) >= 2 and min(abscissas) > 0.05
        assert not traj.steady
        assert count_peaks(traj.final) == count_peaks(bp.field)
        assert np.max(np.abs(traj.final.u - bp.field.u)) < STOP_DIST

    def test_unstable_mode8_state_is_not_steady(self):
        # the run settles on the mode-8 state (spectral abscissa +0.038) by
        # t = 136, where the max-norm rate drops below 1e-8; rounding noise
        # carries it to mode 6 much later, so it must not end steady
        cfg = SimConfig(params=params(0.32), motility=REF, init=AsymptoticMode(j=8, epsilon=0.01),
                        n=128, t_end=200.0)
        traj = simulate(cfg)
        assert not traj.steady
        assert modal_spectrum(traj.final).dominant == 8

    @pytest.mark.parametrize("target, error", [
        ("newton", NewtonError("no convergence")),
        ("rightmost_eigenvalues", SingularJacobianError("J - 0.5 I is singular (gbtrf info 1)")),
    ], ids=["newton", "arnoldi"])
    def test_failed_attempt_is_no_stop(self, target, error, monkeypatch):
        # each attempt fails in Newton or in the spectrum, so the run goes on
        # unsteady and records the snapshots of a run that never tries
        cfg = SimConfig(params=params(0.8), motility=REF,
                        init=UniformPerturbed(amplitude=0.01, seed=0), n=32, t_end=40.0)
        assert simulate(cfg).steady  # the attempts succeed unpatched
        calls = []

        def failing(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(pde_solver, target, failing)
        traj = simulate(cfg)
        monkeypatch.setattr(pde_solver, "STOP_RATE", 0.0)
        full = simulate(cfg)
        assert len(calls) >= 2
        assert not traj.steady and not full.steady
        assert np.array_equal(traj.times, full.times) and traj.times[-1] == cfg.t_end
        assert np.array_equal(traj.u_history, full.u_history)
        assert np.array_equal(traj.v_history, full.v_history)
        assert traj.events == full.events

    @pytest.mark.parametrize("sigma", [0.8, 1.5, 3.0])
    def test_large_growth_rate_stops_at_uniform_state(self, sigma):
        # (1, 1) is stable for sigma > 0.5, with its rightmost eigenvalue far
        # from the Arnoldi shift; the stop certifies the exact uniform state
        cfg = SimConfig(params=params(sigma), motility=REF,
                        init=UniformPerturbed(amplitude=0.01, seed=0), n=128, t_end=1000.0)
        traj = simulate(cfg)
        assert traj.steady and traj.times[-1] < 50.0
        # the histories are a copy of the rows written, not views into
        # buffers sized for the 1001 snapshots up to t_end
        for hist in (traj.u_history, traj.v_history):
            assert hist.base is None and hist.shape == (len(traj.times), 129)
        assert np.max(np.abs(traj.final.u - 1.0)) <= 1e-10
        assert np.max(np.abs(traj.final.v - 1.0)) <= 1e-10

    @settings(max_examples=8, deadline=None)
    @given(st.floats(0.30, 0.48), st.floats(0.0, 0.02), st.integers(0, 2 ** 16))
    @example(0.32421875, 0.0027247405999265436, 1)
    def test_steady_state_does_not_depend_on_dt(self, sigma, amplitude, seed):
        # Newton stops at a residual below 1e-10, which does not bound the
        # state's error by 1e-10 (this example's finals differ by 1.5e-10);
        # one more Newton correction takes each to the steady state's rounding
        start = perturbed(mode6_state(sigma, 48), amplitude, seed)
        p, h, finals = params(sigma), start.h, []
        for dt in (0.02, 0.01):
            traj = run_from(start, sigma, dt=dt, t_end=300.0)
            assert traj.steady
            f = newton_steady(traj.final, p, REF).field
            ab = discrete.linearize(f.u, f.v, h, p.D, sigma, REF, discrete.band_array(f.u.size))
            res = discrete.residual(f.u, f.v, h, p.D, sigma, REF)
            correction = dgbsv(discrete.KL, discrete.KU, ab, res)[2]
            finals.append(discrete.interleave(f.u, f.v) - correction)
        assert np.max(np.abs(finals[0] - finals[1])) <= 1e-10

    # when no stop is tried, the first snapshot after each run's last event
    # that differs from the one before by less than 1e-8 (max-norm)
    RATE_SETTLED = {"mode3_at_030": 234.0, "mode6_at_032": 167.0, "mode4_at_040": 1122.0,
                    "mode4_at_032_scaled": 1310.0, "uniform_at_060": 135.0, "departure": 965.0}

    @pytest.mark.parametrize("name", list(RATE_SETTLED))
    def test_events_equal_those_of_the_full_run(self, name, monkeypatch):
        # criterion 10's protocols and criterion 9's decay at n = 128, and
        # criterion 13's departure run (n = 256, its trace's resolution); the
        # full run goes on to the time its rate settles
        ctx = rp.ReproductionContext(n=128)
        cfg = rp._departure_config(ctx) if name == "departure" else ctx.protocol_config(name)
        stopped = simulate(cfg)
        monkeypatch.setattr(pde_solver, "STOP_RATE", 0.0)  # no attempt is ever made
        full = simulate(replace(cfg, t_end=self.RATE_SETTLED[name]))
        assert stopped.steady and not full.steady
        assert stopped.times[-1] < full.times[-1]
        assert stopped.events == full.events


class TestModalSpectrum:
    def test_pure_mode(self):
        # 2e-4 is just above PATTERN_FLOOR
        for amplitude in (0.01, 2e-4):
            spec = modal_spectrum(cosine_field(6, amplitude))
            assert spec.dominant == 6
            assert spec.amplitude(6) == pytest.approx(amplitude, rel=1e-6)
            others = [abs(spec.amplitude(j)) for j in range(1, 20) if j != 6]
            assert max(others) < 1e-12

    def test_uniform_field(self):
        for f in (uniform_field(), noisy_uniform_field()):
            spec = modal_spectrum(f)
            assert spec.dominant == 0
            assert np.max(np.abs(spec.coefficients)) < 1e-13

    def test_below_pattern_floor(self):
        # 5e-5 is half PATTERN_FLOOR: a resolved mode-6 wave, but no pattern
        spec = modal_spectrum(cosine_field(6, 5e-5))
        assert spec.dominant == 0
        assert spec.amplitude(6) == pytest.approx(5e-5, rel=1e-6)

    def test_mixture_argmax(self):
        x = np.linspace(0.0, 20.0, 257)
        u = 1.0 + 0.01 * np.cos(4 * np.pi * x / 20) + 0.03 * np.cos(8 * np.pi * x / 20)
        f = Field(u=u, v=np.ones_like(u), l=20.0)
        assert modal_spectrum(f).dominant == 8


def table_projection(u_rows, x, l, j_max):
    """The trapezoid cosine projection as a dense (modes, nodes) table product,
    the formula the FFT projection replaced."""
    n = x.size - 1
    weights = np.full(x.size, l / n)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    table = np.cos(np.outer(np.arange(j_max + 1), np.pi * x / l))
    mean = (u_rows @ weights) / l
    coeffs = ((u_rows - mean[:, None]) * weights) @ table.T * (2.0 / l)
    coeffs[:, 0] *= 0.5
    return coeffs


def traced_peak(func, *args):
    """The peak of tracemalloc's traced memory while func(*args) runs."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCosineProjection:
    """The FFT projection against the dense table, and its memory."""

    @pytest.mark.parametrize("rows", [1, 401])
    @pytest.mark.parametrize("n", [16, 17, 256, 1024])
    def test_matches_dense_table(self, n, rows):
        # a mode-6 wave of random amplitude over noise, so the dominant mode
        # is 6 in some rows and a noise mode in others; 401 rows at n = 1024
        # span 13 blocks, the last one partly filled
        rng = np.random.default_rng(n * rows)
        x = np.linspace(0.0, 20.0, n + 1)
        wave = rng.uniform(0.0, 0.02, (rows, 1)) * np.cos(6 * np.pi * x / 20.0)
        u = 1.0 + wave + 1e-3 * rng.standard_normal((rows, n + 1))
        ours = pde_solver._cosine_coefficients(u, 20.0)
        ref = table_projection(u, x, 20.0, n // 2)
        assert ours.shape == ref.shape
        assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))
        dominant = np.argmax(np.abs(ref[:, 1:]), axis=1) + 1
        assert np.array_equal(np.argmax(np.abs(ours[:, 1:]), axis=1) + 1, dominant)
        assert modal_spectrum(Field(u=u[-1], v=u[-1], l=20.0)).dominant == dominant[-1]

    def test_modal_spectrum_memory(self):
        # the (n/2 + 1) x (n + 1) table needed 128 MB at n = 4096
        f = cosine_field(6, 0.01, n=4096)
        modal_spectrum(f)  # numpy.fft loads on the first call
        assert traced_peak(modal_spectrum, f) < 1 << 20

    def test_pattern_data_memory(self):
        # the kymograph run's 401 snapshots at n = 1024: 11.9 MB with the table
        x = np.linspace(0.0, 20.0, 1025)
        rng = np.random.default_rng(0)
        u = 1.0 + 0.01 * np.cos(6 * np.pi * x / 20.0) + 1e-3 * rng.standard_normal((401, x.size))
        pde_solver._pattern_data(u[:3], 20.0)  # load the peak finder first
        assert traced_peak(pde_solver._pattern_data, u, 20.0) < 4 << 20


class TestCountPeaks:
    def test_mode6_pattern(self):
        for amplitude in (0.02, 2e-4):
            assert count_peaks(cosine_field(6, amplitude)) == 3.0

    def test_mode4_pattern(self):
        assert count_peaks(cosine_field(4, 0.02)) == 2.0

    def test_phase_flip_keeps_count(self):
        assert count_peaks(cosine_field(6, -0.02)) == 3.0

    def test_uniform_is_flat(self):
        # rounding noise, and a wave below PATTERN_FLOOR, are no pattern
        for f in (uniform_field(), noisy_uniform_field(), cosine_field(6, 5e-5)):
            assert count_peaks(f) == 0.0

    def test_prominence_filters_ripples(self):
        x = np.linspace(0.0, 20.0, 513)
        u = 1.0 + 0.1 * np.cos(4 * np.pi * x / 20) + 0.002 * np.cos(16 * np.pi * x / 20)
        f = Field(u=u, v=np.ones_like(u), l=20.0)
        assert count_peaks(f) == 2.0


@st.composite
def pattern_fields(draw):
    """A cosine of a log-uniform amplitude around PATTERN_FLOOR, or uniform
    noise of a log-uniform scale, over (1, 1) on a grid of n intervals."""
    n = draw(st.sampled_from([16, 17, 64, 255, 256]))
    x = np.linspace(0.0, 20.0, n + 1)
    scale = 10.0 ** draw(st.floats(-16.0, -1.0))
    if draw(st.booleans()):
        shape = np.cos(draw(st.integers(1, n // 2)) * np.pi * x / 20.0)
    else:
        shape = np.random.default_rng(draw(st.integers(0, 2 ** 16))).uniform(-1.0, 1.0, n + 1)
    return Field(u=1.0 + scale * shape, v=np.ones(n + 1), l=20.0)


class TestPatternVerdict:
    """modal_spectrum, count_peaks and the snapshot annotation read one rule."""

    @settings(max_examples=200, deadline=None)
    @given(f=pattern_fields())
    @example(f=cosine_field(6, 5e-5))
    @example(f=cosine_field(6, 2e-4))
    @example(f=noisy_uniform_field())
    def test_one_verdict(self, f):
        dominant, peaks = modal_spectrum(f).dominant, count_peaks(f)
        assert (dominant == 0) == (peaks == 0.0)
        _, modes, row_peaks = pde_solver._pattern_data(f.u[None, :], f.l)
        assert (modes[0] or 0, row_peaks[0] or 0.0) == (dominant, peaks)
        assert (modes[0] is None) == (row_peaks[0] is None)


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
            n=128, t_end=500.0, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert traj.steady
        assert np.max(np.abs(traj.final.u - 1)) < 1e-6
        assert np.max(np.abs(traj.final.v - 1)) < 1e-6
        # the seeded noise decays: the run ends with no established pattern
        mode_events = [ev for ev in traj.events if ev.kind == "dominant_mode"]
        assert mode_events and mode_events[-1].new is None

    def test_snapshot_times_strictly_increasing(self):
        cfg = SimConfig(
            params=params(sigma=0.6), motility=REF,
            init=UniformPerturbed(amplitude=0.01, seed=0),
            n=64, t_end=5.0, snapshot_every=0.5,
        )
        traj = simulate(cfg)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0
        assert not traj.steady

    def test_mode6_seed_stays_mode6(self):
        cfg = SimConfig(
            params=params(sigma=0.32), motility=REF,
            init=AsymptoticMode(j=6, epsilon=0.01), n=128,
            t_end=400.0, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert traj.steady
        assert modal_spectrum(traj.final).dominant == 6
        assert count_peaks(traj.final) == 3.0
        # the certified stop ends at the exact discrete steady state
        ru, rv = stationary_residual(traj.final, params(sigma=0.32), REF)
        assert max(ru, rv) <= 1e-10

    def test_positivity_never_lost_in_normal_run(self):
        cfg = SimConfig(
            params=params(sigma=0.3), motility=REF,
            init=AsymptoticMode(j=6, epsilon=0.02), n=64,
            t_end=50.0, snapshot_every=1.0,
        )
        traj = simulate(cfg)
        assert np.min(traj.u_history) > 0
        assert np.min(traj.v_history) > 0

    def test_grid_convergence_of_steady_pattern(self):
        # doubling the resolution moves the converged pattern by O(h^2)
        finals = {}
        for n in (256, 512):
            cfg = SimConfig(
                params=params(sigma=0.32), motility=REF,
                init=AsymptoticMode(j=6, epsilon=0.01), n=n,
                t_end=400.0, snapshot_every=1.0,
            )
            finals[n] = simulate(cfg).final
        coarse = finals[256].u
        fine = finals[512].u[::2]
        assert np.max(np.abs(coarse - fine)) <= 1e-3
