"""Finite-difference time integration of the colony model on [0, l].

Semi-discrete system on a uniform grid of N+1 nodes with zero-flux
boundaries:

    du/dt = Lap_h(r(v) u) + sigma u (1 - u)
    dv/dt = D Lap_h v - v + u

The discrete operators (mirror-closure Laplacian, stationary residual and
each implicit solve) come from ``discrete``, the same model continuation
solves and the only module that calls LAPACK.  Time stepping is SBDF2, the
second-order linearly implicit BDF scheme (Ascher, Ruuth & Wetton, SIAM J.
Numer. Anal. 32, 1995).  With r frozen at the extrapolated signal
r* = r(2 v^n - v^(n-1)), the motility term Lap_h(r* u) is linear in u, so a
step is two tridiagonal solves, u first, then v with the new u:

    (3/2 I - dt Lap_h diag(r*)) u^(n+1)
        = 2 u^n - u^(n-1)/2 + dt sigma (2 f(u^n) - f(u^(n-1))),  f(u) = u (1 - u)
    ((3/2 + dt) I - dt D Lap_h) v^(n+1) = 2 v^n - v^(n-1)/2 + dt u^(n+1)

The first step, and the first step of a different size, is backward Euler
with r* = r(v^n): a0 = 1 in place of 3/2, right sides u^n + dt sigma f(u^n)
and v^n.  No stability bound caps the step: dt is the step itself (default
0.1, below).  A fixed point of either step solves the discrete stationary
system exactly, since the BDF difference vanishes there, so steady states
do not depend on dt.  At sigma = 0 the trapezoid weights w satisfy
w^T Lap_h = 0, so each step keeps the trapezoid mass of u to rounding: the
backward-Euler step keeps it, and the BDF2 combination of two equal masses
gives a third.  SBDF2 is not positivity preserving: where u is steep,
2 u^n - u^(n-1)/2 can go negative, and a step that loses positivity is a
PositivityLossError as before.

The default dt = 0.1 was chosen by an accuracy rule fixed before criterion
10's transition times were read: the largest 0.1 / 2^k at which criterion
11's fitted growth rate is within 0.5% of the dispersion root (a quarter of
its 2% tolerance) and criterion 10's 4->8 time equals its value at dt / 2.
At n = 512 criterion 11's error is 0.28, 0.062, 0.024 and 0.016% at dt =
0.1, 0.05, 0.025 and 0.0125, and the 4->8 time is 51 at each.

Snapshot k = 1, 2, ... is at k snapshot_every while that is below
(1 - LAST_STEP_SLACK) t_end, and the last one at t_end.  Each snapshot
interval is split into ceil(span / dt) equal steps, the last of which lands
on the snapshot time exactly, so no sliver step remains.  Every interval
has the span snapshot_every and so the same steps, except a last interval
to a t_end off the grid (its span more than LAST_STEP_SLACK t_end from
snapshot_every): there the step size changes, and the interval starts with
a backward-Euler step.  The run ends after the snapshot at t_end, or
earlier when steady, so the last snapshot is always the final state.

Whether a run is steady is decided at snapshot steps only, from the
max-norm rate max|new - old| / dt of the step that reached the snapshot.
At sigma = 0 mass conservation makes the Jacobian singular, so there the
run is steady once that rate is below steady_tol, unless the step was
below a quarter of the smaller of dt and snapshot_every.  Equal steps make
every other step at least half that, so only a short last interval to an
off-grid t_end can have such a step, whose rate may be rounding noise.
For sigma != 0 the only way a run ends steady is the certified stop.  It
is tried when the rate is below STOP_RATE (1e-3) and no attempt was made in
the last STOP_RETRY (10) time units, and it ends the run when all of these
hold:

  (a) ``discrete.newton`` converges from the current state;
  (b) its solution lies within STOP_DIST (1e-2, max-norm) of that state;
  (c) the spectral abscissa there, the largest real part of an eigenvalue
      of the banded Jacobian (``discrete.rightmost_eigenvalues``), is
      negative, so the steady state is stable;
  (d) the solution has the dominant mode and peak count of the last
      EVENT_PERSIST snapshots, so no pattern change is still pending.

The stopped run's final field is that exact discrete steady state, and it
takes the place of the snapshot at the stop time.  Every earlier snapshot
is the one the full run records.

A run whose snapshots would hold over MAX_SNAPSHOT_VALUES floats, or that
would take over MAX_STEPS steps, is a ColonyKitError.  Both counts follow
from the schedule, before the initial field is built.  Each snapshot is
written once, into its row of the returned histories; a run that stops
early keeps a copy of the rows it wrote.

A state outside [-B_MAX, B_MAX] (B_MAX = 100), or not finite, is a BlowUpError,
the initial state already before the first step, and so are an asymptotic
seed that overflows and a density or signal solve that
``discrete.implicit_solve`` finds singular: where a0 rounds away beside
dt r / h^2, or a0 + dt beside D dt / h^2, the matrix is a multiple of the
Neumann Laplacian, which is singular.

The cosine amplitudes of a state u are the trapezoid projections of
u - mean(u) onto cos(pi j x / l), j = 0 .. N/2.  On the uniform grid that is
a DCT-I, computed as the real FFT of the even extension
[c_0 .. c_N, c_(N-1) .. c_1] of the centred values c, divided by N, with the
j = 0 term halved.  Rows are transformed in blocks of at most
FFT_BLOCK_VALUES extension values, so the work memory is O(N) per row and
does not grow with the number of modes.  The last bits of the amplitudes
depend on numpy's FFT; the tests hold them within 1e-13 of the largest
amplitude of the direct trapezoid sums.

A state has a pattern when its largest cosine amplitude over modes 1 .. N/2
(higher modes are not resolved) reaches PATTERN_FLOOR; that amplitude's
mode is its dominant mode.  Pattern-change events are read from the
snapshots with fixed hysteresis: a new dominant mode must exceed
EVENT_MARGIN times the current one, and a change counts once it lasts
EVENT_PERSIST snapshots.

Peak counting runs the compiled core of scipy.signal.find_peaks, which
``_compiled`` loads on the first count without importing scipy.signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Union

import numpy as np

from ._compiled import peak_finding
from .asymptotics import expansion_coefficients, second_order_profiles
from .discrete import (
    band_array,
    implicit_solve,
    linearize,
    newton,
    residual,
    rightmost_eigenvalues,
)
from .errors import (BlowUpError, ColonyKitError, NewtonError, PositivityLossError,
                     SingularJacobianError)
from .linear_analysis import ModelParams
from .motility import MotilityModel

__all__ = [
    "Field",
    "UniformPerturbed",
    "AsymptoticMode",
    "ExplicitField",
    "SimConfig",
    "Event",
    "Trajectory",
    "simulate",
    "stationary_residual",
    "ModalSpectrum",
    "modal_spectrum",
    "count_peaks",
]

PATTERN_FLOOR = 1e-4
EVENT_PERSIST = 3
EVENT_MARGIN = 2.0
STOP_RATE = 1e-3
STOP_RETRY = 10.0
STOP_DIST = 1e-2
LAST_STEP_SLACK = 1e-9
B_MAX = 100.0
# far above the criteria's protocol runs: at most 25000 steps, 2.6e6 values
MAX_STEPS = 1e8
MAX_SNAPSHOT_VALUES = 1e8
# the even extensions one block of the cosine projection holds (512 kB)
FFT_BLOCK_VALUES = 2 ** 16


@dataclass(frozen=True)
class Field:
    """Discretized (u, v) on the uniform grid x_i = i l / N."""

    u: np.ndarray
    v: np.ndarray
    l: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or u.shape != v.shape or u.size < 2:
            raise ValueError("u and v must be equal-length 1-D arrays with >= 2 nodes")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("field values must be finite")
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"l must be finite and > 0, got {self.l}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.u.size - 1

    @property
    def h(self) -> float:
        return self.l / self.n

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.l, self.u.size)


@dataclass(frozen=True)
class UniformPerturbed:
    """(1, 1) plus a seeded uniform(-1, 1) perturbation of given amplitude."""

    amplitude: float = 0.01
    seed: int = 0


@dataclass(frozen=True)
class AsymptoticMode:
    """Second-order approximate steady state of one mode, with the leading
    u-amplitude optionally rescaled (off-branch seeding)."""

    j: int
    epsilon: float = 0.01
    u1_scale: float = 1.0


@dataclass(frozen=True)
class ExplicitField:
    field: Field


InitSpec = Union[UniformPerturbed, AsymptoticMode, ExplicitField]


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    motility: MotilityModel
    init: InitSpec
    n: int = 512
    dt: float = 0.1                  # the step; snapshot intervals are split into equal steps <= dt
    t_end: float = 5000.0
    steady_tol: float = 1e-8         # decides steady at sigma = 0 only
    snapshot_every: float = 1.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"resolution n must be >= 16, got {self.n}")
        for name in ("dt", "t_end", "steady_tol", "snapshot_every"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def _finite_positive(x) -> bool:
    return math.isfinite(x) and x > 0


def initial_field(init: InitSpec, p: ModelParams, m: MotilityModel, n: int) -> Field:
    x = np.linspace(0.0, p.l, n + 1)
    if isinstance(init, ExplicitField):
        if init.field.n != n:
            raise ValueError(f"explicit field has n={init.field.n}, config expects {n}")
        if abs(init.field.l - p.l) > 1e-9 * max(1.0, p.l):
            raise ValueError(f"explicit field has l={init.field.l}, params expect {p.l}")
        return init.field
    if isinstance(init, UniformPerturbed):
        rng = np.random.default_rng(init.seed)
        u = 1.0 + init.amplitude * rng.uniform(-1.0, 1.0, n + 1)
        v = 1.0 + init.amplitude * rng.uniform(-1.0, 1.0, n + 1)
        return Field(u=u, v=v, l=p.l)
    if isinstance(init, AsymptoticMode):
        e = expansion_coefficients(init.j, p, m)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                u, v = second_order_profiles(e, init.epsilon, x, u1_scale=init.u1_scale)
            return Field(u=u, v=v, l=p.l)
        except (OverflowError, ValueError) as exc:  # the profiles leave the float range
            raise BlowUpError(f"mode {init.j} seed at epsilon={init.epsilon:g} is not finite") from exc
    raise TypeError(f"unknown initial condition spec: {init!r}")


@dataclass(frozen=True)
class Event:
    """A change in the qualitative state of the pattern.

    kind is "dominant_mode" or "peak_count"; old/new are mode indices or
    half-integer peak counts, with None meaning no established pattern.
    """

    kind: str
    time: float
    old: object
    new: object


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    u_history: np.ndarray
    v_history: np.ndarray
    l: float
    steady: bool
    events: tuple[Event, ...] = dataclass_field(default=())

    def field(self, i: int) -> Field:
        return Field(u=self.u_history[i], v=self.v_history[i], l=self.l)

    @property
    def final(self) -> Field:
        """The state where the run ended: the last snapshot."""
        return self.field(-1)

    @property
    def settle_time(self) -> float:
        """Time of the last qualitative change; 0 when nothing ever changed."""
        return max((ev.time for ev in self.events), default=0.0)

    def mode_change_times(self) -> dict[tuple, float]:
        return {(ev.old, ev.new): ev.time for ev in self.events if ev.kind == "dominant_mode"}


def _cosine_coefficients(u_rows: np.ndarray, l: float) -> np.ndarray:
    """Trapezoid projections of u - mean(u) onto cos(pi j x / l), rows x
    modes j = 0 .. n//2, by the blocked FFT of the module docstring."""
    n = u_rows.shape[1] - 1
    j_max = n // 2
    weights = np.full(n + 1, l / n)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    mean = (u_rows @ weights) / l
    coeffs = np.empty((len(u_rows), j_max + 1))
    rows = max(1, FFT_BLOCK_VALUES // (2 * n))
    for start in range(0, len(u_rows), rows):
        block = slice(start, start + rows)
        ext = np.empty((len(coeffs[block]), 2 * n))  # [c_0 .. c_n, c_{n-1} .. c_1]
        np.subtract(u_rows[block], mean[block, None], out=ext[:, :n + 1])
        ext[:, n + 1:] = ext[:, n - 1:0:-1]
        np.divide(np.fft.rfft(ext)[:, :j_max + 1].real, n, out=coeffs[block])
    coeffs[:, 0] *= 0.5
    return coeffs


def _dominant_modes(mags: np.ndarray) -> list:
    """Per row of magnitudes of modes 1..n//2: its dominant mode, or None
    (no pattern) when the largest is below PATTERN_FLOOR."""
    established = mags.max(axis=1, initial=0.0) >= PATTERN_FLOOR
    return [int(np.argmax(row)) + 1 if ok else None for row, ok in zip(mags, established)]


@dataclass(frozen=True)
class ModalSpectrum:
    coefficients: np.ndarray  # index j = 0 .. n//2
    dominant: int             # the dominant mode; 0 without a pattern

    def amplitude(self, j: int) -> float:
        return float(self.coefficients[j])


def modal_spectrum(f: Field) -> ModalSpectrum:
    """Cosine amplitudes of u, modes 0..n//2, and its dominant mode."""
    coeffs = _cosine_coefficients(f.u[None, :], f.l)
    dominant = _dominant_modes(np.abs(coeffs[:, 1:]))[0]
    return ModalSpectrum(coefficients=coeffs[0], dominant=dominant or 0)


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """scipy.signal.find_peaks(x, prominence=prominence)[0] for a
    C-contiguous float64 x, from the compiled functions it runs (``wlen``
    -1 is no window)."""
    local_maxima, prominences = peak_finding()
    peaks = local_maxima(x)[0]
    return peaks[prominences(x, peaks, -1)[0] >= prominence]


def _count_peaks(u: np.ndarray) -> float:
    prominence = 0.1 * float(np.max(u) - np.min(u))
    # reflect across both boundaries so boundary maxima get true prominences
    ext = np.concatenate([u[1:][::-1], u, u[:-1][::-1]])
    n = u.size - 1
    peaks = _find_peaks(ext, prominence)
    inside = peaks[(peaks >= n) & (peaks <= 2 * n)]
    total = 0.0
    for idx in inside:
        total += 0.5 if idx in (n, 2 * n) else 1.0
    return total


def count_peaks(f: Field) -> float:
    """Peak count of u with boundary maxima counting one half each; 0.0
    when u has no pattern (module docstring).

    Peaks need a prominence of 10% of the field range, which ignores the
    small secondary ripples of the second-harmonic correction.
    """
    return _pattern_data(f.u[None, :], f.l)[2][0] or 0.0


def stationary_residual(f: Field, p: ModelParams, m: MotilityModel) -> tuple[float, float]:
    """Max-norms of both discretized stationary equations."""
    res = residual(f.u, f.v, f.h, p.D, p.sigma, m)
    return float(np.max(np.abs(res[0::2]))), float(np.max(np.abs(res[1::2])))


def _debounced_changes(times, series, persist, kind):
    """Events where the series changes to a value that persists: a run of a
    new value counts once it lasts persist entries or ends the series."""
    events = []
    current = series[0]
    i = 1
    for val, run in itertools.groupby(series[1:]):
        length = len(list(run))
        if val != current and (length >= persist or i + length == len(series)):
            events.append(Event(kind=kind, time=float(times[i]), old=current, new=val))
            current = val
        i += length
    return events


def _hysteresis_series(mags, modes, margin):
    """Dominant-mode series where a contender replaces the holder only after
    exceeding margin times its amplitude (prevents chatter while two modes'
    coefficients track each other through a crossover)."""
    out = []
    current = None
    for row, best in zip(mags, modes):
        if best is None or current is None or row[best - 1] > margin * row[current - 1]:
            current = best
        out.append(current)
    return tuple(out)


def _pattern_data(u_rows, l):
    """Per row: cosine magnitudes of modes 1..n//2, the dominant mode and the
    peak count, both None without a pattern."""
    mags = _cosine_coefficients(u_rows, l)[:, 1:]
    np.abs(mags, out=mags)
    modes = _dominant_modes(mags)
    peaks = tuple(None if j is None else _count_peaks(row) for row, j in zip(u_rows, modes))
    return mags, modes, peaks


def _annotate(times, u_hist, l):
    mags, modes, peaks = _pattern_data(u_hist, l)
    event_series = _hysteresis_series(mags, modes, EVENT_MARGIN)
    events = _debounced_changes(times, event_series, EVENT_PERSIST, "dominant_mode")
    events += _debounced_changes(times, peaks, EVENT_PERSIST, "peak_count")
    events.sort(key=lambda ev: ev.time)
    return tuple(events)


def _certified_steady_state(cur, recent, h, p: ModelParams, m: MotilityModel):
    """The discrete steady state that ends the run at the state cur, or None.

    It is Newton's solution from cur (a) if that lies within STOP_DIST of
    cur in max-norm (b), has a negative spectral abscissa (c), and shows the
    dominant mode and peak count of the rows of recent, the u of the last
    EVENT_PERSIST snapshots (d).
    """
    try:
        u, v, _, _, _ = newton(cur[0], cur[1], h, p.D, p.sigma, m)
    except NewtonError:
        return None
    state = np.stack([u, v])
    if not np.abs(state - cur).max() <= STOP_DIST:
        return None
    _, modes, peaks = _pattern_data(np.vstack([recent, u]), p.l)
    if len(set(zip(modes, peaks))) != 1:
        return None
    try:
        lam = rightmost_eigenvalues(linearize(u, v, h, p.D, p.sigma, m, band_array(u.size)))
    except SingularJacobianError:
        return None
    return state if lam.size and lam[0].real < 0 else None


def _multiples_below(step: float, bound: float) -> float:
    """The number of k >= 1 with k * step < bound, each product rounded as
    simulate's snapshot times are; inf when that exceeds 2**53."""
    q = bound / step
    if not q < 2.0 ** 53:
        return math.inf
    k = math.ceil(q)
    while k > 0 and k * step >= bound:
        k -= 1
    while (k + 1) * step < bound:
        k += 1
    return k


def _steps(span: float, dt: float) -> float:
    """ceil(span / dt), the equal steps of at most dt that cover span; inf
    past MAX_STEPS."""
    q = span / dt
    return math.ceil(q) if q <= MAX_STEPS else math.inf


def _minima_within_bound(u: np.ndarray, v: np.ndarray, t: float, b_max: float):
    """(min u, min v) of a state with max(|u|, |v|) <= b_max, else a
    BlowUpError.  The bound is tested as max <= b_max and -min <= b_max, from
    the minima the positivity test needs anyway; both reductions propagate
    NaN, so this also catches NaN and inf."""
    lo_u, lo_v = float(u.min()), float(v.min())
    if max(float(u.max()), float(v.max())) <= b_max and -lo_u <= b_max and -lo_v <= b_max:
        return lo_u, lo_v
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise BlowUpError(f"non-finite values at t={t:.6g}")
    raise BlowUpError(f"solution norm exceeded bound {b_max} at t={t:.6g}")


def simulate(config: SimConfig) -> Trajectory:
    """Integrate until steady or t_end on the module docstring's snapshot
    schedule, recording snapshots and pattern-change events.  The run is
    steady when the certified stop ends it at a stable discrete steady
    state, or, at sigma = 0 only, when the max-norm rate at a snapshot step
    drops below steady_tol."""
    p, m = config.params, config.motility
    dt, t_end, steady_tol = config.dt, config.t_end, config.steady_tol
    every = config.snapshot_every
    npts = config.n + 1
    # snapshots 1 .. multiples are regular; a later multiple of every is t_end
    multiples = _multiples_below(every, (1.0 - LAST_STEP_SLACK) * t_end)
    snapshots = 2 + multiples  # t = 0, the multiples and t_end
    if snapshots * 2 * npts > MAX_SNAPSHOT_VALUES:
        raise ColonyKitError(f"the snapshots would hold over MAX_SNAPSHOT_VALUES = "
                             f"{MAX_SNAPSHOT_VALUES:.0e} values")
    # the last interval, to t_end, is a regular one unless t_end is off the grid
    last_span = t_end - multiples * every
    if abs(last_span - every) <= LAST_STEP_SLACK * t_end:
        last_span = every
    steps_every, steps_last = _steps(every, dt), _steps(last_span, dt)
    if (multiples * steps_every if multiples else 0) + steps_last > MAX_STEPS:
        raise ColonyKitError(f"the run would take over MAX_STEPS = {MAX_STEPS:.0e} "
                             f"steps of dt = {dt:.3g}")
    f0 = initial_field(config.init, p, m, config.n)
    h, D, sigma, b_max = f0.h, p.D, p.sigma, B_MAX
    u, v = f0.u, f0.v
    lo_u, lo_v = _minima_within_bound(u, v, 0.0, b_max)
    last_try = -math.inf
    # snapshot k is row k; rows past the last snapshot of an early stop are never written
    times = [0.0]
    u_hist, v_hist = np.empty((snapshots, npts)), np.empty((snapshots, npts))
    u_hist[0], v_hist[0] = u, v
    steady = False
    # the previous state, f(u) there and the step that left it; a step of
    # another size (the first one too) is a backward-Euler step
    u_old = v_old = f_old = None
    step_old = math.nan

    # a run that blows up past the float range reaches the BlowUpError check
    # through inf/NaN values; numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, snapshots):
            if k <= multiples:
                t_snap, span, steps = k * every, every, steps_every
            else:
                t_snap, span, steps = t_end, last_span, steps_last
            step = span / steps
            t_start = times[-1]
            for i in range(1, steps + 1):
                t_new = t_snap if i == steps else t_start + i * step
                fu = u * (1.0 - u)
                if step == step_old:  # BDF2
                    a0, u_part, v_part = 1.5, 2.0 * u - 0.5 * u_old, 2.0 * v - 0.5 * v_old
                    rv, react = m.evaluate(2.0 * v - v_old, 0), 2.0 * fu - f_old
                else:  # backward Euler
                    a0, u_part, v_part = 1.0, u, v
                    rv, react = m.evaluate(v, 0), fu
                u_new = implicit_solve(a0, step, h, rv, u_part + step * sigma * react)
                if u_new is None:
                    raise BlowUpError(f"density solve singular at t={t_new:.6g}")
                v_new = implicit_solve(a0 + step, step, h, D, v_part + step * u_new)
                if v_new is None:
                    raise BlowUpError(f"signal solve singular at t={t_new:.6g}")
                lo_u_new, lo_v_new = _minima_within_bound(u_new, v_new, t_new, b_max)
                if lo_u_new <= 0 < lo_u or lo_v_new <= 0 < lo_v:
                    raise PositivityLossError(f"positivity lost at t={t_new:.6g}")
                u_old, v_old, f_old, step_old = u, v, fu, step
                u, v, lo_u, lo_v = u_new, v_new, lo_u_new, lo_v_new

            rate = max(float(np.max(np.abs(u - u_old))), float(np.max(np.abs(v - v_old)))) / step
            if sigma == 0:
                # the rate of a step well below the longest one the schedule
                # allows (dt or snapshot_every) is rounding noise
                steady = rate < steady_tol and step >= 0.25 * min(dt, every)
            elif rate < STOP_RATE and t_snap - last_try >= STOP_RETRY and k >= EVENT_PERSIST:
                last_try = t_snap
                settled = _certified_steady_state(np.stack([u, v]), u_hist[k - EVENT_PERSIST:k],
                                                  h, p, m)
                if settled is not None:
                    (u, v), steady = settled, True
            times.append(t_snap)
            u_hist[k], v_hist[k] = u, v
            if steady:
                break

    if len(times) < snapshots:  # an early stop keeps only the rows it wrote
        u_hist, v_hist = u_hist[:len(times)].copy(), v_hist[:len(times)].copy()
    times_arr = np.asarray(times)
    return Trajectory(times=times_arr, u_history=u_hist, v_history=v_hist, l=p.l,
                      steady=steady, events=_annotate(times_arr, u_hist, p.l))
