"""Finite-difference time integration of the colony model on [0, l].

Semi-discrete system on a uniform grid of N+1 nodes with zero-flux
boundaries:

    du/dt = Lap_h(r(v) u) + sigma u (1 - u)
    dv/dt = D Lap_h v - v + u

The discrete operators (mirror-closure Laplacian, stationary residual and
the signal equation's backward-Euler matrix) come from ``discrete``, the
same model continuation solves; with sigma = 0 the trapezoidal mass of u is
conserved to rounding.  Time stepping is IMEX: the stiff linear v-equation
is advanced by backward Euler through a tridiagonal solve, everything else
explicitly, with the step size capped by the explicit diffusion bound
dt <= DT_SAFETY h^2 / max r (DT_SAFETY = 0.4).  Any steady state of the
scheme solves the spatially discrete stationary system exactly, independent
of dt.

Snapshot k = 1, 2, ... is at k snapshot_every while that is below
(1 - LAST_STEP_SLACK) t_end, and the last one at t_end.  A step that would
reach the next snapshot time within (1 + LAST_STEP_SLACK) full steps takes
dt = t_snap - t and lands on it exactly, so rounding (of a sum of capped
steps, or of a multiple just below t_end) leaves no sliver step; all others
are full steps.  The run ends after the snapshot at t_end, or earlier when
steady, so the last snapshot is always the final state.

Whether a run is steady is decided at snapshot steps only, from the
max-norm rate max|new - old| / dt of the step that reached the snapshot.
At sigma = 0 mass conservation makes the Jacobian singular, so there the
run is steady once that rate is below steady_tol, unless the step was
clipped below a quarter of the longest step the schedule allows, the
smaller of the full step and snapshot_every.  For sigma != 0 the only way
a run ends steady is the certified stop.  It is tried when the rate is below
STOP_RATE (1e-3) and no attempt was made in the last STOP_RETRY (10) time
units, and it ends the run when all of these hold:

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
would take over MAX_STEPS steps as long as its first, is a ColonyKitError.
The snapshot count follows from the schedule before the first step, and
each snapshot is written once, into its row of the returned histories; a
run that stops early keeps a copy of the rows it wrote.

A state outside [-B_MAX, B_MAX] (B_MAX = 100), or not finite, is a BlowUpError,
the initial state already before the first step, and so are an asymptotic
seed that overflows and a signal solve that LAPACK finds singular: with
D dt / h^2 so large that the 1 + dt of its diagonal rounds away, the matrix
is the Neumann Laplacian's, which is singular.

The cosine amplitudes of a state u are the trapezoid projections of
u - mean(u) onto cos(pi j x / l), j = 0 .. N/2.  On the uniform grid that is
a DCT-I, computed as the real FFT of the even extension
[c_0 .. c_N, c_(N-1) .. c_1] of the centred values c, divided by N, with the
j = 0 term halved.  Rows are transformed in blocks of at most
FFT_BLOCK_VALUES extension values, so the work memory is O(N) per row and
does not grow with the number of modes.  The last bits of the amplitudes
depend on numpy's FFT; the tests hold them within 1e-13 of the largest
amplitude of the direct trapezoid sums.

Pattern-change events are read from the snapshots with fixed hysteresis: a
pattern is established once its largest cosine amplitude reaches
EVENT_FLOOR, a new dominant mode must exceed EVENT_MARGIN times the current
one, and a change counts once it lasts EVENT_PERSIST snapshots.

The step loop is written for per-call overhead, which dominates at a few
hundred nodes: the state lives in two preallocated (2, N+1) arrays (row 0
is u, row 1 is v) that swap roles each step, and the signal solve calls
LAPACK gtsv (scipy's compiled wrapper, which ``_compiled`` loads without
importing scipy.linalg) directly on three diagonals that share one
buffer.  The blow-up and positivity checks read one minimum per row and
one maximum of the new state.

Peak counting runs the compiled core of scipy.signal.find_peaks, which
``_compiled`` loads on the first count without importing scipy.signal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Union

import numpy as np

from ._compiled import dgtsv, peak_finding
from .asymptotics import expansion_coefficients, second_order_profiles
from .discrete import (
    band_array,
    laplacian,
    linearize,
    newton,
    residual,
    rightmost_eigenvalues,
    signal_band,
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

DT_SAFETY = 0.4
EVENT_FLOOR = 1e-4
EVENT_PERSIST = 3
EVENT_MARGIN = 2.0
STOP_RATE = 1e-3
STOP_RETRY = 10.0
STOP_DIST = 1e-2
LAST_STEP_SLACK = 1e-9
B_MAX = 100.0
# far above the criteria's protocol runs: about 2.1e6 steps, 2.6e6 values
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
    dt: float | None = None          # None: stability-bound step, recomputed each step
    t_end: float = 5000.0
    steady_tol: float = 1e-8         # decides steady at sigma = 0 only
    snapshot_every: float = 1.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"resolution n must be >= 16, got {self.n}")
        if self.dt is not None and not _finite_positive(self.dt):
            raise ValueError(f"dt must be finite and > 0 when given, got {self.dt}")
        for name in ("t_end", "steady_tol", "snapshot_every"):
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

    @property
    def t_end_reached(self) -> bool:
        return not self.steady

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


def _cosine_coefficients(u_rows: np.ndarray, x: np.ndarray, l: float, j_max: int) -> np.ndarray:
    """Trapezoid projections of u - mean(u) onto cos(pi j x / l), rows x
    modes, by the blocked FFT of the module docstring."""
    n = x.size - 1
    weights = np.full(x.size, l / n)
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


@dataclass(frozen=True)
class ModalSpectrum:
    coefficients: np.ndarray  # index j = 0 .. n//2
    dominant: int             # argmax of |coefficient| over j >= 1; 0 if all vanish

    def amplitude(self, j: int) -> float:
        return float(self.coefficients[j])


def modal_spectrum(f: Field) -> ModalSpectrum:
    """Cosine-mode content of u and the dominant wave mode."""
    coeffs = _cosine_coefficients(f.u[None, :], f.x, f.l, f.n // 2)[0]
    mags = np.abs(coeffs[1:])
    dominant = int(np.argmax(mags)) + 1 if mags.size and mags.max() > 0 else 0
    return ModalSpectrum(coefficients=coeffs, dominant=dominant)


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """scipy.signal.find_peaks(x, prominence=prominence)[0] for a
    C-contiguous float64 x, from the compiled functions it runs (``wlen``
    -1 is no window)."""
    local_maxima, prominences = peak_finding()
    peaks = local_maxima(x)[0]
    return peaks[prominences(x, peaks, -1)[0] >= prominence]


def _count_peaks(u: np.ndarray) -> float:
    rng = float(np.max(u) - np.min(u))
    if rng < 1e-9:
        return 0.0
    prominence = 0.1 * rng
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
    """Peak count of u with boundary maxima counting one half each.

    Peaks need a prominence of 10% of the field range, which ignores the
    small secondary ripples of the second-harmonic correction.  A field
    with range below 1e-9 counts as flat.
    """
    return _count_peaks(f.u)


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


def _hysteresis_series(mags, established, margin):
    """Dominant-mode series where a contender replaces the holder only after
    exceeding margin times its amplitude (prevents chatter while two modes'
    coefficients track each other through a crossover)."""
    out = []
    current = None
    for row, ok in zip(mags, established):
        if not ok:
            current = None
        else:
            best = int(np.argmax(row)) + 1
            if current is None or row[best - 1] > margin * row[current - 1]:
                current = best
        out.append(current)
    return tuple(out)


def _pattern_data(u_rows, x, l):
    """Per row: cosine magnitudes of modes 1..n//2, whether a pattern is
    established, and its peak count (None when not established)."""
    mags = _cosine_coefficients(u_rows, x, l, (x.size - 1) // 2)[:, 1:]
    np.abs(mags, out=mags)
    established = mags.max(axis=1) >= EVENT_FLOOR
    peaks = tuple(_count_peaks(row) if ok else None for row, ok in zip(u_rows, established))
    return mags, established, peaks


def _annotate(times, u_hist, x, l):
    mags, established, peaks = _pattern_data(u_hist, x, l)
    event_series = _hysteresis_series(mags, established, EVENT_MARGIN)
    events = _debounced_changes(times, event_series, EVENT_PERSIST, "dominant_mode")
    events += _debounced_changes(times, peaks, EVENT_PERSIST, "peak_count")
    events.sort(key=lambda ev: ev.time)
    return tuple(events)


def _certified_steady_state(cur, recent, x, h, p: ModelParams, m: MotilityModel):
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
    mags, established, peaks = _pattern_data(np.vstack([recent, u]), x, p.l)
    modes = [int(np.argmax(row)) + 1 if ok else None for row, ok in zip(mags, established)]
    if len(set(zip(modes, peaks))) != 1:
        return None
    try:
        lam = rightmost_eigenvalues(linearize(u, v, h, p.D, p.sigma, m, band_array(u.size)))
    except SingularJacobianError:
        return None
    return state if lam.size and lam[0].real < 0 else None


def _multiples_below(step: float, bound: float) -> float:
    """The number of k >= 1 with k * step < bound, in floating point as the
    step loop computes it; inf when that exceeds 2**53."""
    q = bound / step
    if not q < 2.0 ** 53:
        return math.inf
    k = math.ceil(q)
    while k > 0 and k * step >= bound:
        k -= 1
    while (k + 1) * step < bound:
        k += 1
    return k


def _raise_out_of_bound(state: np.ndarray, t: float, b_max: float):
    if not np.all(np.isfinite(state)):
        raise BlowUpError(f"non-finite values at t={t:.6g}")
    raise BlowUpError(f"solution norm exceeded bound {b_max} at t={t:.6g}")


def simulate(config: SimConfig) -> Trajectory:
    """Integrate until steady or t_end on the module docstring's snapshot
    schedule, recording snapshots and pattern-change events.  The run is
    steady when the certified stop ends it at a stable discrete steady
    state, or, at sigma = 0 only, when the max-norm rate at a snapshot step
    drops below steady_tol."""
    p, m = config.params, config.motility
    f0 = initial_field(config.init, p, m, config.n)
    h, D, sigma, b_max = f0.h, p.D, p.sigma, B_MAX
    dt_cap, t_end, steady_tol = config.dt, config.t_end, config.steady_tol
    every, last_step = config.snapshot_every, 1.0 + LAST_STEP_SLACK
    t_last = (1.0 - LAST_STEP_SLACK) * t_end  # a later multiple of every is t_end
    dt_bound = DT_SAFETY * h * h  # the explicit bound is dt_bound / max r
    npts = f0.u.size
    snapshots = 2 + _multiples_below(every, t_last)  # t = 0, the multiples and t_end
    if snapshots * 2 * npts > MAX_SNAPSHOT_VALUES:
        raise ColonyKitError(f"the snapshots would hold over MAX_SNAPSHOT_VALUES = "
                             f"{MAX_SNAPSHOT_VALUES:.0e} values")
    # each step writes the buffer nxt from cur, then the two swap; both are
    # kept as (buffer, u row, v row)
    state = np.stack([f0.u, f0.v])
    spare = np.empty_like(state)
    cur, nxt = (state, *state), (spare, *spare)
    tmp = np.empty(npts)
    lap_buf = np.empty_like(tmp)
    # gtsv's diagonals in one buffer, refilled by signal_band every step:
    # off is the sub-diagonal dl followed by the super-diagonal du
    band = np.empty(3 * npts - 2)
    off, d = band[:2 * npts - 2], band[2 * npts - 2:]
    dl, du = off[:npts - 1], off[npts - 1:]
    lo_old0, lo_old1 = state.min(axis=1).tolist()
    if not (float(state.max()) <= b_max and -lo_old0 <= b_max and -lo_old1 <= b_max):
        _raise_out_of_bound(state, 0.0, b_max)
    multiply, subtract, add = np.multiply, np.subtract, np.add
    max_reduce, min_reduce = np.maximum.reduce, np.minimum.reduce

    x = f0.x
    last_try = -math.inf
    # snapshot k is row k; rows past the last snapshot of an early stop are never written
    times = [0.0]
    u_hist, v_hist = np.empty((snapshots, npts)), np.empty((snapshots, npts))
    u_hist[0], v_hist[0] = f0.u, f0.v
    t, k, steady = 0.0, 1, False

    # a run that blows up past the float range reaches the BlowUpError check
    # through inf/NaN values; numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            now, u, v = cur
            new, u_new, v_new = nxt
            t_snap = k * every if k * every < t_last else t_end
            rv = m.evaluate(v, 0)
            dt_full = dt_bound / float(max_reduce(rv))
            if dt_cap is not None:
                dt_full = min(dt_full, dt_cap)
            if t == 0.0 and t_end > MAX_STEPS * dt_full:
                raise ColonyKitError(f"the run would take over MAX_STEPS = {MAX_STEPS:.0e} "
                                     f"steps of dt = {dt_full:.3g}")
            if t_snap - t <= dt_full * last_step:
                dt, t_new = t_snap - t, t_snap
            else:
                dt, t_new = dt_full, t + dt_full
            # u_new = u + dt * (Lap_h(rv u) + sigma u (1 - u)), evaluated in that order
            lap = laplacian(multiply(rv, u, out=tmp), h, lap_buf)
            multiply(u, sigma, out=tmp)
            subtract(1.0, u, out=u_new)
            multiply(tmp, u_new, out=tmp)
            add(lap, tmp, out=tmp)
            multiply(tmp, dt, out=tmp)
            add(u, tmp, out=u_new)
            # backward Euler for v: solve (1 + dt - dt D Lap_h) v_new = v + dt u_new in place
            multiply(u_new, dt, out=v_new)
            add(v, v_new, out=v_new)
            signal_band(dt, h, D, off, d)
            if dgtsv(dl, d, du, v_new, 1, 1, 1, 1)[-1] != 0:  # overwrite all four in place
                raise BlowUpError(f"signal solve singular at t={t_new:.6g}")

            # max|x| <= b_max, tested as max x <= b_max and -min x <= b_max for
            # the minimum of each row, which the positivity test needs anyway;
            # both reductions propagate NaN, so this also catches NaN and inf
            lo0, lo1 = min_reduce(new, axis=1).tolist()
            if not (float(max_reduce(new, axis=None)) <= b_max
                    and -lo0 <= b_max and -lo1 <= b_max):
                _raise_out_of_bound(new, t_new, b_max)
            if lo0 <= 0 < lo_old0 or lo1 <= 0 < lo_old1:
                raise PositivityLossError(f"positivity lost at t={t_new:.6g}")
            cur, nxt, lo_old0, lo_old1, t = nxt, cur, lo0, lo1, t_new
            if t == t_snap:
                rate = float(np.max(np.abs(new - now))) / dt
                if sigma == 0:
                    # the rate of a step clipped well below the longest one the
                    # schedule allows (dt_full or snapshot_every) is rounding noise
                    steady = rate < steady_tol and dt >= 0.25 * min(dt_full, every)
                elif (rate < STOP_RATE and t - last_try >= STOP_RETRY
                        and k >= EVENT_PERSIST):
                    last_try = t
                    settled = _certified_steady_state(cur[0], u_hist[k - EVENT_PERSIST:k],
                                                      x, h, p, m)
                    if settled is not None:
                        cur, steady = (settled, *settled), True
                times.append(t)
                u_hist[k], v_hist[k] = cur[1], cur[2]
                if steady:
                    break
                k += 1

    if len(times) < snapshots:  # an early stop keeps only the rows it wrote
        u_hist, v_hist = u_hist[:len(times)].copy(), v_hist[:len(times)].copy()
    times_arr = np.asarray(times)
    return Trajectory(times=times_arr, u_history=u_hist, v_history=v_hist, l=p.l,
                      steady=steady, events=_annotate(times_arr, u_hist, x, p.l))
