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

Pattern-change events are read from the snapshots with fixed hysteresis: a
pattern is established once its largest cosine amplitude reaches
EVENT_FLOOR, a new dominant mode must exceed EVENT_MARGIN times the current
one, and a change counts once it lasts EVENT_PERSIST snapshots.

The step loop is written for per-call overhead, which dominates at a few
hundred nodes: the state lives in two preallocated (2, N+1) arrays (row 0
is u, row 1 is v) that swap roles each step, the signal solve calls LAPACK
gtsv directly on the rows of the band matrix, and the new state is checked
for blow-up, positivity loss and the steady rate in one fused pass.

Peak counting uses ``_find_peaks``, a numpy port of the rules of
scipy.signal.find_peaks with a prominence threshold; the test suite checks
that both return the same indices.  Importing scipy.signal would more than
double the package's import time for that one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Union

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .asymptotics import expansion_coefficients, second_order_profiles
from .discrete import laplacian, residual, signal_band
from .errors import BlowUpError, PositivityLossError
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
    steady_tol: float = 1e-8
    snapshot_every: float = 1.0
    b_max: float = 100.0

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"resolution n must be >= 16, got {self.n}")
        if self.dt is not None and not _finite_positive(self.dt):
            raise ValueError(f"dt must be finite and > 0 when given, got {self.dt}")
        for name in ("t_end", "steady_tol", "snapshot_every", "b_max"):
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
        u, v = second_order_profiles(e, init.epsilon, x, u1_scale=init.u1_scale)
        return Field(u=u, v=v, l=p.l)
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
    final: Field
    steady: bool
    events: tuple[Event, ...] = dataclass_field(default=())

    @property
    def t_end_reached(self) -> bool:
        return not self.steady

    def field(self, i: int) -> Field:
        return Field(u=self.u_history[i], v=self.v_history[i], l=self.l)

    @property
    def settle_time(self) -> float:
        """Time of the last qualitative change; 0 when nothing ever changed."""
        return max((ev.time for ev in self.events), default=0.0)

    def mode_change_times(self) -> dict[tuple, float]:
        return {(ev.old, ev.new): ev.time for ev in self.events if ev.kind == "dominant_mode"}


def _cosine_coefficients(u_rows: np.ndarray, x: np.ndarray, l: float, j_max: int) -> np.ndarray:
    """Trapezoid projections of u - mean(u) onto cos(pi j x / l), rows x modes."""
    n = x.size - 1
    weights = np.full(x.size, l / n)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    table = np.cos(np.outer(np.arange(j_max + 1), np.pi * x / l))  # (modes, nodes)
    mean = (u_rows @ weights) / l
    centered = u_rows - mean[..., None]
    coeffs = (centered * weights) @ table.T * (2.0 / l)
    coeffs[..., 0] *= 0.5
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


def _stretch_minima(vals: list) -> list:
    """For each value, the minimum over the stretch that reaches left from
    it while values stay <= its own (the value itself included)."""
    out = []
    stack = []  # (value, minimum of the stretch it ends); values strictly decrease
    for val in vals:
        lo = val
        while stack and stack[-1][0] <= val:
            lo = min(lo, stack.pop()[1])
        stack.append((val, lo))
        out.append(lo)
    return out


def _find_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Indices of the maxima of x whose prominence is at least prominence.

    Follows scipy.signal.find_peaks(x, prominence=prominence): a run of
    equal values counts as one point, a maximum is a run strictly above the
    runs on both sides (never the first or last run) and sits at the middle
    of its run, rounded down, and its prominence is its height above the
    higher of the two minima reached going left and right while values stay
    <= the peak.  Those minima lie among the turning runs and the two ends,
    so only they are scanned.
    """
    moves = np.flatnonzero(x[1:] != x[:-1])  # run i ends at moves[i], run i + 1 starts after it
    rising = x[moves + 1] > x[moves]
    bend = np.flatnonzero(rising[1:] != rising[:-1])  # run bend + 1 is a turning run
    if bend.size == 0:
        return bend
    top = x[moves[bend + 1]]
    vals = [float(x[0]), *top.tolist(), float(x[-1])]
    base = np.maximum(_stretch_minima(vals), _stretch_minima(vals[::-1])[::-1])[1:-1]
    keep = rising[bend] & (top - base >= prominence)
    return ((moves[bend] + 1 + moves[bend + 1]) // 2)[keep]


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


def _annotate(times, u_hist, x, l):
    n = x.size - 1
    j_max = n // 2
    coeffs = _cosine_coefficients(u_hist, x, l, j_max)
    mags = np.abs(coeffs[:, 1:])
    established = mags.max(axis=1) >= EVENT_FLOOR
    event_series = _hysteresis_series(mags, established, EVENT_MARGIN)

    peaks = []
    for row, ok in zip(u_hist, established):
        peaks.append(_count_peaks(row) if ok else None)
    events = _debounced_changes(times, event_series, EVENT_PERSIST, "dominant_mode")
    events += _debounced_changes(times, tuple(peaks), EVENT_PERSIST, "peak_count")
    events.sort(key=lambda ev: ev.time)
    return tuple(events)


def simulate(config: SimConfig) -> Trajectory:
    """Integrate until steady (max-norm rate below steady_tol for both
    components) or t_end, recording snapshots and pattern-change events."""
    p, m = config.params, config.motility
    f0 = initial_field(config.init, p, m, config.n)
    h, D, sigma, b_max = f0.h, p.D, p.sigma, config.b_max
    # rows are (u, v); each step writes nxt from cur, then the two swap
    cur = np.stack([f0.u, f0.v])
    nxt = np.empty_like(cur)
    scratch = np.empty_like(cur)
    tmp = np.empty(f0.u.size)
    lap_buf = np.empty_like(tmp)
    ab_buf = np.empty((3, tmp.size))
    # gtsv's (sub, main, super) diagonals, refilled by signal_band every step
    dl, d, du = ab_buf[2, :-1], ab_buf[1], ab_buf[0, 1:]
    lo_old = cur.min(axis=1).tolist()

    times = [0.0]
    u_hist = [f0.u.copy()]
    v_hist = [f0.v.copy()]
    t = 0.0
    next_snap = config.snapshot_every
    steady = False

    # a run that blows up past the float range reaches the BlowUpError check
    # through inf/NaN values; numpy need not warn on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        while t < config.t_end:
            u, v = cur
            u_new, v_new = nxt
            rv = np.asarray(m.evaluate(v, 0), dtype=float)
            dt_full = DT_SAFETY * h * h / float(rv.max())
            if config.dt is not None:
                dt_full = min(dt_full, config.dt)
            dt = min(dt_full, next_snap - t, config.t_end - t)
            if dt <= 0:
                dt = 1e-15  # fp guard when t has effectively reached a boundary
            # u_new = u + dt * (Lap_h(rv u) + sigma u (1 - u)), evaluated in that order
            lap = laplacian(np.multiply(rv, u, out=tmp), h, lap_buf)
            np.multiply(u, sigma, out=tmp)
            np.subtract(1.0, u, out=u_new)
            np.multiply(tmp, u_new, out=tmp)
            np.add(lap, tmp, out=tmp)
            np.multiply(tmp, dt, out=tmp)
            np.add(u, tmp, out=u_new)
            # backward Euler for v: solve (1 + dt - dt D Lap_h) v_new = v + dt u_new in place
            np.multiply(u_new, dt, out=v_new)
            np.add(v, v_new, out=v_new)
            signal_band(dt, h, D, ab_buf)
            info = dgtsv(dl, d, du, v_new, overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                         overwrite_b=1)[-1]
            if info != 0:
                raise LinAlgError("singular matrix")

            # one comparison catches NaN, inf and the bound
            if not np.abs(nxt, out=scratch).max() <= b_max:
                if not np.all(np.isfinite(nxt)):
                    raise BlowUpError(f"non-finite values at t={t + dt:.6g}")
                raise BlowUpError(f"solution norm exceeded bound {b_max} at t={t + dt:.6g}")
            lo = nxt.min(axis=1).tolist()
            if lo[0] <= 0 < lo_old[0] or lo[1] <= 0 < lo_old[1]:
                raise PositivityLossError(f"positivity lost at t={t + dt:.6g}")
            rate = np.abs(np.subtract(nxt, cur, out=scratch), out=scratch).max() / dt
            cur, nxt, lo_old = nxt, cur, lo
            t += dt
            # rate estimates from boundary-clipped tiny steps are rounding noise
            steady = bool(rate < config.steady_tol) and dt >= 0.25 * dt_full
            if steady or t >= next_snap - 1e-12:
                times.append(t)
                u_hist.append(cur[0].copy())
                v_hist.append(cur[1].copy())
                next_snap += config.snapshot_every
            if steady:
                break

    final = Field(u=cur[0], v=cur[1], l=p.l)
    times_arr = np.asarray(times)
    u_arr = np.asarray(u_hist)
    v_arr = np.asarray(v_hist)
    return Trajectory(
        times=times_arr,
        u_history=u_arr,
        v_history=v_arr,
        l=p.l,
        final=final,
        steady=steady,
        events=_annotate(times_arr, u_arr, final.x, p.l),
    )
