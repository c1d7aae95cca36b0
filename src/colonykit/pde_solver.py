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
dt <= safety h^2 / max r.  Any steady state of the scheme solves the
spatially discrete stationary system exactly, independent of dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Union

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import find_peaks

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
        if self.l <= 0:
            raise ValueError(f"l must be > 0, got {self.l}")
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

    @property
    def is_extinct(self) -> bool:
        return float(np.max(np.abs(self.u))) == 0.0 and float(np.max(np.abs(self.v))) == 0.0


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
    dt_safety: float = 0.4
    event_floor: float = 1e-4        # modal amplitude below which no pattern is declared
    event_persist: int = 3           # snapshots a new dominant mode must survive
    event_margin: float = 2.0        # hysteresis: new mode must exceed margin * current

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"resolution n must be >= 16, got {self.n}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive when given")
        if self.t_end <= 0 or self.steady_tol <= 0 or self.snapshot_every <= 0:
            raise ValueError("t_end, steady_tol and snapshot_every must be positive")
        if not 0 < self.dt_safety <= 1:
            raise ValueError("dt_safety must lie in (0, 1]")


def _imex_step(u, v, rv, dt, h, D, sigma, lap_buf, ab_buf):
    """One IMEX step given r(v) precomputed; returns new (u, v) arrays."""
    w = rv * u
    lap = laplacian(w, h, lap_buf)
    u_new = u + dt * (lap + sigma * u * (1.0 - u))
    v_new = solve_banded((1, 1), signal_band(dt, h, D, ab_buf), v + dt * u_new,
                         overwrite_b=True, check_finite=False)
    return u_new, v_new


def _check_state(u_old, v_old, u_new, v_new, b_max, t):
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise BlowUpError(f"non-finite values at t={t:.6g}")
    if max(float(np.max(np.abs(u_new))), float(np.max(np.abs(v_new)))) > b_max:
        raise BlowUpError(f"solution norm exceeded bound {b_max} at t={t:.6g}")
    if (np.min(u_new) <= 0 and np.min(u_old) > 0) or (np.min(v_new) <= 0 and np.min(v_old) > 0):
        raise PositivityLossError(f"positivity lost at t={t:.6g}")


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
    t_end_reached: bool
    events: tuple[Event, ...] = dataclass_field(default=())
    dominant_modes: tuple = dataclass_field(default=())
    peak_counts: tuple = dataclass_field(default=())

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


def _count_peaks_array(u: np.ndarray, prominence: float | None) -> float:
    rng = float(np.max(u) - np.min(u))
    if prominence is None:
        if rng < 1e-9:
            return 0.0
        prominence = 0.1 * rng
    if prominence <= 0:
        raise ValueError(f"prominence must be > 0, got {prominence}")
    # reflect across both boundaries so boundary maxima get true prominences
    ext = np.concatenate([u[1:][::-1], u, u[:-1][::-1]])
    n = u.size - 1
    peaks, _ = find_peaks(ext, prominence=prominence)
    inside = peaks[(peaks >= n) & (peaks <= 2 * n)]
    total = 0.0
    for idx in inside:
        total += 0.5 if idx in (n, 2 * n) else 1.0
    return total


def count_peaks(f: Field, prominence: float | None = None) -> float:
    """Peak count of u with boundary maxima counting one half each.

    Default prominence is 10% of the field range, which ignores the small
    secondary ripples of the second-harmonic correction.  A field with
    range below 1e-9 counts as flat.
    """
    return _count_peaks_array(f.u, prominence)


def stationary_residual(f: Field, p: ModelParams, m: MotilityModel) -> tuple[float, float]:
    """Max-norms of both discretized stationary equations."""
    res = residual(f.u, f.v, f.h, p.D, p.sigma, m)
    return float(np.max(np.abs(res[0::2]))), float(np.max(np.abs(res[1::2])))


def _series_with_floor(values, established):
    return tuple(val if ok else None for val, ok in zip(values, established))


def _debounced_changes(times, series, persist, kind):
    """Events where the series changes to a value that persists."""
    events = []
    current = series[0]
    i = 1
    while i < len(series):
        val = series[i]
        if val != current:
            run_end = i
            while run_end < len(series) and series[run_end] == val:
                run_end += 1
            if run_end - i >= persist or run_end == len(series):
                events.append(Event(kind=kind, time=float(times[i]), old=current, new=val))
                current = val
                i = run_end
            else:
                i = run_end
        else:
            i += 1
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


def _annotate(times, u_hist, x, l, event_floor, persist, margin):
    n = x.size - 1
    j_max = n // 2
    coeffs = _cosine_coefficients(u_hist, x, l, j_max)
    mags = np.abs(coeffs[:, 1:])
    peak_mag = mags.max(axis=1)
    dominant = np.argmax(mags, axis=1) + 1
    established = peak_mag >= event_floor
    dom_series = _series_with_floor(dominant.tolist(), established)
    event_series = _hysteresis_series(mags, established, margin)

    peaks = []
    for row, ok in zip(u_hist, established):
        peaks.append(_count_peaks_array(row, None) if ok else None)
    events = _debounced_changes(times, event_series, persist, "dominant_mode")
    events += _debounced_changes(times, tuple(peaks), persist, "peak_count")
    events.sort(key=lambda ev: ev.time)
    return tuple(events), dom_series, tuple(peaks)


def simulate(config: SimConfig) -> Trajectory:
    """Integrate until steady (max-norm rate below steady_tol for both
    components) or t_end, recording snapshots and pattern-change events."""
    p, m = config.params, config.motility
    f0 = initial_field(config.init, p, m, config.n)
    h = f0.h
    u = f0.u.copy()
    v = f0.v.copy()
    lap_buf = np.empty_like(u)
    ab_buf = np.empty((3, u.size))

    times = [0.0]
    u_hist = [u.copy()]
    v_hist = [v.copy()]
    t = 0.0
    next_snap = config.snapshot_every
    steady = False

    while t < config.t_end:
        rv = np.asarray(m.evaluate(v, 0), dtype=float)
        dt_full = config.dt_safety * h * h / float(np.max(rv))
        if config.dt is not None:
            dt_full = min(dt_full, config.dt)
        dt = min(dt_full, next_snap - t, config.t_end - t)
        if dt <= 0:
            dt = 1e-15  # fp guard when t has effectively reached a boundary
        u_new, v_new = _imex_step(u, v, rv, dt, h, p.D, p.sigma, lap_buf, ab_buf)
        _check_state(u, v, u_new, v_new, config.b_max, t + dt)
        rate = max(float(np.max(np.abs(u_new - u))), float(np.max(np.abs(v_new - v)))) / dt
        u, v = u_new, v_new
        t += dt
        if t >= next_snap - 1e-12:
            times.append(t)
            u_hist.append(u.copy())
            v_hist.append(v.copy())
            next_snap += config.snapshot_every
        # rate estimates from boundary-clipped tiny steps are rounding noise
        if rate < config.steady_tol and dt >= 0.25 * dt_full:
            steady = True
            if times[-1] != t:
                times.append(t)
                u_hist.append(u.copy())
                v_hist.append(v.copy())
            break

    final = Field(u=u, v=v, l=p.l)
    times_arr = np.asarray(times)
    u_arr = np.asarray(u_hist)
    v_arr = np.asarray(v_hist)
    events, dom_series, peaks = _annotate(
        times_arr, u_arr, final.x, p.l,
        config.event_floor, config.event_persist, config.event_margin,
    )
    return Trajectory(
        times=times_arr,
        u_history=u_arr,
        v_history=v_arr,
        l=p.l,
        final=final,
        steady=steady,
        t_end_reached=not steady,
        events=events,
        dominant_modes=dom_series,
        peak_counts=peaks,
    )
