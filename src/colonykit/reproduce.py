"""One-shot reproduction of the published benchmark for the reference setup.

Reference configuration: logistic motility with steepness 8 centered at 1,
signal diffusivity D = 1, domain length l = 20, expansion amplitude 0.01.
Each criterion compares a computed quantity against the published value at
a pinned tolerance and reports pass/fail; simulation-based rows run the
stated protocols at the context's resolution (n = 512).

Known misprint: the published ascending chain of bifurcation values starts
"sigma_1 < sigma_11", but the same closed form that produces every other
published digit gives sigma_1 = 0.035823 > sigma_11 = 0.005411, so the
first pair is inverted at the source.  The ordering criterion checks the
corrected chain and carries the discrepancy in its detail text.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .asymptotics import (
    BranchVerdict,
    eta_by_quadrature,
    expansion_coefficients,
    second_order_profiles,
)
from .continuation import Termination, newton_steady, trace_branch
from .discrete import rightmost_eigenvalues
from .errors import ColonyKitError
from .linear_analysis import (
    ModelParams,
    critical_sigma,
    dispersion_roots,
    eigenvalue_lambda,
    scan_modes,
)
from .motility import LogisticDecay
from .pde_solver import (
    EVENT_MARGIN,
    AsymptoticMode,
    ExplicitField,
    Field,
    SimConfig,
    UniformPerturbed,
    count_peaks,
    modal_spectrum,
    simulate,
    stationary_residual,
)

__all__ = ["CriterionResult", "ReproductionContext", "run_reproduction", "format_report"]

# the reference setup: every criterion's expectation assumes it
REFERENCE_D = 1.0
REFERENCE_L = 20.0
REFERENCE_MOTILITY = LogisticDecay(steepness=8.0, center=1.0)

# published values for the reference configuration
REF_SIGMA0 = {6: 0.4967, 7: 0.4901, 8: 0.4350, 9: 0.3337, 10: 0.1895, 11: 0.0054}
REF_SIGMA2 = {6: -5.4569, 7: -8.5523, 8: -13.4555, 9: -21.4103, 10: -34.1442, 11: -54.0143}
REF_ETA = 10.3042
REF_A6 = 1.8883
REF_WAVENUMBER6 = 0.9425
REF_D1 = -1.7828
REF_D2 = 8.1736
REF_D4 = 1.7952
REF_I_C = 11
REF_I_A = 6
REF_SIGMA_C = 0.5
REF_LAMBDA_STAR = 1.0
# chain as printed at the source; its first inequality is inverted there
STATED_ORDERING = (1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6)
CORRECTED_ORDERING = (11, 1, 2, 10, 3, 9, 4, 8, 5, 7, 6)
# transition timeline of the mode-4-seeded run at sigma = 0.32 (30% windows)
REF_TRANSITION = {"mode_4_to_8": 60.0, "mode_8_to_6": 660.0, "settled": 750.0}
TRANSITION_REL_TOL = 0.30


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    status: str  # "pass" | "fail"
    detail: str
    data: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# every criterion in order, each carrying its id and name as cid and name
CRITERIA = []


def _criterion(name: str):
    """Register the decorated check as the next criterion of CRITERIA.  The
    check returns (ok, detail, data); the registered function wraps them in
    a CriterionResult with the criterion's id and name."""
    def register(check):
        cid = len(CRITERIA) + 1

        @functools.wraps(check)
        def run(ctx) -> CriterionResult:
            ok, detail, data = check(ctx)
            return CriterionResult(cid, name, "pass" if ok else "fail", detail, data)

        run.cid, run.name = cid, name
        CRITERIA.append(run)
        return run

    return register


class ReproductionContext:
    """Caches the heavy shared computations across criteria."""

    # protocol name -> (sigma, init spec)
    PROTOCOLS = {
        "mode3_at_030": (0.30, AsymptoticMode(j=3, epsilon=0.01, u1_scale=1.5)),
        "mode6_at_032": (0.32, AsymptoticMode(j=6, epsilon=0.01, u1_scale=1.0)),
        "mode4_at_040": (0.40, AsymptoticMode(j=4, epsilon=0.01, u1_scale=1.0)),
        "mode4_at_032_scaled": (0.32, AsymptoticMode(j=4, epsilon=0.01, u1_scale=1.2)),
        "uniform_at_060": (0.60, UniformPerturbed(amplitude=0.01, seed=0)),
    }

    def __init__(self, n: int = 512, progress=None):
        self.n = n
        self.motility = REFERENCE_MOTILITY
        self.progress = progress or (lambda msg: None)
        self._summary = None
        self._expansions = {}
        self._trajectories = {}
        self._branches = {}

    def params(self, sigma: float) -> ModelParams:
        return ModelParams(D=REFERENCE_D, sigma=sigma, l=REFERENCE_L)

    @property
    def summary(self):
        if self._summary is None:
            self._summary = scan_modes(self.params(0.3), self.motility)
        return self._summary

    def expansion(self, j: int):
        if j not in self._expansions:
            self._expansions[j] = expansion_coefficients(
                j, self.params(0.3), self.motility, self.summary
            )
        return self._expansions[j]

    def protocol_config(self, name: str) -> SimConfig:
        sigma, init = self.PROTOCOLS[name]
        return SimConfig(
            params=self.params(sigma),
            motility=self.motility,
            init=init,
            n=self.n,
            t_end=2500.0,
            snapshot_every=1.0,
        )

    def trajectory(self, name: str):
        if name not in self._trajectories:
            sigma = self.PROTOCOLS[name][0]
            self.progress(f"  running protocol {name} (sigma={sigma}, n={self.n}) ...")
            start = time.perf_counter()
            self._trajectories[name] = simulate(self.protocol_config(name))
            self.progress(f"  protocol {name} done in {time.perf_counter() - start:.0f}s")
        return self._trajectories[name]

    def branch(self, j: int, sigma_min: float):
        key = (j, sigma_min)
        if key not in self._branches:
            self.progress(f"  tracing mode-{j} branch to sigma={sigma_min} ...")
            self._branches[key] = trace_branch(
                j, self.params(0.3), self.motility, sigma_min, summary=self.summary
            )
        return self._branches[key]


@_criterion("critical values")
def _crit_critical_values(ctx: ReproductionContext):
    p, m = ctx.params(0.3), ctx.motility
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        sigma_c, lambda_star = critical_sigma(p, m)
        summary = scan_modes(p, m)
        best = min(best, time.perf_counter() - start)
    checks = {
        "sigma_c": abs(sigma_c - REF_SIGMA_C) <= 1e-12,
        "lambda_star": abs(lambda_star - REF_LAMBDA_STAR) <= 1e-12,
        "i_c": summary.i_c == REF_I_C,
        "i_a": summary.i_a == REF_I_A,
        "sigma_a_is_sigma_6": summary.sigma_a == summary.mode(6).sigma_j,
        "runtime": best < 1e-3,
    }
    detail = (
        f"sigma_c={sigma_c:.12g} lambda_star={lambda_star:.12g} i_c={summary.i_c} "
        f"i_a={summary.i_a} sigma_a={summary.sigma_a:.6g} runtime={best * 1e3:.3f}ms"
    )
    return all(checks.values()), detail, checks


def _published_check(label, computed, published, tol, relative=False):
    """Whether every computed value lies within tol of its published value
    (within tol times its size when relative), the detail line
    label key=value at 6 significant digits, and the computed values."""
    ok = all(abs(computed[k] - ref) <= (tol * abs(ref) if relative else tol)
             for k, ref in published.items())
    return ok, " ".join(f"{label}{k}={computed[k]:.6g}" for k in published), computed


@_criterion("bifurcation values sigma0_6..11")
def _crit_bifurcation_table(ctx):
    computed = {j: ctx.summary.mode(j).sigma_j for j in REF_SIGMA0}
    return _published_check("sigma0_", computed, REF_SIGMA0, 5e-5)


@_criterion("bifurcation-value ordering")
def _crit_ordering(ctx):
    sig = {j: ctx.summary.mode(j).sigma_j for j in range(1, 12)}
    stated_holds = all(
        sig[a] < sig[b] for a, b in zip(STATED_ORDERING, STATED_ORDERING[1:])
    )
    measured = tuple(j for j in ctx.summary.ordering if j <= 11)
    corrected_holds = measured == CORRECTED_ORDERING
    uncontested = all(
        sig[a] < sig[b] for a, b in zip(STATED_ORDERING[1:], STATED_ORDERING[2:])
    )
    detail = (
        f"measured ascending order {measured}; published chain inverts its first pair "
        f"(sigma0_1={sig[1]:.6g} > sigma0_11={sig[11]:.6g}); the other ten inequalities hold"
    )
    data = {
        "stated_chain_holds": stated_holds,
        "corrected_ordering_holds": corrected_holds,
        "uncontested_pairs_hold": uncontested,
        "sigma": sig,
    }
    return corrected_holds and uncontested, detail, data


@_criterion("second-order corrections sigma2_6..11")
def _crit_sigma2_table(ctx):
    computed = {j: ctx.expansion(j).sigma2 for j in REF_SIGMA2}
    return _published_check("sigma2_", computed, REF_SIGMA2, 2e-3, relative=True)


@_criterion("stability constant eta")
def _crit_eta(ctx):
    e = ctx.expansion(6)
    quad = eta_by_quadrature(ctx.params(0.3), ctx.motility, ctx.summary)
    ok_ref = abs(e.eta - REF_ETA) <= 1e-3 * REF_ETA
    ok_quad = abs(quad - e.eta) <= 1e-6 * abs(e.eta)
    detail = f"eta={e.eta:.6f} (published {REF_ETA}), quadrature oracle {quad:.6f}"
    return ok_ref and ok_quad, detail, {"eta": e.eta, "eta_quadrature": quad}


@_criterion("pattern coefficients of mode 6")
def _crit_pattern_coefficients(ctx):
    e = ctx.expansion(6)
    computed = {"a": e.a, "wavenumber": e.wavenumber, "d1": e.d1, "d3": e.d3,
                "d2": e.d2, "d4": e.d4}
    published = {"a": REF_A6, "wavenumber": REF_WAVENUMBER6, "d1": REF_D1, "d3": REF_D1,
                 "d2": REF_D2, "d4": REF_D4}
    return _published_check("", computed, published, 5e-4)


@_criterion("all branches backward (sigma2 < 0, modes 1..11)")
def _crit_backward_branches(ctx):
    vals = {j: ctx.expansion(j).sigma2 for j in range(1, 12)}
    ok = all(v < 0 for v in vals.values())
    worst = max(vals.values())
    return ok, f"max sigma2 over modes 1..11 = {worst:.6g}", vals


@_criterion("asymptotic residual order")
def _crit_residual_order(ctx):
    e = ctx.expansion(6)
    n_fine = 65536
    grid = np.linspace(0.0, REFERENCE_L, n_fine + 1)
    eps_values = [0.005, 0.01, 0.02]
    residuals = []
    for eps in eps_values:
        u, v = second_order_profiles(e, eps, grid)
        f = Field(u=u, v=v, l=REFERENCE_L)
        sigma_eps = e.sigma0 + eps * eps * e.sigma2
        ru, rv = stationary_residual(f, ctx.params(sigma_eps), ctx.motility)
        residuals.append(max(ru, rv))
    slope = float(np.polyfit(np.log(eps_values), np.log(residuals), 1)[0])
    ok = slope >= 2.7
    detail = f"residuals {['%.3e' % r for r in residuals]} -> observed order {slope:.3f}"
    return ok, detail, {"slope": slope, "residuals": residuals}


@_criterion("stable regime at sigma=0.6")
def _crit_stable_regime(ctx):
    traj = ctx.trajectory("uniform_at_060")
    du = float(np.max(np.abs(traj.final.u - 1.0)))
    dv = float(np.max(np.abs(traj.final.v - 1.0)))
    ok = traj.steady and du <= 1e-6 and dv <= 1e-6
    detail = f"steady={traj.steady} at t={traj.times[-1]:.0f}, |u-1|={du:.2e}, |v-1|={dv:.2e}"
    return ok, detail, {"du": du, "dv": dv}


def _protocol_outcome(traj):
    spec = modal_spectrum(traj.final)
    return spec.dominant, count_peaks(traj.final)


def _transition_prediction(ctx, traj, t_48):
    """What sets the 8->6 time of the mode-4 run.  Its initial state holds
    only the cosine modes 4k, a subspace the model keeps, so mode 6 grows
    only from rounding noise, at the rate of the mode-8 state's rightmost
    eigenvalue.  Returns |c6| at the 4->8 event, that eigenvalue (at the
    Newton-refined state from the event's snapshot) and the predicted time
    t_48 + ln(A / |c6|) / rate, where A = EVENT_MARGIN |c8| of the mode-8
    state is the amplitude at which mode 6 takes over; None where a step
    fails."""
    out = {"c6_at_4_to_8": None, "mode8_eigenvalue": None, "predicted_8_to_6": None}
    if t_48 is None:
        return out
    f = traj.field(int(np.searchsorted(traj.times, t_48)))
    p, m = ctx.params(ctx.PROTOCOLS["mode4_at_032_scaled"][0]), ctx.motility
    c6 = abs(modal_spectrum(f).amplitude(6))
    out["c6_at_4_to_8"] = c6
    try:
        g = newton_steady(f, p, m).field
        lam = rightmost_eigenvalues(g.u, g.v, g.h, p.D, p.sigma, m)
    except ColonyKitError:
        return out
    rate = float(lam[0].real) if lam.size else math.nan
    out["mode8_eigenvalue"] = rate
    amplitude = EVENT_MARGIN * abs(modal_spectrum(g).amplitude(8))
    if rate > 0 and c6 > 0:
        out["predicted_8_to_6"] = t_48 + math.log(amplitude / c6) / rate
    return out


@_criterion("mode selection and transition timeline")
def _crit_mode_selection(ctx):
    data = {}
    ok = True
    for name in ("mode3_at_030", "mode6_at_032", "mode4_at_040"):
        traj = ctx.trajectory(name)
        dom, peaks = _protocol_outcome(traj)
        data[name] = {"dominant": dom, "peaks": peaks, "t_final": float(traj.times[-1])}
        ok &= dom == 6 and peaks == 3.0

    traj = ctx.trajectory("mode4_at_032_scaled")
    dom, peaks = _protocol_outcome(traj)
    changes = traj.mode_change_times()
    t_48 = changes.get((4, 8))
    t_86 = changes.get((8, 6))
    settle = traj.settle_time
    times = {"mode_4_to_8": t_48, "mode_8_to_6": t_86, "settled": settle}
    prediction = _transition_prediction(ctx, traj, t_48)
    data["transition"] = dict(times, dominant=dom, peaks=peaks, **prediction)
    ok &= dom == 6 and peaks == 3.0
    for key, ref in REF_TRANSITION.items():
        got = times[key]
        ok &= got is not None and abs(got - ref) <= TRANSITION_REL_TOL * ref
    detail = "; ".join(
        [f"{k}: mode {v['dominant']}, {v['peaks']} peaks" for k, v in data.items() if k != "transition"]
        + [f"transition times {times} vs {REF_TRANSITION} (30% windows)",
           "8->6 from rounding noise: |c6|={c6_at_4_to_8} at 4->8, mode-8 rate "
           "{mode8_eigenvalue}, predicted at {predicted_8_to_6}".format(
               **{k: "n/a" if v is None else f"{v:.4g}" for k, v in prediction.items()})]
    )
    return ok, detail, data


@_criterion("linear growth fidelity")
def _crit_growth_fidelity(ctx):
    p = ctx.params(0.3)
    lam = eigenvalue_lambda(6, p.l)
    rho = dispersion_roots(lam, p, ctx.motility)[0].real
    n = ctx.n
    x = np.linspace(0.0, p.l, n + 1)
    amp = 1e-4
    # growing eigenvector: u-component 1 + D lam + rho per unit v-component
    evec = 1.0 + p.D * lam + rho
    f = Field(u=1.0 + amp * evec * np.cos(6 * np.pi * x / p.l),
              v=1.0 + amp * np.cos(6 * np.pi * x / p.l), l=p.l)
    cfg = SimConfig(params=p, motility=ctx.motility, init=ExplicitField(f), n=n,
                    t_end=1.0, snapshot_every=0.1)
    traj = simulate(cfg)
    coef = [modal_spectrum(traj.field(i)).amplitude(6) for i in range(len(traj.times))]
    fitted = float(np.polyfit(traj.times, np.log(np.abs(coef)), 1)[0])
    rel = abs(fitted - rho) / rho
    ok = rel <= 0.02
    detail = f"fitted rate {fitted:.6f} vs dispersion root {rho:.6f} (rel err {rel:.2%})"
    return ok, detail, {"fitted": fitted, "rho": rho}


def _branch_slope(curve, e):
    """Slope of |c_j|^2 against sigma0 - sigma, fitted through the origin
    over the points within 5e-3 below sigma0, and their count."""
    window = (e.sigma0 - curve.sigmas <= 5e-3) & (e.sigma0 - curve.sigmas > 0)
    xs, ys = [], []
    for bp, keep in zip(curve.points, window):
        if keep:
            xs.append(e.sigma0 - bp.sigma)
            ys.append(modal_spectrum(bp.field).amplitude(e.j) ** 2)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope = float(xs @ ys / (xs @ xs)) if xs.size else math.nan
    return slope, int(xs.size)


@_criterion("branch continuation consistency")
def _crit_continuation(ctx):
    e = ctx.expansion(6)
    curve = ctx.branch(6, 0.05)
    slope, n_pts = _branch_slope(curve, e)
    if n_pts == 0:
        return False, (f"{len(curve.points)} points ({curve.termination.value}), "
                       "none within 5e-3 below sigma0"), {}
    predicted = e.a ** 2 / abs(e.sigma2)
    rel = abs(slope - predicted) / predicted
    ok = curve.termination == Termination.REACHED_SIGMA_MIN and rel <= 0.10
    detail = (
        f"{len(curve.points)} points to sigma={curve.sigmas.min():.3g} "
        f"({curve.termination.value}); near-onset slope {slope:.4f} vs {predicted:.4f} "
        f"(rel err {rel:.2%}, {n_pts} points)"
    )
    return ok, detail, {"slope": slope, "predicted": predicted}


def _departure_config(ctx) -> SimConfig:
    """Criterion 13's dynamic cross-check: a state of the mode-4 branch with
    seeded noise, which should decay toward mode 6.  The state is the point
    of the trace to sigma_min = 0.315 nearest sigma = 0.32.  The trace's step
    grows on the way down, and at n = 256 its last two points are at
    sigma = 0.3390 and 0.3057, so the run starts at sigma = 0.3057, past
    sigma_min.  That far down the branch the state's largest cosine is
    mode 8, not mode 4 (|c8| = 0.132 against |c4| = 0.106)."""
    curve = ctx.branch(4, 0.315)
    bp = min(curve.points, key=lambda q: abs(q.sigma - 0.32))
    rng = np.random.default_rng(7)
    noisy = Field(
        u=bp.field.u + 1e-4 * rng.uniform(-1, 1, bp.field.u.size),
        v=bp.field.v + 1e-4 * rng.uniform(-1, 1, bp.field.v.size),
        l=bp.field.l,
    )
    return SimConfig(
        params=ctx.params(bp.sigma), motility=ctx.motility, init=ExplicitField(noisy),
        n=bp.field.n, t_end=2000.0, snapshot_every=1.0,
    )


@_criterion("branch stability verdicts")
def _crit_stability_verdicts(ctx):
    verdicts = {}
    ok = True
    for j in range(1, 12):
        v = ctx.expansion(j).verdict
        verdicts[j] = v.value
        expected = BranchVerdict.STABLE_ADMISSIBLE if j == 6 else BranchVerdict.UNSTABLE_WRONG_MODE
        ok &= v == expected

    ctx.progress("  running departure cross-check from the mode-4 branch ...")
    cfg = _departure_config(ctx)
    traj = simulate(cfg)
    dom, peaks = _protocol_outcome(traj)
    departed = dom == 6 and peaks == 3.0
    ok &= departed
    stable_set = sorted(j for j, v in verdicts.items() if v == "stable_admissible")
    detail = (
        f"stable verdict at modes {stable_set} (expected [6]); mode-4 branch state at "
        f"sigma={cfg.params.sigma:.4f} departed to mode {dom} with {peaks} peaks"
    )
    return ok, detail, {"verdicts": verdicts, "departure_mode": dom}


def run_reproduction(progress=None) -> list[CriterionResult]:
    """Run every criterion on the reference setup, in order."""
    ctx = ReproductionContext(progress=progress)
    results = []
    for fn in CRITERIA:
        try:
            res = fn(ctx)
        except ColonyKitError as exc:
            res = CriterionResult(fn.cid, fn.name, "fail", f"raised {exc}")
        results.append(res)
        if progress:
            progress(f"[{res.status.upper():4s}] {res.cid:2d} {res.name}: {res.detail}")
    return results


def format_report(results) -> str:
    lines = ["benchmark reproduction report", "=" * 64]
    for r in results:
        lines.append(f"[{r.status.upper():4s}] {r.cid:2d} {r.name}")
        lines.append(f"       {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append("=" * 64)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} criteria passed"
        + (f", {n_fail} failed" if n_fail else "")
    )
    return "\n".join(lines)
