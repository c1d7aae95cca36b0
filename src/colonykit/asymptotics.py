"""Weakly nonlinear expansion of steady states near a bifurcation point.

Near the bifurcation value sigma0_j the steady state is expanded in a small
amplitude eps:

    u = 1 + eps * a * cos(s x) + eps**2 * (d1 + d2 * cos(2 s x)) + ...
    v = 1 + eps *     cos(s x) + eps**2 * (d3 + d4 * cos(2 s x)) + ...
    sigma = sigma0 + eps**2 * sigma2 + ...            (s = sqrt(lambda_j))

The first correction to sigma vanishes by solvability; the second-order
coefficients come from projecting the quadratic forcing onto the adjoint
kernel.  sigma2 < 0 means the branch bends backward (exists for
sigma < sigma0).  The admissible-mode branch is stable exactly when the
constant eta below is positive; branches of any other mode are unstable
regardless.

Two independent routes to eta are provided: the closed form, and a
quadrature of the adjoint projection of the second-order eigenvalue
forcing assembled term by term (``eta_by_quadrature``).  They must agree
to rounding; the quadrature is the oracle for the closed form.  It is the
trapezoid rule on QUADRATURE_POINTS nodes: every term of the forcing
carries an even number of first x-derivatives, so the integrand is a
cosine polynomial of low degree in pi x / l, which the rule integrates
exactly up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchSideError, NonpositiveSigma0Error, ResonantDenominatorError
from .linear_analysis import (
    BifurcationSummary,
    ModelParams,
    bifurcation_sigma,
    eigenvalue_lambda,
    scan_modes,
)
from .motility import MotilityModel, taylor_at_one

__all__ = [
    "BranchVerdict",
    "Expansion",
    "expansion_coefficients",
    "eta_by_quadrature",
    "epsilon_for_sigma",
]

# trapezoid nodes on [0, l] for the quadrature oracle
QUADRATURE_POINTS = 4097


class BranchVerdict(Enum):
    UNSTABLE_WRONG_MODE = "unstable_wrong_mode"
    STABLE_ADMISSIBLE = "stable_admissible"
    UNSTABLE_ADMISSIBLE = "unstable_admissible"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Expansion:
    """All second-order expansion data for one mode j.

    eta and gamma2 are populated only for the admissible mode (j == i_a);
    they quantify the slow eigenvalue gamma ~ eps**2 * gamma2 that decides
    the stability of the admissible branch.  verdict is the near-onset
    stability of the mode-j branch: unstable for any j != i_a, and for the
    admissible branch stable exactly when eta > 0.
    """

    j: int
    lambda_j: float
    sigma0: float
    sigma2: float
    a: float
    c: float
    d1: float
    d2: float
    d3: float
    d4: float
    eta: float | None
    gamma2: float | None
    verdict: BranchVerdict

    @property
    def wavenumber(self) -> float:
        return math.sqrt(self.lambda_j)


def _second_order_coefficients(lam, sigma0, a, r1, rp1, rpp1, rppp1, D):
    """d1..d4 and sigma2 from the solvability algebra at one mode."""
    d1 = -0.5 * a * a
    d3 = d1
    harmonic = lam * rpp1 + 2.0 * lam * rp1 * a + 0.5 * sigma0 * a * a
    denom = -4.0 * rp1 * lam + (-4.0 * r1 * lam - sigma0) * (1.0 + 4.0 * D * lam)
    scale = max(1.0, abs(4.0 * rp1 * lam), abs((4.0 * r1 * lam + sigma0) * (1.0 + 4.0 * D * lam)))
    if abs(denom) < 1e-10 * scale:
        raise ResonantDenominatorError(
            f"second-harmonic denominator {denom:.3e} is resonant at this mode"
        )
    d4 = harmonic / denom
    d2 = (1.0 + 4.0 * D * lam) * d4
    sigma2 = (
        -rpp1 * lam * (0.375 + d3 / a + d4 / (2.0 * a))
        - rp1 * lam * (d1 / a + d2 / (2.0 * a) + d4 / 2.0 + d3)
        - 2.0 * sigma0 * (d1 + 0.5 * d2)
        - rppp1 * lam / (8.0 * a)
    )
    return d1, d2, d3, d4, sigma2


def _eta_closed_form(lam, sigma0, sigma2, a, d1, d2, d3, d4, rp1, rpp1, rppp1):
    return (
        0.25 * rp1 * lam * (6.0 * d1 + 3.0 * d2 + (6.0 * d3 + 3.0 * d4) * a)
        + rpp1 * lam * (24.0 * d3 + 12.0 * d4 + 9.0 * a) / 16.0
        + 3.0 * rppp1 * lam / 16.0
        + 3.0 * sigma0 * a * (d1 + 0.5 * d2)
        + 0.5 * sigma2 * a
    )


def expansion_coefficients(
    j: int,
    p: ModelParams,
    m: MotilityModel,
    summary: BifurcationSummary | None = None,
) -> Expansion:
    """Closed-form expansion data for mode j.

    Requires sigma0_j > 0 (a bifurcation point exists) and a nonresonant
    second harmonic.  Pass a precomputed mode scan to avoid rescanning.
    """
    if summary is None:
        summary = scan_modes(p, m)
    lam = eigenvalue_lambda(j, p.l)
    sigma0 = bifurcation_sigma(j, p, m)
    if sigma0 <= 0:
        raise NonpositiveSigma0Error(
            f"mode {j} has bifurcation value {sigma0:.6g} <= 0; no branch emanates there"
        )
    r1, rp1, rpp1, rppp1 = taylor_at_one(m, 4)
    a = 1.0 + p.D * lam
    c = p.D * a / rp1
    d1, d2, d3, d4, sigma2 = _second_order_coefficients(lam, sigma0, a, r1, rp1, rpp1, rppp1, p.D)

    eta_val = None
    gamma2_val = None
    if j == summary.i_a:
        eta_val = _eta_closed_form(lam, sigma0, sigma2, a, d1, d2, d3, d4, rp1, rpp1, rppp1)
        # the adjoint normalization integral is negative whenever r'(1) < 0
        denom = 0.5 * p.l * (p.D * a * a / rp1 - p.D * lam)
        gamma2_val = -c * p.l * eta_val / denom
        if eta_val > 0:
            verdict = BranchVerdict.STABLE_ADMISSIBLE
        elif eta_val < 0:
            verdict = BranchVerdict.UNSTABLE_ADMISSIBLE
        else:
            verdict = BranchVerdict.INDETERMINATE
    else:
        verdict = BranchVerdict.UNSTABLE_WRONG_MODE

    return Expansion(
        j=j,
        lambda_j=lam,
        sigma0=sigma0,
        sigma2=sigma2,
        a=a,
        c=c,
        d1=d1,
        d2=d2,
        d3=d3,
        d4=d4,
        eta=eta_val,
        gamma2=gamma2_val,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# quadrature oracle for the solvability projections
# ---------------------------------------------------------------------------


class _PerturbationFields:
    """Ingredient fields of the eigenvalue perturbation hierarchy on a grid.

    Steady-state corrections (u1, v1), (u2, v2), the kernel eigenfunction
    pair (phi0, psi0), its first correction (phi1, psi1) with coefficients
    twice the d's, and the adjoint kernel component ubar = c * cos(s x).
    """

    def __init__(self, e: Expansion, x: np.ndarray):
        s = e.wavenumber
        cos1 = np.cos(s * x)
        sin1 = np.sin(s * x)
        cos2 = np.cos(2.0 * s * x)
        sin2 = np.sin(2.0 * s * x)
        lam = e.lambda_j

        self.v1 = cos1
        self.v1_x = -s * sin1
        self.v1_xx = -lam * cos1
        self.u1 = e.a * cos1
        self.u1_x = -e.a * s * sin1
        self.u1_xx = -e.a * lam * cos1

        self.u2 = e.d1 + e.d2 * cos2
        self.u2_x = -2.0 * s * e.d2 * sin2
        self.u2_xx = -4.0 * lam * e.d2 * cos2
        self.v2 = e.d3 + e.d4 * cos2
        self.v2_x = -2.0 * s * e.d4 * sin2
        self.v2_xx = -4.0 * lam * e.d4 * cos2

        self.phi0 = e.a * cos1
        self.phi0_x = -e.a * s * sin1
        self.phi0_xx = -e.a * lam * cos1
        self.psi0 = cos1
        self.psi0_x = -s * sin1
        self.psi0_xx = -lam * cos1

        self.phi1 = 2.0 * self.u2
        self.phi1_x = 2.0 * self.u2_x
        self.phi1_xx = 2.0 * self.u2_xx
        self.psi1 = 2.0 * self.v2
        self.psi1_x = 2.0 * self.v2_x
        self.psi1_xx = 2.0 * self.v2_xx

        self.ubar = e.c * cos1


def _second_order_eigen_forcing(e: Expansion, m: MotilityModel, f: _PerturbationFields):
    _, rp1, rpp1, rppp1 = taylor_at_one(m, 4)
    s0 = e.sigma0
    return (
        -rp1 * f.v1 * f.phi1_xx
        - rp1 * f.v2 * f.phi0_xx
        - 0.5 * rpp1 * f.v1 ** 2 * f.phi0_xx
        - rp1 * f.u1 * f.psi1_xx
        - rp1 * f.u2 * f.psi0_xx
        - rpp1 * f.v1 * f.psi1_xx
        - rpp1 * f.v1 * f.u1 * f.psi0_xx
        - rpp1 * f.v2 * f.psi0_xx
        - 0.5 * rppp1 * f.v1 ** 2 * f.psi0_xx
        - 2.0 * rp1 * f.v1_x * f.phi1_x
        - 2.0 * rp1 * f.v2_x * f.phi0_x
        - 2.0 * rpp1 * f.v1 * f.v1_x * f.phi0_x
        - 2.0 * rpp1 * f.v1_x * f.psi1_x
        - 2.0 * rpp1 * f.v1_x * f.u1 * f.psi0_x
        - 2.0 * rpp1 * f.v2_x * f.psi0_x
        - 2.0 * rppp1 * f.v1_x * f.v1 * f.psi0_x
        - 2.0 * rp1 * f.u1_x * f.psi1_x
        - 2.0 * rp1 * f.u2_x * f.psi0_x
        - 2.0 * rpp1 * f.u1_x * f.v1 * f.psi0_x
        - rppp1 * f.v1_x ** 2 * f.psi0
        - rpp1 * f.v1_xx * f.psi1
        - rpp1 * f.v1_xx * f.u1 * f.psi0
        - rpp1 * f.v2_xx * f.psi0
        - rppp1 * f.v1_xx * f.v1 * f.psi0
        - 2.0 * rpp1 * f.v1_x * f.u1_x * f.psi0
        - rp1 * f.u1_xx * f.psi1
        - rp1 * f.u2_xx * f.psi0
        - rpp1 * f.u1_xx * f.v1 * f.psi0
        - rpp1 * f.v1_x ** 2 * f.phi0
        - rp1 * f.v1_xx * f.phi1
        - rp1 * f.v2_xx * f.phi0
        - rpp1 * f.v1_xx * f.v1 * f.phi0
        + 2.0 * s0 * f.u1 * f.phi1
        + 2.0 * s0 * f.u2 * f.phi0
        + e.sigma2 * f.phi0
    )


def eta_by_quadrature(p: ModelParams, m: MotilityModel, summary: BifurcationSummary) -> float:
    """Independent route to eta: the trapezoid rule (module docstring) on the
    adjoint projection of the second-order eigenvalue forcing, divided by
    c * l."""
    e = expansion_coefficients(summary.i_a, p, m, summary)
    x = np.linspace(0.0, p.l, QUADRATURE_POINTS)
    f = _PerturbationFields(e, x)
    y = _second_order_eigen_forcing(e, m, f) * f.ubar
    integral = (y.sum() - 0.5 * (y[0] + y[-1])) * (x[1] - x[0])
    return float(integral / (e.c * p.l))


# ---------------------------------------------------------------------------
# approximate steady states and the amplitude law
# ---------------------------------------------------------------------------


def second_order_profiles(
    e: Expansion, epsilon: float, x: np.ndarray, u1_scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) arrays of the second-order approximate steady state on x.

    The sign of epsilon selects the pattern phase.  u1_scale rescales only
    the leading u-amplitude; simulation protocols use it to seed off-branch
    initial data.
    """
    s = e.wavenumber
    cos1 = np.cos(s * np.asarray(x, dtype=float))
    cos2 = np.cos(2.0 * s * np.asarray(x, dtype=float))
    u = 1.0 + epsilon * u1_scale * e.a * cos1 + epsilon ** 2 * (e.d1 + e.d2 * cos2)
    v = 1.0 + epsilon * cos1 + epsilon ** 2 * (e.d3 + e.d4 * cos2)
    return u, v


def epsilon_for_sigma(e: Expansion, sigma: float) -> float:
    """Invert sigma = sigma0 + eps**2 * sigma2 for the positive amplitude.

    Raises BranchSideError when sigma lies on the side of sigma0 where the
    branch does not exist (sigma2 < 0 means the branch bends backward).
    """
    ratio = (sigma - e.sigma0) / e.sigma2
    if ratio < 0:
        side = "below" if e.sigma2 < 0 else "above"
        raise BranchSideError(
            f"mode {e.j} branch exists only {side} sigma0={e.sigma0:.6g}; got sigma={sigma:.6g}"
        )
    return math.sqrt(ratio)

