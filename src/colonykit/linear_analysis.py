"""Linear stability of the uniform state and the bifurcation-value structure.

Perturbing the uniform steady state (u, v) = (1, 1) with a Neumann cosine
mode of eigenvalue lam gives a quadratic dispersion relation for the growth
rate rho:

    rho**2 + [(D + r(1)) lam + 1 + sigma] rho
           + [sigma + r(1) lam] (1 + D lam) + r'(1) lam = 0.

Its roots are real for a decreasing r: with A = sigma + r(1) lam and
B = 1 + D lam the coefficients are b = A + B and c = A B + r'(1) lam, so
the discriminant is

    b**2 - 4 c = (sigma + r(1) lam - 1 - D lam)**2 - 4 r'(1) lam >= 0,

and b >= 1.  The uniform state therefore loses stability only where the
constant coefficient c changes sign, and c vanishes exactly at the
bifurcation value

    sigma_j = -[r'(1) / (1 + D lam_j) + r(1)] lam_j,    lam_j = (pi j / l)**2,

where a steady-state branch of mode j emanates from the trivial branch.
Treating lam as a continuous variable, sigma(lam) attains its maximum
sigma_c at lam_star; the grid maximum sigma_a = sigma_{i_a} defines the
admissible wave mode i_a, the only candidate for a stable small pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoInstabilityWindowError, NoPositiveModesError, ScanWindowError
from .motility import MotilityModel, taylor_at_one

__all__ = [
    "ModelParams",
    "ModeInfo",
    "BifurcationSummary",
    "StabilityKind",
    "UniformStateClassification",
    "eigenvalue_lambda",
    "bifurcation_sigma",
    "dispersion_roots",
    "critical_sigma",
    "scan_modes",
    "classify_uniform_state",
]

# from this length up, (pi j / l)^2 for every j <= MAX_SCAN_MODES and a grid's
# h^2 stay well inside the float range; at l = 1e-300 the first overflowed and
# the second underflowed to 0
L_MIN = 1e-100
# a scan this wide takes about 1 s (2-vCPU Xeon); l = 1e12 asked for 1e12 modes
MAX_SCAN_MODES = 100_000


@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters: signal diffusivity D, growth rate sigma, length l."""

    D: float = 1.0
    sigma: float = 0.3
    l: float = 20.0

    def __post_init__(self):
        if not (math.isfinite(self.D) and self.D > 0):
            raise ValueError(f"D must be finite and > 0, got {self.D}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (math.isfinite(self.l) and self.l >= L_MIN):
            raise ValueError(f"l must be finite and >= {L_MIN:g}, got {self.l}")


@dataclass(frozen=True)
class ModeInfo:
    """Spectral data for one cosine mode at the current parameters."""

    j: int
    lambda_j: float
    sigma_j: float
    a_j: float  # kernel u-amplitude 1 + D * lambda_j
    rho_pair: tuple[complex, complex]  # dispersion roots at params.sigma


@dataclass(frozen=True)
class BifurcationSummary:
    """Aggregate critical quantities from a scan over grid modes."""

    modes: tuple[ModeInfo, ...]
    i_c: int            # largest j with sigma_j > 0
    i_a: int            # argmax of sigma_j (smallest j on ties)
    sigma_a: float      # sigma_{i_a}
    sigma_c: float      # continuum envelope maximum of sigma(lam)
    lambda_star: float  # maximizing eigenvalue of the envelope
    ordering: tuple[int, ...]  # mode indices sorted by ascending sigma_j

    def mode(self, j: int) -> ModeInfo:
        if not 1 <= j <= len(self.modes):
            raise ValueError(f"mode {j} outside scanned range 1..{len(self.modes)}")
        return self.modes[j - 1]


def eigenvalue_lambda(j: int, l: float) -> float:
    """Neumann Laplacian eigenvalue (pi j / l)**2 on an interval of length l."""
    if j < 0:
        raise ValueError(f"mode index must be >= 0, got {j}")
    if l <= 0:
        raise ValueError(f"l must be > 0, got {l}")
    return (math.pi * j / l) ** 2


def bifurcation_sigma(j: int, p: ModelParams, m: MotilityModel) -> float:
    """Growth rate at which mode j's dispersion root crosses zero."""
    if j < 1:
        raise ValueError(f"mode index must be >= 1, got {j}")
    return _bifurcation_sigma(eigenvalue_lambda(j, p.l), p, *taylor_at_one(m, 2))


def dispersion_roots(lam: float, p: ModelParams, m: MotilityModel) -> tuple[complex, complex]:
    """Both growth-rate roots for eigenvalue lam, in descending order.

    The roots are real, since r is decreasing: the discriminant equals
    (sigma + r(1) lam - 1 - D lam)**2 - 4 r'(1) lam >= 0 (module
    docstring).  Each is returned as a complex with zero imaginary part.
    """
    if lam < 0:
        raise ValueError(f"eigenvalue must be >= 0, got {lam}")
    return _dispersion_roots(lam, p, *taylor_at_one(m, 2))


def _bifurcation_sigma(lam: float, p: ModelParams, r1: float, rp1: float) -> float:
    return -(rp1 / (1.0 + p.D * lam) + r1) * lam


def _dispersion_roots(lam: float, p: ModelParams, r1: float, rp1: float) -> tuple[complex, complex]:
    b = (p.D + r1) * lam + 1.0 + p.sigma
    c = (p.sigma + r1 * lam) * (1.0 + p.D * lam) + rp1 * lam
    # b >= 1 and b^2 - 4c >= 0 (module docstring); a negative value is
    # rounding.  The large-magnitude root first avoids cancellation.
    q = -0.5 * (b + math.sqrt(max(b * b - 4.0 * c, 0.0)))
    return tuple(sorted((complex(q), complex(c / q)), key=lambda z: -z.real))


def critical_sigma(p: ModelParams, m: MotilityModel) -> tuple[float, float]:
    """Envelope maximum (sigma_c, lambda_star) of sigma(lam) over real lam.

    Requires r'(1) + r(1) < 0; otherwise no eigenvalue destabilizes the
    uniform state and NoInstabilityWindowError is raised.
    """
    return _critical_sigma(p, *taylor_at_one(m, 2))


def _critical_sigma(p: ModelParams, r1: float, rp1: float) -> tuple[float, float]:
    if rp1 + r1 > 0:
        raise NoInstabilityWindowError(
            f"r'(1) + r(1) = {rp1 + r1:.6g} > 0: uniform state stable for every growth rate"
        )
    # the balanced case r'(1) = -r(1) is the boundary: an empty window at 0
    lambda_star = (math.sqrt(-rp1 / r1) - 1.0) / p.D
    sigma_c = (math.sqrt(-rp1) - math.sqrt(r1)) ** 2 / p.D
    return sigma_c, lambda_star


def _scan_window(p: ModelParams, r1: float, rp1: float, j_max: int | None) -> int:
    """The last mode of a scan: j_max, or by default a window covering the
    unstable band with margin.

    sigma_j < 0 once lam_j exceeds a few multiples of lambda_star, so four
    times the mode count reaching lambda_star is a safe ceiling.  Falls back
    to a small fixed window when no instability band exists.  Raises
    ScanWindowError for a window of more than MAX_SCAN_MODES modes.
    """
    if j_max is None:
        if rp1 + r1 >= 0:
            least, factor, reach = 16, 2, p.l / math.pi
        else:
            _, lambda_star = _critical_sigma(p, r1, rp1)
            least, factor, reach = 4, 4, p.l * math.sqrt(lambda_star) / math.pi
        # reach may be inf: clipped at the cap, the window still exceeds it
        j_max = max(least, factor * math.ceil(min(MAX_SCAN_MODES, reach)))
    if j_max > MAX_SCAN_MODES:
        raise ScanWindowError(f"the scan window exceeds MAX_SCAN_MODES = {MAX_SCAN_MODES} modes")
    return j_max


def scan_modes(p: ModelParams, m: MotilityModel, j_max: int | None = None) -> BifurcationSummary:
    """Compute per-mode bifurcation data for j = 1..j_max and the aggregates.

    Raises ScanWindowError if sigma_{j_max} is still positive (cannot
    bracket i_c) or the window is wider than MAX_SCAN_MODES, and
    NoPositiveModesError if no grid mode has a positive bifurcation value.
    """
    r1, rp1 = taylor_at_one(m, 2)
    sigma_c, lambda_star = _critical_sigma(p, r1, rp1)  # also enforces the window precondition
    j_max = _scan_window(p, r1, rp1, j_max)
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")

    modes = []
    for j in range(1, j_max + 1):
        lam = eigenvalue_lambda(j, p.l)
        modes.append(
            ModeInfo(
                j=j,
                lambda_j=lam,
                sigma_j=_bifurcation_sigma(lam, p, r1, rp1),
                a_j=1.0 + p.D * lam,
                rho_pair=_dispersion_roots(lam, p, r1, rp1),
            )
        )

    sigmas = np.array([mi.sigma_j for mi in modes])
    if sigmas[-1] > 0:
        raise ScanWindowError(
            f"sigma_j still positive at j_max={j_max}; enlarge the scan window"
        )
    positive = np.flatnonzero(sigmas > 0)
    if positive.size == 0:
        raise NoPositiveModesError("no grid mode has a positive bifurcation value")
    i_c = int(positive[-1]) + 1
    i_a = int(np.argmax(sigmas)) + 1  # argmax returns the first (smallest j) on ties
    ordering = tuple(int(k) + 1 for k in np.argsort(sigmas, kind="stable"))
    return BifurcationSummary(
        modes=tuple(modes),
        i_c=i_c,
        i_a=i_a,
        sigma_a=float(sigmas[i_a - 1]),
        sigma_c=sigma_c,
        lambda_star=lambda_star,
        ordering=ordering,
    )


class StabilityKind(Enum):
    STABLE_BY_MONOTONICITY = "stable_by_monotonicity"
    STABLE_BY_LARGE_SIGMA = "stable_by_large_sigma"
    UNSTABLE = "unstable"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class UniformStateClassification:
    kind: StabilityKind
    unstable_modes: tuple[int, ...]
    max_growth_rate: float


def classify_uniform_state(
    p: ModelParams, m: MotilityModel, j_max: int | None = None
) -> UniformStateClassification:
    """Classify the uniform state (1, 1) at the current growth rate.

    Sufficient stability conditions are tried first (monotone motility
    balance, then large growth rate); otherwise grid modes with positive
    growth are listed.  A growth rate between the grid maximum sigma_a and
    the envelope maximum sigma_c can leave no grid mode unstable while no
    stability criterion applies; that window reports INDETERMINATE.
    """
    r1, rp1 = taylor_at_one(m, 2)
    j_max = _scan_window(p, r1, rp1, j_max)

    rates = {}
    for j in range(0, j_max + 1):
        lam = eigenvalue_lambda(j, p.l)
        rates[j] = _dispersion_roots(lam, p, r1, rp1)[0].real
    max_rate = max(rates.values())
    unstable = tuple(j for j in range(1, j_max + 1) if rates[j] > 0)

    if rp1 + r1 >= 0:
        kind = StabilityKind.STABLE_BY_MONOTONICITY
    elif p.sigma * p.D > -(rp1 + r1) or p.sigma > _critical_sigma(p, r1, rp1)[0]:
        kind = StabilityKind.STABLE_BY_LARGE_SIGMA
    elif unstable:
        kind = StabilityKind.UNSTABLE
    else:
        kind = StabilityKind.INDETERMINATE
    return UniformStateClassification(kind=kind, unstable_modes=unstable, max_growth_rate=max_rate)
