"""Numerical toolkit for a 1-D bacterial colony model with
density-suppressed motility: linear stability and bifurcation structure of
the uniform state, weakly nonlinear approximate steady states with their
stability verdicts, full nonlinear time integration, and steady-state
branch continuation.
"""

from .asymptotics import (
    BranchVerdict,
    Expansion,
    epsilon_for_sigma,
    eta_by_quadrature,
    expansion_coefficients,
)
from .continuation import BranchCurve, BranchPoint, Termination, newton_steady, trace_branch
from .errors import (
    BlowUpError,
    BranchSideError,
    ColonyKitError,
    ConfigError,
    NewtonConvergenceError,
    NewtonError,
    NoInstabilityWindowError,
    NonpositiveSigma0Error,
    NoPositiveModesError,
    PositivityLossError,
    ResonantDenominatorError,
    ScanWindowError,
    SeedFailureError,
    SingularJacobianError,
)
from .linear_analysis import (
    BifurcationSummary,
    ModelParams,
    ModeInfo,
    StabilityKind,
    UniformStateClassification,
    bifurcation_sigma,
    classify_uniform_state,
    critical_sigma,
    dispersion_roots,
    eigenvalue_lambda,
    scan_modes,
)
from .motility import (
    ExponentialDecay,
    LogisticDecay,
    MotilityModel,
)
from .pde_solver import (
    AsymptoticMode,
    Event,
    ExplicitField,
    Field,
    ModalSpectrum,
    SimConfig,
    Trajectory,
    UniformPerturbed,
    count_peaks,
    modal_spectrum,
    simulate,
    stationary_residual,
)

__version__ = "0.1.0"
