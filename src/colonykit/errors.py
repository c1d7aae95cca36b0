"""Exception hierarchy shared across the toolkit."""


class ColonyKitError(Exception):
    """Base class for all toolkit errors."""


class NoInstabilityWindowError(ColonyKitError):
    """r'(1) + r(1) >= 0: the uniform state has no unstable band of modes."""


class ScanWindowError(ColonyKitError):
    """Mode scan ended while bifurcation values were still positive, or its
    window would exceed MAX_SCAN_MODES modes."""


class NoPositiveModesError(ColonyKitError):
    """No grid mode has a positive bifurcation value (no bifurcation points)."""


class NonpositiveSigma0Error(ColonyKitError):
    """Requested expansion at a mode whose bifurcation value is not positive."""


class ResonantDenominatorError(ColonyKitError):
    """Second-harmonic solvability denominator vanishes; expansion invalid."""


class BranchSideError(ColonyKitError):
    """Requested growth rate lies on the wrong side of the bifurcation point."""


class PositivityLossError(ColonyKitError):
    """A time step drove the bacterial density or signal nonpositive."""


class BlowUpError(ColonyKitError):
    """Solution norm exceeded the configured bound during time stepping."""


class NewtonError(ColonyKitError):
    """Base class for steady-state Newton solver failures."""


class NewtonConvergenceError(NewtonError):
    """Newton iteration exceeded its budget or produced non-finite values."""


class SingularJacobianError(NewtonError):
    """Linearization of the stationary system is (numerically) singular."""


class SeedFailureError(ColonyKitError):
    """Branch tracing could not converge its first point."""


class ConfigError(ColonyKitError):
    """Experiment configuration failed validation."""
