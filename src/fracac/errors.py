"""Exception types shared across the package."""


class FracacError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(FracacError):
    """Invalid grid, solver, or experiment configuration."""


class UnsupportedDimensionError(ConfigurationError):
    """Requested ambient dimension outside the supported range 1..3."""


class GridMismatchError(FracacError):
    """Two fields that must share a grid do not."""


class OutOfDomainError(FracacError):
    """Requested samples or stencils fall outside the defined region."""


class SingularityError(FracacError):
    """Kernel evaluated at the origin."""


class InstabilityError(FracacError):
    """A flow failed: a line search found no trial within the round-off
    slack of the last energy (any grid), or a periodic iterate from a seed
    in [-1, 1] left [-1, 1].  `energy_trace` holds the accepted energies."""

    def __init__(self, message, energy_trace=None):
        super().__init__(message)
        self.energy_trace = list(energy_trace) if energy_trace is not None else []


class NotConvergedError(FracacError):
    """Iteration failed to reach the requested tolerance."""


class FlowError(FracacError):
    """Integral flow of a vector field degenerated (non-positive Jacobian)."""
