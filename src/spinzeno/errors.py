"""Exception types shared across the package."""


class SpinZenoError(Exception):
    """Base class for all package errors."""


class DomainError(SpinZenoError, ValueError):
    """An argument is outside the physically meaningful domain."""


class DivergentKernelError(SpinZenoError):
    """The phi_R integral diverges; callers should take the B=0 branch."""


class QuadratureError(SpinZenoError):
    """Quadrature did not converge within the refinement budget."""

    def __init__(self, message, last_estimate=None, previous_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate


class DegenerateSystemError(SpinZenoError):
    """epsilon = delta_r = 0 leaves the effective Rabi frequency undefined."""


class TruncationError(SpinZenoError):
    """Fock-space truncation lost too much weight."""


class DimensionBudgetError(SpinZenoError):
    """Requested exact-diagonalization dimension exceeds the budget."""


class ConfigError(SpinZenoError):
    """A run configuration is malformed."""
