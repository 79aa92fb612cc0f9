"""Exception types shared across the package."""


class SpinZenoError(Exception):
    """Base class for all package errors."""


class DomainError(SpinZenoError, ValueError):
    """An argument is outside the physically meaningful domain."""


class DivergentKernelError(SpinZenoError):
    """The coth-weighted finite-temperature phi_I sum diverges (s <= 1)."""


class QuadratureError(SpinZenoError):
    """Quadrature did not converge within the refinement budget."""


class DegenerateSystemError(SpinZenoError):
    """epsilon = delta_r = 0 leaves the effective Rabi frequency undefined."""


class OutOfRegimeError(SpinZenoError):
    """The survival probability left (0, 1], so the point has no rate."""


class TruncationError(SpinZenoError):
    """Fock-space truncation lost too much weight."""


class DimensionBudgetError(SpinZenoError):
    """Requested exact-diagonalization dimension exceeds the budget."""


class ConfigError(SpinZenoError):
    """A run configuration is malformed."""
