"""Polaron-frame system parameters and rotation coefficients.

The free polaron-frame Hamiltonian is H_S = (eps/2) sigma_z
+ (delta_r/2) sigma_x with delta_r = delta * B, and all coefficient
functions below follow from conjugation with U_S(t) = exp(-i H_S t).
The effective Rabi frequency is Omega_r = sqrt(eps^2 + delta_r^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystemError, DomainError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SystemParams:
    """Two-level-system parameters: bias eps and tunneling delta.

    The temperature belongs to the bath: see BathKernel.beta.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not -np.inf < self.epsilon < np.inf:     # NaN fails too
            raise DomainError("bias epsilon must be finite")
        if not 0.0 <= self.delta < np.inf:
            raise DomainError("tunneling delta must be finite and nonnegative")


@dataclass(frozen=True)
class PolaronParams:
    """Derived polaron-frame quantities (delta_r, Omega_r)."""

    epsilon: float
    delta_r: float
    omega_r: float

    @property
    def nx(self):
        return self.delta_r / self.omega_r

    @property
    def nz(self):
        return self.epsilon / self.omega_r

    def with_small_delta(self):
        """Coefficient set of the small-delta reduction (delta_r -> 0)."""
        if self.epsilon == 0.0:
            raise DegenerateSystemError(
                "small-delta reduction needs epsilon != 0")
        return PolaronParams(self.epsilon, 0.0, abs(self.epsilon))


def renormalize(sys, kernel):
    """Polaron parameters for a system coupled through the given kernel."""
    delta_r = sys.delta * kernel.coherence_b()
    omega_r = float(np.hypot(sys.epsilon, delta_r))
    if omega_r == 0.0:
        raise DegenerateSystemError(
            "epsilon = delta_r = 0: effective Rabi frequency vanishes")
    return PolaronParams(sys.epsilon, delta_r, omega_r)


def rot_coeffs(p, t):
    """Coefficients of U_S^dag sigma_{x,y} U_S in the Pauli basis.

    Returns (a_x, a_y, a_z, b_x, b_y, b_z), vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    w, nz, nx = p.omega_r, p.nz, p.nx
    s2 = np.sin(0.5 * w * t) ** 2
    sn = np.sin(w * t)
    # written in nz, nx so that no factor 1/omega_r^2 can overflow
    a_x = 1.0 - 2.0 * nz ** 2 * s2
    a_y = -nz * sn
    a_z = 2.0 * nz * nx * s2
    b_x = nz * sn
    b_y = np.cos(w * t)
    b_z = -nx * sn
    return a_x, a_y, a_z, b_x, b_y, b_z
