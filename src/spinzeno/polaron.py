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
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class SystemParams:
    """Two-level-system parameters: bias eps and tunneling delta.

    The temperature belongs to the bath: see BathKernel.beta.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if self.delta < 0.0:
            raise DomainError("tunneling amplitude delta must be nonnegative")


@dataclass(frozen=True)
class PolaronParams:
    """Derived polaron-frame quantities (delta_r, Omega_r, B)."""

    epsilon: float
    delta_r: float
    omega_r: float
    b_factor: float

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
        return PolaronParams(self.epsilon, 0.0, abs(self.epsilon),
                             self.b_factor)


def renormalize(sys, kernel):
    """Polaron parameters for a system coupled through the given kernel."""
    b = kernel.coherence_b()
    delta_r = sys.delta * b
    omega_r = float(np.hypot(sys.epsilon, delta_r))
    if omega_r == 0.0:
        raise DegenerateSystemError(
            "epsilon = delta_r = 0: effective Rabi frequency vanishes")
    return PolaronParams(sys.epsilon, delta_r, omega_r, b)


def rot_coeffs(p, t):
    """Coefficients of U_S^dag sigma_{x,y} U_S in the Pauli basis.

    Returns (a_x, a_y, a_z, b_x, b_y, b_z), vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    w = p.omega_r
    s2 = np.sin(0.5 * w * t) ** 2
    sn = np.sin(w * t)
    a_x = 1.0 - 2.0 * p.epsilon ** 2 / w ** 2 * s2
    a_y = -(p.epsilon / w) * sn
    a_z = 2.0 * p.epsilon * p.delta_r / w ** 2 * s2
    b_x = (p.epsilon / w) * sn
    b_y = np.cos(w * t)
    b_z = -(p.delta_r / w) * sn
    return a_x, a_y, a_z, b_x, b_y, b_z


def u_s_matrix(p, tau):
    """Free polaron-frame propagator U_S(tau) as an explicit 2x2 unitary."""
    half = 0.5 * p.omega_r * tau
    return (np.cos(half) * np.eye(2, dtype=complex)
            - 1j * np.sin(half) * (p.nx * SIGMA_X + p.nz * SIGMA_Z))
