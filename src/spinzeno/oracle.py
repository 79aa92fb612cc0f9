"""Exact lab-frame evolution of a small discretized bath.

Brute-force validation path: build the full lab-frame Hamiltonian on a
truncated Fock space and read off the survival probability without any
perturbation theory.  Zero temperature only.

The Hamiltonian is real symmetric, so one real eigendecomposition
H = V diag(E) V^T serves every tau.  The initial state is pure, so it is
propagated as a state vector, psi(tau) = V (exp(-i E tau) * V^T psi0):
O(d^2) per tau after the O(d^3) eigendecomposition.
"""

from dataclasses import dataclass

import numpy as np

from .bath import DiscreteBath
from .errors import DimensionBudgetError, DomainError, TruncationError
from .polaron import SIGMA_X, SIGMA_Z

DEFAULT_DIM_BUDGET = 4096
TRUNCATION_TOL = 1e-6  # largest weight a truncated coherent state may lose


@dataclass(frozen=True)
class TruncatedBathSpec:
    """Discrete bath plus per-mode Fock truncation (levels 0..n_max-1)."""

    bath: DiscreteBath
    n_max: int

    def __post_init__(self):
        if self.n_max < 3:
            raise DomainError("n_max must be at least 3")
        if self.dimension > DEFAULT_DIM_BUDGET:
            raise DimensionBudgetError(
                f"total dimension {self.dimension} exceeds budget "
                f"{DEFAULT_DIM_BUDGET}")

    @property
    def dimension(self):
        return 2 * self.n_max ** len(self.bath.modes)


def discretize_bath(J, K, omega_max):
    """Midpoint-rule discretization of a continuous spectral density.

    omega_k = (k - 1/2) d_omega with d_omega = omega_max / K and
    g_k = sqrt(J(omega_k) d_omega), so sum g_k^2/omega_k^2 cos(omega_k t)
    approximates phi_R(t) at zero temperature.
    """
    if K < 1:
        raise DomainError("mode count K must be at least 1")
    if omega_max <= 0.0:
        raise DomainError("omega_max must be positive")
    d_omega = omega_max / K
    omegas = (np.arange(K) + 0.5) * d_omega
    gs = np.sqrt(J.eval(omegas) * d_omega)
    return DiscreteBath(tuple(zip(omegas, gs)))


def _ladder(n_max):
    return np.diag(np.sqrt(np.arange(1, n_max)), 1)


def _mode_operator(op, mode_index, n_max, n_modes):
    """Embed a single-mode operator into the full bath tensor product."""
    out = np.eye(1)
    for k in range(n_modes):
        out = np.kron(out, op if k == mode_index else np.eye(n_max))
    return out


def build_lab_hamiltonian(sys, spec):
    """Dense real symmetric lab-frame Hamiltonian on the truncated space."""
    bath = spec.bath
    n_modes = len(bath.modes)
    n_max = spec.n_max
    dim_b = n_max ** n_modes
    eye_b = np.eye(dim_b)
    sx, sz = SIGMA_X.real, SIGMA_Z.real
    h = np.kron(0.5 * sys.epsilon * sz + 0.5 * sys.delta * sx, eye_b)
    a = _ladder(n_max)
    for k, (omega, g) in enumerate(bath.modes):
        ak = _mode_operator(a, k, n_max, n_modes)
        h += np.kron(np.eye(2), omega * (ak.T @ ak))
        h += np.kron(0.5 * sz, g * (ak + ak.T))
    return h


def _coherent_vector(alpha, n_max):
    """Truncated coherent state |alpha> for real alpha (a real vector)."""
    n = np.arange(n_max)
    if alpha == 0:
        coeff = np.zeros(n_max)
        coeff[0] = 1.0
    else:
        log_fact = np.cumsum(np.log(np.maximum(n, 1)))  # log(n!)
        coeff = np.sign(alpha) ** n * np.exp(
            -0.5 * alpha ** 2 + n * np.log(abs(alpha)) - 0.5 * log_fact)
    loss = 1.0 - np.sum(np.abs(coeff) ** 2)
    if loss > TRUNCATION_TOL:
        raise TruncationError(
            f"coherent state |alpha|={abs(alpha):.3g} loses weight "
            f"{loss:.3g} > {TRUNCATION_TOL:g} at n_max={n_max}")
    return coeff


def initial_vector_lab(sys, spec):
    """Lab-frame state vector of |up> x polaron vacuum at T = 0.

    The polaron-frame product state maps to |up> times coherent
    displacements -alpha_k/2 in the lab frame (normalized after
    truncation).  The vector is real.
    """
    vec = np.array([1.0])
    for alpha in spec.bath.alphas:
        vec = np.kron(vec, _coherent_vector(-0.5 * alpha, spec.n_max))
    full = np.kron(np.array([1.0, 0.0]), vec)
    return full / np.linalg.norm(full)


class ExactEvolution:
    """State-vector propagation in the real eigenbasis of the lab Hamiltonian.

    The decomposition H = V diag(E) V^T and the initial coefficients
    c0 = V^T psi0 are computed once; each tau then forms
    psi(tau) = V (exp(-i E tau) * c0) and reads the up-spin weight.
    Multiple tau evaluations reuse the decomposition read-only.
    """

    def __init__(self, sys, spec):
        self.sys = sys
        self.spec = spec
        self.h = build_lab_hamiltonian(sys, spec)
        self.evals, self.evecs = np.linalg.eigh(self.h)
        self._c0 = self.evecs.T @ initial_vector_lab(sys, spec)
        h_s = 0.5 * sys.epsilon * SIGMA_Z + 0.5 * sys.delta * SIGMA_X
        self._hs_evals, self._hs_evecs = np.linalg.eigh(h_s)

    def state(self, tau):
        """psi(tau) as a complex (2, dim_b) array: spin index first."""
        phase = self.evals * tau
        # one real product for the real and imaginary parts together
        parts = self.evecs @ np.stack((np.cos(phase) * self._c0,
                                       -np.sin(phase) * self._c0), axis=1)
        return (parts[:, 0] + 1j * parts[:, 1]).reshape(2, -1)

    def survival(self, tau, removed=False):
        """Up-spin probability at tau; `removed` first undoes U_S(tau)."""
        psi = self.state(tau)
        if removed:
            phase = np.exp(1j * self._hs_evals * tau)
            u_s_dag = (self._hs_evecs * phase) @ self._hs_evecs.conj().T
            psi = u_s_dag @ psi
        return float(np.sum(np.abs(psi[0]) ** 2))
