"""Dense reference for the exact oracle: the d x d lab-frame Hamiltonian
and its eigendecomposition.

spinzeno.oracle applies H to the state without a matrix and propagates
with a Chebyshev series.  This module keeps the former dense path, which
the tests use as the cross-check: `build_lab_hamiltonian` against
`LabHamiltonian @ v`, and `DenseEvolution.survival` against
`ExactEvolution.survival`.
"""

import numpy as np

from spinzeno.oracle import initial_vector_lab
from spinzeno.polaron import SIGMA_X, SIGMA_Z


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


class DenseEvolution:
    """State-vector propagation in the real eigenbasis of the dense H.

    H = V diag(E) V^T and c0 = V^T psi0 are computed once; each tau forms
    psi(tau) = V (exp(-i E tau) * c0) and reads the up-spin weight.
    """

    def __init__(self, sys, spec):
        self.h = build_lab_hamiltonian(sys, spec)
        self.evals, self.evecs = np.linalg.eigh(self.h)
        self._c0 = self.evecs.T @ initial_vector_lab(spec)
        h_s = 0.5 * sys.epsilon * SIGMA_Z + 0.5 * sys.delta * SIGMA_X
        self._hs_evals, self._hs_evecs = np.linalg.eigh(h_s)

    def state(self, tau):
        """psi(tau) as a complex (2, dim_b) array: spin index first."""
        phase = self.evals * tau
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
