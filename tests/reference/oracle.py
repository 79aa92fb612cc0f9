"""Dense reference for the exact oracle: the d x d lab-frame Hamiltonian
and its eigendecomposition.

spinzeno.oracle applies H to the state without a matrix, on the bath
states of total excitation at most n_max - 1, and propagates with a
Chebyshev series.  This module builds H and the initial state densely in
the product basis of n_max levels per mode, with Kronecker products, and
restricts both to the states of total excitation at most n_max - 1,
which it finds by its own enumeration of the product basis;
`restrict=False` keeps the whole product basis.  The tests use it as the
cross-check: `build_lab_hamiltonian` against `LabHamiltonian @ v`,
`initial_vector` against `initial_vector_lab`, and
`DenseEvolution.survival` against `ExactEvolution.survival`.
"""

import itertools

import numpy as np

from spinzeno.oracle import _coherent_vector
from spinzeno.polaron import SIGMA_X, SIGMA_Z


def _mode_operator(op, mode_index, n_max, n_modes):
    """Embed a single-mode operator into the full bath tensor product."""
    out = np.eye(1)
    for k in range(n_modes):
        out = np.kron(out, op if k == mode_index else np.eye(n_max))
    return out


def kept_states(n_modes, n_max):
    """Product-basis indices, spin index first, of the bath states whose
    total excitation is at most n_max - 1, in product-basis order."""
    bath = [i for i, occupation in enumerate(
        itertools.product(range(n_max), repeat=n_modes))
        if sum(occupation) <= n_max - 1]
    return np.array(bath + [n_max ** n_modes + i for i in bath])


def build_lab_hamiltonian(sys, spec, restrict=True):
    """Dense real symmetric lab-frame Hamiltonian on the truncated space."""
    bath = spec.bath
    n_modes = len(bath.modes)
    n_max = spec.n_max
    eye_b = np.eye(n_max ** n_modes)
    sx, sz = SIGMA_X.real, SIGMA_Z.real
    h = np.kron(0.5 * sys.epsilon * sz + 0.5 * sys.delta * sx, eye_b)
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1)
    number = np.diag(np.arange(n_max))
    for k, (omega, g) in enumerate(bath.modes):
        ak = _mode_operator(a, k, n_max, n_modes)
        h += np.kron(np.eye(2),
                     omega * _mode_operator(number, k, n_max, n_modes))
        h += np.kron(0.5 * sz, g * (ak + ak.T))
    if restrict:
        keep = kept_states(n_modes, n_max)
        h = h[np.ix_(keep, keep)]
    return h


def initial_vector(spec, restrict=True):
    """|up> x the coherent displacements -alpha_k/2, normalized after
    the truncation."""
    vec = np.array([1.0])
    for alpha in spec.bath.alphas:
        vec = np.kron(vec, _coherent_vector(-0.5 * alpha, spec.n_max))
    full = np.kron(np.array([1.0, 0.0]), vec)
    if restrict:
        full = full[kept_states(len(spec.bath.modes), spec.n_max)]
    return full / np.linalg.norm(full)


class DenseEvolution:
    """State-vector propagation in the real eigenbasis of the dense H.

    H = V diag(E) V^T and c0 = V^T psi0 are computed once; each tau forms
    psi(tau) = V (exp(-i E tau) * c0) and reads the up-spin weight.
    """

    def __init__(self, sys, spec, restrict=True):
        self.h = build_lab_hamiltonian(sys, spec, restrict)
        self.evals, self.evecs = np.linalg.eigh(self.h)
        self._c0 = self.evecs.T @ initial_vector(spec, restrict)
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
