"""Slow matrix reconstruction of the second-order survival probability.

This path rebuilds the survival expressions directly from the operator
expansion (explicit 2x2 propagators, operator products, bath correlation
functions) without using the closed-form scalar integrands.  The tests
use it to arbitrate between the closed-form integrand variants and as a
cross-check of spinzeno.survival.survival_prob.  The kernel exponent
`phi` and the closed-form propagator `u_s_matrix` are the references the
kernel and rotation-coefficient tests compare against.
"""

import numpy as np

from spinzeno.errors import DomainError
from spinzeno.polaron import SIGMA_X, SIGMA_Z, renormalize
from spinzeno.survival import SurvivalMode

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def phi(kernel, t):
    """phi(t) = phi_R(t) - i*phi_I(t) of a convergent `kernel`."""
    psi, phi_i = kernel.phi_parts(t)
    return (kernel.phi_r0() - psi) - 1j * phi_i


def u_s_matrix(p, tau):
    """Free polaron-frame propagator U_S(tau) as an explicit 2x2 unitary."""
    half = 0.5 * p.omega_r * tau
    return (np.cos(half) * np.eye(2, dtype=complex)
            - 1j * np.sin(half) * (p.nx * SIGMA_X + p.nz * SIGMA_Z))


def correlation(kernel, index_pair, t):
    """Environment correlation C_11 or C_22 of `kernel` at time t.

    C11 = (B^2/2)(e^phi + e^-phi - 2) and C22 = (B^2/2)(e^phi - e^-phi),
    assembled from the scaled exponentials so the B -> 0 limit is exact.
    """
    if index_pair not in (11, 22):
        raise DomainError("index_pair must be 11 or 22")
    e_plus, e_minus = kernel.scaled_exponentials(t)
    if index_pair == 11:
        b2 = kernel.coherence_b() ** 2
        return 0.5 * (e_plus + e_minus - 2.0 * b2)
    return 0.5 * (e_plus - e_minus)


class _FreeEvolution:
    """U_S(t) via eigendecomposition of H_S = eps/2 sz + delta_r/2 sx."""

    def __init__(self, epsilon, delta_r):
        h = 0.5 * epsilon * SIGMA_Z + 0.5 * delta_r * SIGMA_X
        self.evals, self.evecs = np.linalg.eigh(h)

    def u(self, t):
        phase = np.exp(-1j * self.evals * t)
        return (self.evecs * phase) @ self.evecs.conj().T

    def heisenberg(self, op, t):
        u = self.u(t)
        return u.conj().T @ op @ u


def reconstruct_survival(mode, sys, kernel, tau, order=96):
    """Survival probability by direct operator assembly (reference path)."""
    mode = SurvivalMode(mode)
    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    evo = _FreeEvolution(pc.epsilon, pc.delta_r)
    half_delta = 0.5 * sys.delta
    rho0 = np.outer(UP, UP.conj())

    x, w = np.polynomial.legendre.leggauss(order)
    t1 = 0.5 * tau * (x + 1.0)
    w1 = 0.5 * tau * w

    def corr(idx, t):
        return complex(correlation(kernel, idx, t))

    f_ops = {}

    def f_tilde(mu, t):
        key = (mu, float(t))
        if key not in f_ops:
            op = SIGMA_X if mu == 0 else SIGMA_Y
            f_ops[key] = half_delta * evo.heisenberg(op, t)
        return f_ops[key]

    if not mode.removed:
        u_tau = evo.u(tau)
        u_state = u_tau.conj().T @ DOWN
        acc = np.zeros((2, 2), dtype=complex)
        for i, ti in enumerate(t1):
            t2 = 0.5 * ti * (x + 1.0)
            w2 = 0.5 * ti * w
            for j, tj in enumerate(t2):
                for mu, idx in ((0, 11), (1, 22)):
                    c = corr(idx, ti - tj)
                    fi = f_tilde(mu, ti)
                    fj = f_tilde(mu, tj)
                    term = c * (fj @ rho0 @ fi - fi @ fj @ rho0)
                    acc += w1[i] * w2[j] * (term + term.conj().T)
        deficit = u_state.conj() @ (rho0 + acc) @ u_state
        if mode.small_delta:
            # oscillation term of the reduction: true delta_r amplitude,
            # frequency collapsed to |epsilon|
            deficit = deficit + (p_full.delta_r / pc.omega_r) ** 2 \
                * np.sin(0.5 * pc.omega_r * tau) ** 2
        return float(1.0 - np.real(deficit))

    # Removed evolution: only the sandwich terms reach <down| X |down>;
    # the non-sandwich terms carry rho0 adjacent to the projector and
    # vanish identically.
    def element(mu, t):
        return DOWN.conj() @ f_tilde(mu, t) @ UP

    total = 0.0 + 0.0j
    for i, ti in enumerate(t1):
        for j, tj in enumerate(t1):
            for mu, idx in ((0, 11), (1, 22)):
                c = (corr(idx, tj - ti) + corr(idx, 0.0)
                     - corr(idx, tj - tau) - corr(idx, tau - ti))
                total += w1[i] * w1[j] * element(mu, ti) \
                    * np.conj(element(mu, tj)) * c
    return float(1.0 - np.real(total))
