"""A K-mode discrete bath from the Gauss rule for the weight J(w)/w^2.

With x = w/w_c, J(w)/w^2 dw = G x^(s-2) e^(-x) dx for the Ohmic family
J(w) = G w^s w_c^(1-s) e^(-w/w_c): the generalized Laguerre weight with
alpha = s - 2 and total mass G Gamma(s - 1), so the rule needs s > 1.
Its nodes x_k and weights mu_0 v_0k^2 come from the eigenpairs of the
symmetric Jacobi matrix, diagonal 2n + alpha + 1 and off-diagonal
sqrt(n (n + alpha)) (Golub & Welsch, Math. Comp. 23, 221, 1969).  Mode k
has w_k = w_c x_k, alpha_k^2 = G Gamma(s - 1) v_0k^2 and g_k = w_k alpha_k.

A K-point rule integrates the first 2K moments of the weight exactly, so
phi_R(0) = sum_k alpha_k^2 = G Gamma(s - 1), and with it B, is exact at
every K, and the T = 0 kernel sum_k alpha_k^2 e^(-i w_k t) matches the
continuum through t^(2K - 1).  This is an independent discretization of
the continuum kernel: it shares no code with BathKernel's closed forms.
"""

import math

import numpy as np

from spinzeno import DiscreteBath


def gauss_bath(J, K):
    """The K-mode Gauss-rule DiscreteBath of the SpectralDensity J (s > 1)."""
    if not (K >= 1 and J.s > 1.0):
        raise ValueError("the rule needs K >= 1 and s > 1")
    alpha = J.s - 2.0
    n = np.arange(1, K)
    jacobi = np.diag(2.0 * np.arange(K) + alpha + 1.0) \
        + np.diag(np.sqrt(n * (n + alpha)), 1) \
        + np.diag(np.sqrt(n * (n + alpha)), -1)
    x, v = np.linalg.eigh(jacobi)
    omegas = J.omega_c * x
    alphas = np.sqrt(J.G * math.gamma(J.s - 1.0)) * np.abs(v[0])
    return DiscreteBath(tuple(zip(omegas, omegas * alphas)))
