"""Exact short-time sum rules of the survival probability.

The coupling is sigma_z-type, so the Taylor series of s(tau) follows from
nested commutators of the lab Hamiltonian with P_up, for any bath and
temperature.  The initial bath state is thermal for the up-spin bath
Hamiltonian, so with X = sum_k (g_k/2)(b_k + b_k^dag) it has
<X> = -E_R/2 and Var X = V_beta/4, where

    E_R = int J(w)/w dw          (sum g_k^2/w_k for a discrete bath),
    V_beta = int J(w) coth(beta w/2) dw   (sum g_k^2 coth(beta w_k/2)).

Then s = 1 + c2 tau^2 + c4 tau^4 + O(tau^5) with c2 = -delta^2/4 and

- full:  c4 = delta^2 [(eps - E_R)^2 + V_beta + delta^2] / 48, from the
  second-order transition probability (delta/2)^2 int int F(t - t'),
  F(u) = <e^{i H_up u} e^{-i H_dn u}>, whose second moment is
  <(eps + 2X)^2>, plus the bare two-level delta^4 tau^4/48;
- small_delta: the same without the delta^2 in the bracket, since the
  mode is exactly O(delta^2);
- removed modes: c2 = 0 and c4 = -delta^2 (V_beta + E_R^2) / 16.  With
  W = U_S^dag e^{-iH tau}, dW/dtau = -i H_R(tau) W, where the interaction
  picture sigma_z(tau) = sigma_z + delta tau sigma_y + O(tau^2) makes the
  down amplitude delta tau^2 X / 2 + O(tau^3), so 1 - s =
  delta^2 tau^4 <X^2> / 4.  Every further power of delta brings a power
  of tau, so no delta^4 term reaches tau^4.

For the Ohmic family J(w) = G w^s wc^(1-s) e^{-w/wc}, E_R = G wc Gamma(s)
and V_beta = G wc^2 Gamma(s+1) [2 x^-(s+1) zeta(s+1, 1/x) - 1] with
x = beta wc and the Hurwitz zeta (the coth as 1 + 2 sum_n e^{-n beta w});
at T = 0, V = G wc^2 Gamma(s+1).  All are finite for every s > 0.
"""

import math

import mpmath
import numpy as np

from spinzeno import DiscreteBath, SurvivalMode


def reorganization_energy(source):
    """E_R = int J(w)/w dw."""
    if isinstance(source, DiscreteBath):
        return float(np.sum(source.couplings ** 2 / source.omegas))
    return source.G * source.omega_c * math.gamma(source.s)


def fluctuation(source, beta):
    """V_beta = int J(w) coth(beta w/2) dw; beta None is T = 0."""
    if isinstance(source, DiscreteBath):
        coth = 1.0 if beta is None \
            else 1.0 / np.tanh(0.5 * beta * source.omegas)
        return float(np.sum(source.couplings ** 2 * coth))
    s, wc = source.s, source.omega_c
    bracket = 1.0
    if beta is not None:
        x = beta * wc
        bracket = float(2.0 * mpmath.zeta(s + 1.0, 1.0 / x)
                        * mpmath.power(x, -(s + 1.0)) - 1.0)
    return source.G * wc ** 2 * math.gamma(s + 1.0) * bracket


def series(mode, sys, source, beta):
    """(c2, c4) with s = 1 + c2 tau^2 + c4 tau^4 + O(tau^5)."""
    mode = SurvivalMode(mode)
    d2 = sys.delta ** 2
    e_r, v = reorganization_energy(source), fluctuation(source, beta)
    if mode.removed:
        return 0.0, -d2 * (v + e_r ** 2) / 16.0
    bracket = (sys.epsilon - e_r) ** 2 + v
    if mode is SurvivalMode.FULL:
        bracket += d2
    return -0.25 * d2, d2 * bracket / 48.0


def fit_c4(taus, s, c2):
    """c4 from a least-squares fit of s - 1 - c2 tau^2 by the tau^4 ...
    tau^7 terms of the series."""
    taus = np.asarray(taus, dtype=float)
    basis = np.vander(taus, 4, increasing=True) * taus[:, None] ** 4
    return float(np.linalg.lstsq(basis, np.asarray(s) - 1.0 - c2 * taus ** 2,
                                 rcond=None)[0][0])
