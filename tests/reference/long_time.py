"""The long-time (golden-rule) limit of the survival probability.

In the `small_delta` mode the deficit is second order in delta,

    1 - s(tau) = (delta^2/2) Re int_0^tau (tau - t) C(t) e^{i eps t} dt,

with the bath correlation C = B^2 e^{phi}.  So (1 - s)/tau tends to the
golden-rule rate

    Gamma_GR = (delta^2/2) Re int_0^inf [C(t) - B^2] e^{i eps t} dt,

which Zeno and anti-Zeno behaviour are measured against (Kofman and
Kurizki, Nature 405, 546 (2000)), plus a coherent term
(delta^2 B^2/2 eps^2)(1 - cos eps tau)/tau and a remainder of order
1/tau, led by -(delta^2/2) Re int_0^inf t [C(t) - B^2] e^{i eps t} dt / tau.

For the Ohmic bath (s = 1) at T = 0, B = 0, so the coherent term
vanishes, and C(t) = (1 + i wc t)^(-G).  Its half-line transform is half
the full-line one, which closes the contour around the branch point at
t = i/wc and gives the NIBA rate (Leggett et al., Rev. Mod. Phys. 59, 1
(1987); Weiss, Quantum Dissipative Systems)

    Gamma_GR = (delta^2/4) (2 pi/wc) (eps/wc)^(G-1) e^(-eps/wc) / Gamma(G).
"""

import math


def ohmic_golden_rule_rate(delta, epsilon, G, omega_c):
    """Gamma_GR of the s = 1, T = 0 bath, for epsilon > 0."""
    return (delta ** 2 / 4.0 * (2.0 * math.pi / omega_c)
            * (epsilon / omega_c) ** (G - 1.0)
            * math.exp(-epsilon / omega_c) / math.gamma(G))
