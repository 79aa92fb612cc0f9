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

For a super-Ohmic bath (s > 1) at T = 0, B^2 = exp(-a) with a = G Gamma(s-1),
and C(t) - B^2 = Ctil(t) = exp(-a [1 - (1 + i wc t)^(1-s)]) - exp(-a), which
decays as t^(1-s).  Gamma_GR and the 1/tau coefficient

    K_1 = (delta^2/2) Re int_0^inf t Ctil(t) e^{i eps t} dt

have no closed form; golden_rule_terms integrates them numerically.
"""

import math


def ohmic_golden_rule_rate(delta, epsilon, G, omega_c):
    """Gamma_GR of the s = 1, T = 0 bath, for epsilon > 0."""
    return (delta ** 2 / 4.0 * (2.0 * math.pi / omega_c)
            * (epsilon / omega_c) ** (G - 1.0)
            * math.exp(-epsilon / omega_c) / math.gamma(G))


def golden_rule_terms(delta, epsilon, G, s, omega_c):
    """(Gamma_GR, K_1) of the s > 1, T = 0 bath, for epsilon > 0, by
    mpmath.quadosc at 15 digits (about 1.5 s)."""
    import mpmath   # here, so that importing this module needs no mpmath

    a = G * mpmath.gamma(s - 1.0)

    def ctil(t):
        return (mpmath.exp(-a * (1 - (1 + 1j * omega_c * t) ** (1.0 - s)))
                - mpmath.exp(-a))

    with mpmath.workdps(15):
        rate, k_1 = (mpmath.quadosc(
            lambda t: mpmath.re(t ** n * ctil(t) * mpmath.expj(epsilon * t)),
            [0, mpmath.inf], omega=epsilon) for n in (0, 1))
    return float(delta ** 2 / 2 * rate), float(delta ** 2 / 2 * k_1)
