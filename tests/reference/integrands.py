"""Trig-expanded closed forms of the second-order survival integrands.

Audit references for the integrands in spinzeno.survival.  The
"expanded" form of the non-removed integrand is an equivalent
trig expansion of the derived one; the "legacy" forms are older
hand-expanded variants with a different coefficient product (non-removed)
or conjugation structure (removed), kept verbatim so the tests can show
that the matrix reconstruction rejects them.
"""

import numpy as np

from spinzeno.polaron import renormalize, rot_coeffs
from spinzeno.quadrature import integrate_triangle
from spinzeno.survival import SurvivalMode


def fgh(p, tau):
    """Measurement-projection weights (f, g, h) at interval tau."""
    half = 0.5 * p.omega_r * np.asarray(tau, dtype=float)
    s2 = np.sin(half) ** 2
    f = np.cos(half) ** 2 + (p.epsilon ** 2 - p.delta_r ** 2) / p.omega_r ** 2 * s2
    g = -2.0 * p.epsilon * p.delta_r / p.omega_r ** 2 * s2
    h = -(p.delta_r / p.omega_r) * np.sin(2.0 * half)
    return f, g, h


def full_expanded_integrand(pc, tau, kernel, legacy):
    """Trig-expanded closed-form integrand of the non-removed variants.

    legacy=True keeps the b_y(t) b_y(t-t') product of the older
    hand-expanded variant; legacy=False uses b_y(t) b_x(t-t'), the
    reading implied by the antisymmetric pattern of the sibling terms
    (and confirmed by the matrix reconstruction).
    """
    f_tau, g_tau, h_tau = fgh(pc, tau)
    b2 = kernel.coherence_b() ** 2

    def f(t, tp):
        e_plus, e_minus = kernel.scaled_exponentials(tp)
        ep_cos, ep_sin = np.real(e_plus), -np.imag(e_plus)
        em_cos, em_sin = np.real(e_minus), np.imag(e_minus)
        ax, ay, az, bx, by, bz = rot_coeffs(pc, t)
        axs, ays, azs, bxs, bys, bzs = rot_coeffs(pc, t - tp)
        y_last = bys if legacy else bxs
        sym_f = ax * axs + ay * ays + bx * bxs + by * bys
        sym_g = az * axs + bz * bxs
        sym_h = az * ays + bz * bys
        asym_f = ax * ays - ay * axs + bx * bys - by * y_last
        asym_g = az * ays - ay * azs + bz * bys - by * bzs
        asym_h = ax * azs - az * axs + bx * bzs - bz * bxs
        dif_f = ax * axs + ay * ays - bx * bxs - by * bys
        dif_g = az * axs - bz * bxs
        dif_h = az * ays - bz * bys
        adif_f = ax * ays - ay * axs - bx * bys + by * y_last
        adif_g = az * ays - ay * azs - bz * bys + by * bzs
        adif_h = ax * azs - az * axs - bx * bzs + bz * bxs
        term_plus = ep_cos * (f_tau * sym_f + g_tau * sym_g + h_tau * sym_h) \
            + ep_sin * (f_tau * asym_f + g_tau * asym_g + h_tau * asym_h)
        term_minus = em_cos * (f_tau * dif_f + g_tau * dif_g + h_tau * dif_h) \
            - em_sin * (f_tau * adif_f + g_tau * adif_g + h_tau * adif_h)
        term_const = -2.0 * b2 * (f_tau * (ax * axs + ay * ays)
                                  + g_tau * (az * axs) + h_tau * (az * ays))
        return term_plus + term_minus + term_const

    return f


def removed_legacy_integrand(pc, tau, kernel):
    """Older hand-expanded integrand of the removed variants.

    Kept verbatim; its conjugation/sign structure disagrees with the
    derivation and the matrix reconstruction.
    """

    def m_pair(t):
        a_x, a_y, _, b_x, b_y, _ = rot_coeffs(pc, t)
        return a_x + 1j * a_y, b_x + 1j * b_y

    ep0, em0 = kernel.scaled_exponentials(0.0)

    def f(t, tp):
        m1_t, m2_t = m_pair(t)
        m1_s, m2_s = m_pair(t - tp)
        p_plus = m1_t * np.conj(m1_s) + m2_t * np.conj(m2_s)
        p_minus = m1_t * np.conj(m1_s) - m2_t * np.conj(m2_s)
        ep_a, em_a = kernel.scaled_exponentials(tp)
        ep_b, em_b = kernel.scaled_exponentials(t - tau)
        ep_c, em_c = kernel.scaled_exponentials(t - tp - tau)
        val = (ep_a - ep_b + ep0) * p_plus \
            + (em_a - em_b + em0) * p_minus \
            + ep_c * np.conj(p_plus) \
            - em_c * np.conj(p_minus)
        return np.real(val)

    return f


def expanded_survival(mode, sys, kernel, tau, *, legacy=False, tol=1e-8):
    """s(tau) assembled as survival_prob does, from an audit integrand.

    Non-removed modes use the trig-expanded integrand (legacy=False) or
    its legacy variant; removed modes have only the legacy variant.
    """
    mode = SurvivalMode(mode)
    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    if mode.removed:
        if not legacy:
            raise ValueError("removed modes have only the legacy audit form")
        f = removed_legacy_integrand(pc, tau, kernel)
        zeroth = 0.0
    else:
        f = full_expanded_integrand(pc, tau, kernel, legacy)
        amp_x = p_full.delta_r / pc.omega_r if mode.small_delta else pc.nx
        zeroth = (amp_x * np.sin(0.5 * pc.omega_r * tau)) ** 2
    integral, _, _ = integrate_triangle(f, tau, tol=tol)
    return 1.0 - zeroth - 0.25 * sys.delta ** 2 * float(integral)
