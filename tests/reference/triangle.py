"""The second-order deficit as a double integral over the triangle.

The package integrates one of the two variables of the triangle
0 <= t' <= t <= tau in closed form and the other with a 1-D rule.  This
module keeps the direct 2-D path as an independent reference: an
iterated Gauss-Legendre rule over the triangle, with the same order
doubling and stopping rule, and the package's former spin-basis
integrands f(t, t'), verbatim.
"""

import functools

import numpy as np

from spinzeno.errors import QuadratureError
from spinzeno.polaron import renormalize
from spinzeno.survival import SurvivalMode, _corr_combos, _spin_elements

_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def triangle_at_order(f, tau, order):
    """Iterated Gauss-Legendre over the triangle at one fixed order.

    Outer t, inner t' mapped onto [0, t]; f gets same-shape 2-D arrays of
    (t, t') with t constant along each row.
    """
    x, w = _leggauss(order)
    u = 0.5 * (x + 1.0)
    t = tau * u
    tp = t[:, None] * u[None, :]
    vals = f(np.broadcast_to(t[:, None], tp.shape), tp)
    return 0.5 * tau * ((0.5 * t * (vals @ w)) @ w)


def integrate_triangle_2d(f, tau, tol=1e-8, *, start_order=8,
                          max_order=1024):
    """triangle_at_order doubled from start_order until two successive
    estimates agree within tol; returns the finer one."""
    prev = triangle_at_order(f, tau, start_order)
    order = 2 * start_order
    while order <= max_order:
        cur = triangle_at_order(f, tau, order)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
        order *= 2
    raise QuadratureError(f"2-D triangle rule did not converge below {tol:g}")


def full_deficit_integrand(pc, tau, kernel):
    """Non-removed deficit integrand, without the global delta^2/4 factor."""
    sh = np.sin(0.5 * pc.omega_r * tau)
    u_up = -1j * sh * pc.nx                                   # <u|up>
    u_dn = np.cos(0.5 * pc.omega_r * tau) + 1j * sh * pc.nz   # <u|down>

    def f(t, tp):
        terms = zip(_corr_combos(kernel, tp),
                    _spin_elements(pc, t[:, :1]),  # t alone: per outer node
                    _spin_elements(pc, t - tp))
        total = 0.0
        for ct, (m_t, z_t), (m_s, z_s) in terms:
            v_t = u_dn * m_t + u_up * z_t
            v_s = u_dn * m_s + u_up * z_s
            # <u|sigma~_mu(t) sigma~_mu(t-tp)|up>, summed over |up>, |down>
            braket = v_t * z_s + (u_up * np.conj(m_t) - u_dn * z_t) * m_s
            total = total + np.real(
                ct * (v_s * np.conj(v_t) - braket * np.conj(u_up)))
        return total

    return f


def removed_deficit_integrand(pc, tau, kernel):
    """Integrand of the deficit for the removed-evolution variants."""
    ct_0 = _corr_combos(kernel, 0.0)

    def f(t, tp):
        t_col = t[:, :1]                    # t alone: once per outer node
        terms = zip(_spin_elements(pc, t_col), _spin_elements(pc, t - tp),
                    _corr_combos(kernel, tp), ct_0,
                    _corr_combos(kernel, t - tp - tau),
                    _corr_combos(kernel, tau - t_col))
        total = 0.0
        for (m_t, _), (m_s, _), ct_a, c_0, ct_b, ct_c in terms:
            bracket = np.conj(ct_a) + c_0 - ct_b - ct_c
            total = total + np.real(m_t * np.conj(m_s) * bracket)
        return total

    return f


def triangle_survival(mode, sys, kernel, tau, *, tol=1e-8, order=None):
    """s(tau) from the 2-D integrands, doubling as the package does, or
    at one fixed `order`."""
    mode = SurvivalMode(mode)
    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    zeroth = 0.0
    if mode.removed:
        f = removed_deficit_integrand(pc, tau, kernel)
    else:
        f = full_deficit_integrand(pc, tau, kernel)
        zeroth = (p_full.delta_r / pc.omega_r
                  * np.sin(0.5 * pc.omega_r * tau)) ** 2
    integral = integrate_triangle_2d(f, tau, tol=tol) if order is None \
        else triangle_at_order(f, tau, order)
    return 1.0 - zeroth - 0.25 * sys.delta ** 2 * float(integral)
