"""One-interval survival probability and effective decay rate.

Four variants are supported: the full polaron-frame second-order result,
its small-delta reduction (delta_r = 0 inside every coefficient), and
both with the free system evolution removed before each measurement.

The deficit 1 - s(tau) integrates Re[Ctil_mu(t') P_mu(t, t - t')] over
the triangle 0 <= t' <= t <= tau, with the stable correlation
combinations Ctil_mu = B^2 (e^phi +- e^-phi [- 2]) and spin factors P_mu
contracted in the spin basis (see _spin_tables).  P_mu(t, s) =
sum_{j,k = -1,0,1} p_jk e^{i Omega_r (j t + k s)}, so a 3x3 DFT gives the
p_jk exactly and one variable integrates in closed form, leaving a 1-D
integral of the kernel at the node x only.  tests/reference/ checks it
against the 2-D triangle rule and a matrix reconstruction.

That smooth 1-D integral is integrated here with Gauss-Legendre order doubling
(integrate_triangle); the bath kernels need no quadrature (see bath.py).
"""

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
# NumPy loads numpy.polynomial on first attribute access; importing it here
# keeps that one-off cost out of the first solve
from numpy.polynomial.legendre import leggauss

from .bath import DiscreteBath
from .errors import DomainError, QuadratureError
from .polaron import renormalize, rot_coeffs

TOL = 1e-8              # default bound on each point's integral error
MAX_ORDER = 1024        # highest Gauss-Legendre order tried
ROUNDING_FLOOR = 1e-13  # least stop tolerance, relative to the integral of |f|
SURVIVAL_SLACK = 1e-6   # tolerated truncation excursion of s outside [0, 1]

_gl_nodes = lru_cache(maxsize=32)(leggauss)


class SurvivalMode(enum.Enum):
    FULL = "full"
    SMALL_DELTA = "small_delta"
    REMOVED_FULL = "removed_full"
    REMOVED_SMALL_DELTA = "removed_small_delta"

    @property
    def removed(self):
        return self in (SurvivalMode.REMOVED_FULL,
                        SurvivalMode.REMOVED_SMALL_DELTA)

    @property
    def small_delta(self):
        return self in (SurvivalMode.SMALL_DELTA,
                        SurvivalMode.REMOVED_SMALL_DELTA)


@dataclass(frozen=True)
class SurvivalResult:
    s: float
    gamma: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def validity_value(sys, kernel):
    """(delta/omega_c)^2 (1 - B^4); omega_c of a discrete bath is its top
    mode frequency."""
    src, b = kernel.source, kernel.coherence_b()
    w_c = src.omegas.max() if isinstance(src, DiscreteBath) else src.omega_c
    return (sys.delta / float(w_c)) ** 2 * (1.0 - b ** 4)


def _corr_combos(kernel, x):
    """(Ctil_1, Ctil_2) at time(s) x, where Ctil_mu = 2 C_mumu."""
    e_plus, e_minus = kernel.scaled_exponentials(x)
    b2 = kernel.coherence_b() ** 2
    return e_plus + e_minus - 2.0 * b2, e_plus - e_minus


_J, _K = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
# p_jk = (_DFT @ P @ _DFT.T)[j + 1, k + 1], P sampled at Omega_r t = 2 pi a/3
_DFT = np.exp(-2j * np.pi / 3.0 * np.outer(_J[:, 0], np.arange(3))) / 3.0


def _spin_elements(pc, t):
    """(m, z) = (<down|s~|up>, <up|s~|up>) for s~ = sigma~_x, sigma~_y at t."""
    a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(pc, t)
    return (a_x + 1j * a_y, a_z), (b_x + 1j * b_y, b_z)


def _spin_tables(pc, tau, removed):
    """p_jk of P_mu(t, s), mu = x, y, as an array (mu, j + 1, k + 1).

    P_mu contracts v(t) = <u|sigma~_mu(t)|up> = u_dn m + u_up z, with
    |u> = U_S(tau)^dag |down>; with removal it is m_mu(t) conj(m_mu(s)).
    """
    sh = np.sin(0.5 * pc.omega_r * tau)
    u_up = -1j * sh * pc.nx                                   # <u|up>
    u_dn = np.cos(0.5 * pc.omega_r * tau) + 1j * sh * pc.nz   # <u|down>
    t = 2.0 * np.pi / 3.0 * np.arange(3) / pc.omega_r
    tables = []
    for m, z in _spin_elements(pc, t):
        m_t, z_t, m_s, z_s = m[:, None], z[:, None], m[None, :], z[None, :]
        if removed:
            p = m_t * np.conj(m_s)
        else:
            v_t = u_dn * m_t + u_up * z_t
            v_s = u_dn * m_s + u_up * z_s
            # <u|sigma~_mu(t) sigma~_mu(s)|up>, summed over |up>, |down>
            braket = v_t * z_s + (u_up * np.conj(m_t) - u_dn * z_t) * m_s
            p = v_s * np.conj(v_t) - braket * np.conj(u_up)
        tables.append(_DFT @ p @ _DFT.T)
    return np.array(tables)


def _phi1(y):
    """(e^{iy} - 1)/(iy), without cancellation as y -> 0."""
    return np.sinc(y / np.pi) + 0.5j * y * np.sinc(y / (2.0 * np.pi)) ** 2


def _deficit_integrand(pc, tau, kernel, removed):
    """f(x) on [0, tau] whose integral is the deficit without delta^2/4.

    Without removal the kernel is Ctil(t'), with x = t'.  With removal it
    is conj Ctil(t') + Ctil(0) - Ctil(t - t' - tau) - Ctil(tau - t), with
    x = t', t - t', t; Ctil(-y) = conj Ctil(y) puts the last two at
    y = tau - x, and x -> tau - x moves them back to x.  So every mode
    needs Ctil at the node alone (and Ctil(0) once).
    """
    p = _spin_tables(pc, tau, removed)
    w = pc.omega_r
    if removed:
        ct_0 = np.array(_corr_combos(kernel, 0.0))[:, None]

    def line(a, x, b, length):
        # sum_jk p_jk e^{i w a_jk x} L phi1(w b_jk L), L = length
        a, b = a[..., None], b[..., None]
        return np.einsum("mjk,jkn->mn", p, np.exp(1j * w * a * x)
                         * length * _phi1(w * b * length))

    def f(x):
        ct = np.array(_corr_combos(kernel, x))
        k_t = line(_J, x, _J + _K, tau - x)    # x = t', t in [x, tau]
        if not removed:
            return np.real(np.sum(ct * k_t, axis=0))
        k_u = line(_J + _K, tau - x, _J, x)    # y = t - t', t in [y, tau]
        k_s = line(_J, tau - x, _K, tau - x)   # y = t, t - t' in [0, y]
        return np.real(np.sum(ct * (np.conj(k_t) - np.conj(k_u) - k_s)
                              + ct_0 * k_t, axis=0))

    return f


def integrate_triangle(f, tau, tol=TOL, *, start_order=8):
    """Integrate the triangle's reduced integrand f(x) over 0 <= x <= tau.

    Gauss-Legendre with order doubling from start_order up to MAX_ORDER,
    until two successive estimates agree within max(tol, ROUNDING_FLOOR *
    int |f|), int |f| taken from the first estimate's nodes: rounding keeps
    the estimates from agreeing much closer, so a smaller tol is raised to
    that floor.  The finer estimate is returned.  f must map a 1-D array
    of nodes to an array of the same shape.

    Returns (value, error_estimate, order_used); the error estimate is the
    difference reached.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 0.0, 0.0, start_order

    def nodes(order):
        x, wgt = _gl_nodes(order)
        return f(0.5 * tau * (x + 1.0)), wgt

    fx, wgt = nodes(start_order)
    prev = 0.5 * tau * (fx @ wgt)
    stop = max(tol, ROUNDING_FLOOR * 0.5 * tau * (np.abs(fx) @ wgt))
    order = 2 * start_order
    while order <= MAX_ORDER:
        fx, wgt = nodes(order)
        cur = 0.5 * tau * (fx @ wgt)
        err = np.max(np.abs(cur - prev))
        if err <= stop:
            return cur, err, order
        prev = cur
        order *= 2
    raise QuadratureError(
        f"triangle quadrature did not converge below {stop:g} by order "
        f"{MAX_ORDER}")


def survival_prob(mode, sys, kernel, tau, *, tol=TOL):
    """Survival probability s(tau) for one measurement interval."""
    mode = SurvivalMode(mode)
    if not 0.0 <= tau < math.inf:
        raise DomainError("tau must be finite and nonnegative")
    if tau == 0.0 or sys.delta == 0.0:
        return SurvivalResult(1.0, 0.0, {
            "order": 0, "quad_error": 0.0, "zeroth_order": 0.0})

    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full

    f = _deficit_integrand(pc, tau, kernel, mode.removed)
    # The oscillation term is itself O(delta_r^2), so the small-delta
    # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
    zeroth = 0.0 if mode.removed else (
        p_full.delta_r / pc.omega_r * np.sin(0.5 * pc.omega_r * tau)) ** 2

    # start_order is passed explicitly so traces can count the nodes.
    integral, quad_err, order = integrate_triangle(f, tau, tol=tol,
                                                   start_order=8)
    s = 1.0 - zeroth - 0.25 * sys.delta ** 2 * float(integral)
    gamma = math.nan
    if 0.0 < s <= 1.0 + SURVIVAL_SLACK:
        # 0.0 - keeps s == 1 from giving -0.0
        gamma = 0.0 - math.log(min(s, 1.0)) / tau
    diagnostics = {"order": order,
                   "quad_error": 0.25 * sys.delta ** 2 * quad_err,
                   "zeroth_order": zeroth}
    return SurvivalResult(float(s), gamma, diagnostics)
