"""Survival probability and effective decay rate, a whole tau grid at once.

Four variants are supported: the full polaron-frame second-order result,
its small-delta reduction (delta_r = 0 inside every coefficient), and
both with the free system evolution removed before each measurement.

The deficit 1 - s(tau) integrates Re[Ctil_mu(t') P_mu(t, t - t')] over
the triangle 0 <= t' <= t <= tau, with the stable correlation
combinations Ctil_mu = B^2 (e^phi +- e^-phi [- 2]) and spin factors P_mu
contracted in the spin basis (see _spin_tables).  P_mu(t, s) =
sum_{j,k = -1,0,1} p_jk e^{i Omega_r (j t + k s)}, so a 3x3 DFT gives the
p_jk exactly and one variable integrates in closed form, leaving a 1-D
integral over x of the kernel at x alone.  tests/reference/ checks it
against the 2-D triangle rule and a matrix reconstruction.

Moment form.  The closed-form factor of a (j, k) term is L phi1(Omega_r b
L), phi1(y) = (e^{iy} - 1)/(iy), with L = tau - x (or x).  Splitting it as
tau phi1(Omega_r b tau) e^{-i Omega_r b x} - x phi1(-Omega_r b x)
separates tau from x and keeps every factor below about tau, where
(e^{i Omega_r b L} - 1)/(i Omega_r b) would leave terms of size
1/Omega_r that cancel as Omega_r tau -> 0.  So

    D(tau) = Re sum_q A_q(tau) M_q(tau),
    M_q(tau) = int_0^tau K_r(x) e^{i Omega_r a x} Phi_c(x) dx,

with q = (r, a, c), a in -2..2, Phi_0 = 1 and Phi_c(x) = x phi1(Omega_r c
x) for c in -2..2 (so Phi with c = 0 is x), and K_r the kernel rows
Ctil_1, Ctil_2 (and, with removal, the constant 1 that carries Ctil(0)).
The coefficients A(tau) come from the p_jk in closed form (_coefficients);
only the moments need the kernel.  They accumulate panel by panel between
consecutive grid points, so one pass over the kernel serves a whole
curve, and a single tau is the one-panel curve (integrate_triangle).
survival_prob returns that curve as a DecayCurve, with every gap named.
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
from .errors import (DomainError, NonFiniteIntegrandError, OutOfRegimeError,
                     QuadratureError)
from .polaron import renormalize, rot_coeffs

TOL = 1e-8              # default bound on each point's integral error
MAX_ORDER = 1024        # highest Gauss-Legendre order tried per panel
ROUNDING_FLOOR = 1e-13  # least stop tolerance, relative to sum |A| int |f|
SURVIVAL_SLACK = 1e-6   # tolerated truncation excursion of s outside [0, 1]
MAX_NODES = 2048        # nodes per integrand call: bounds the work arrays

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
class DecayCurve:
    tau_grid: np.ndarray
    gamma: np.ndarray   # NaN at a gap
    s: np.ndarray
    mode: SurvivalMode
    errors: tuple = ()  # (index, exception) pairs for gap points
    # survival_prob's per-point "order", "quad_error" and "zeroth_order"
    diagnostics: dict = field(default_factory=dict, compare=False)

    def finite_mask(self):
        return np.isfinite(self.gamma)


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


# p_jk = (_DFT @ P @ _DFT.T)[j + 1, k + 1], P sampled at Omega_r t = 2 pi a/3
_DFT = np.exp(-2j * np.pi / 3.0
              * np.outer(np.arange(-1, 2), np.arange(3))) / 3.0
_FREQ = np.arange(-2, 3)       # a of e^{i Omega_r a x}, and c of Phi_c
# conj(Phi_c) = Phi_-c: the moment index c + 3 of Phi_c goes to 3 - c
_CONJ_C = np.array([0, 5, 4, 3, 2, 1])


def _spin_elements(pc, t):
    """(m, z) = (<down|s~|up>, <up|s~|up>) for s~ = sigma~_x, sigma~_y at t."""
    a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(pc, t)
    return (a_x + 1j * a_y, a_z), (b_x + 1j * b_y, b_z)


def _spin_tables(pc, taus, removed):
    """p_jk of P_mu(t, s), mu = x, y, as an array (tau, mu, j + 1, k + 1).

    P_mu contracts v(t) = <u|sigma~_mu(t)|up> = u_dn m + u_up z, with
    |u> = U_S(tau)^dag |down>; with removal it is m_mu(t) conj(m_mu(s)).
    """
    half = 0.5 * pc.omega_r * np.asarray(taus, dtype=float)[:, None, None]
    u_up = -1j * np.sin(half) * pc.nx                         # <u|up>
    u_dn = np.cos(half) + 1j * np.sin(half) * pc.nz           # <u|down>
    t = 2.0 * np.pi / 3.0 * np.arange(3) / pc.omega_r
    tables = []
    for m, z in _spin_elements(pc, t):
        m_t, z_t, m_s, z_s = m[:, None], z[:, None], m[None, :], z[None, :]
        if removed:
            p = np.broadcast_to(m_t * np.conj(m_s), half.shape[:1] + (3, 3))
        else:
            v_t = u_dn * m_t + u_up * z_t
            v_s = u_dn * m_s + u_up * z_s
            # <u|sigma~_mu(t) sigma~_mu(s)|up>, summed over |up>, |down>
            braket = v_t * z_s + (u_up * np.conj(m_t) - u_dn * z_t) * m_s
            p = v_s * np.conj(v_t) - braket * np.conj(u_up)
        tables.append(_DFT @ p @ _DFT.T)
    return np.stack(tables, axis=1)


def _phi1(y):
    """(e^{iy} - 1)/(iy), without cancellation as y -> 0."""
    return np.sinc(y / np.pi) + 0.5j * y * np.sinc(y / (2.0 * np.pi)) ** 2


def _coefficients(pc, taus, removed, ct_0=None):
    """A of D(tau) = Re sum A M(tau), as an array (tau, row, a + 2, c').

    c' = 0 stands for Phi = 1 and c' = c + 3 for Phi_c.  The three terms
    of the deficit are sums over (j, k) of p_jk e^{i w a X} L phi1(w b L):

      k_t: X = x, L = tau - x, a = j, b = j + k   (x = t', t in [x, tau])
      k_u: X = tau - x, L = x, a = j + k, b = j   (x = t - t')
      k_s: X = tau - x, L = tau - x, a = j, b = k (x = t)

    Without removal D = Re sum_mu Ctil_mu k_t.  With removal it is
    Re sum_mu [Ctil_mu conj(k_t - k_u) - Ctil_mu k_s + Ctil_mu(0) k_t]: the
    bracket conj Ctil(t') + Ctil(0) - Ctil(t - t' - tau) - Ctil(tau - t),
    with Ctil(-y) = conj Ctil(y) and x -> tau - x moving the last two onto
    the node.  Ctil_mu(0) (ct_0) joins the constant row.
    """
    p = _spin_tables(pc, taus, removed)
    tau = np.asarray(taus, dtype=float)[:, None]
    # e^{i w a tau} and tau phi1(w a tau) at [:, [a + 2]], shape (tau, 1)
    wave, tau_phi1 = (np.exp(1j * pc.omega_r * _FREQ * tau),
                      tau * _phi1(pc.omega_r * _FREQ * tau))
    k_t = np.zeros((tau.size, 2, 5, 6), dtype=complex)
    k_u, k_s = np.zeros_like(k_t), np.zeros_like(k_t)
    for j in (-1, 0, 1):
        for k in (-1, 0, 1):
            pt, b = p[:, :, j + 1, k + 1], j + k
            # (tau - x) phi1(w b (tau - x))
            #   = tau phi1(w b tau) e^{-i w b x} - Phi_{-b}(x)
            k_t[:, :, 2 - k, 0] += pt * tau_phi1[:, [b + 2]]
            k_t[:, :, 2 + j, 3 - b] -= pt
            if removed:
                k_u[:, :, 2 - b, 3 + j] += pt * wave[:, [b + 2]]
                pt = pt * wave[:, [j + 2]]
                k_s[:, :, 2 - b, 0] += pt * tau_phi1[:, [k + 2]]
                k_s[:, :, 2 - j, 3 - k] -= pt
    if not removed:
        return k_t
    # conj(e^{i w a x} Phi_c) = e^{-i w a x} Phi_-c
    conj = np.conj(k_t - k_u)[:, :, ::-1, _CONJ_C]
    constant = np.einsum("m,tmac->tac", ct_0, k_t)[:, None]
    return np.concatenate([conj - k_s, constant], axis=1)


def _moment_integrand(kernel, w, removed):
    """f(x) = (U, V) with U = K_r e^{i w a x} (row-major in (r, a)) and
    V = Phi_c' at the nodes x; the moments are int U V^T."""
    def f(x):
        rows = list(_corr_combos(kernel, x))
        if removed:
            rows.append(np.ones(x.shape))
        wx = w * x[..., None] * _FREQ
        u = np.stack(rows, axis=-1)[..., :, None] \
            * np.exp(1j * wx)[..., None, :]
        v = np.concatenate([np.ones(x.shape + (1,)),
                            x[..., None] * _phi1(wx)], axis=-1)
        return u.reshape(x.shape + (-1,)), v

    return f


def _panel_sums(f, lo, width, order):
    """Gauss-Legendre sums of U V^T and |U| |V|^T on each panel at one order.

    f is called on at most MAX_NODES nodes at a time (always at least one
    panel).  Returns (sums, abs_sums, failed), the sums for the panels
    before the first failure; failed is None or (panel position, error)
    for the first panel whose sum is not finite, as any non-finite value
    of f makes it.
    """
    x, wgt = _gl_nodes(order)
    per_call = max(1, MAX_NODES // order)
    sums, mags, failed = [], [], None
    for first in range(0, lo.size, per_call):
        half = 0.5 * width[first:first + per_call, None]
        u, v = f(lo[first:first + per_call, None] + half * (x + 1.0))
        with np.errstate(invalid="ignore", over="ignore"):
            u, vw = np.swapaxes(u, 1, 2), v * (half * wgt)[..., None]
            sums.append(u @ vw)
            mags.append(np.abs(u) @ np.abs(vw))
        finite = np.isfinite(sums[-1]).all(axis=(1, 2))
        if not finite.all():
            bad = int(np.argmin(finite))
            i = first + bad
            failed = (i, NonFiniteIntegrandError(
                "survival integrand is not finite on the panel "
                f"[{lo[i]:.6g}, {lo[i] + width[i]:.6g}]"))
            sums[-1], mags[-1] = sums[-1][:bad], mags[-1][:bad]
            break
    return np.concatenate(sums), np.concatenate(mags), failed


def integrate_triangle(f, taus, coeffs, tol=TOL, *, start_order=8):
    """D(tau_t) = Re sum_ij coeffs[t, i, j] int_0^tau_t U_i(x) V_j(x) dx for
    every tau_t of the sorted, nonnegative `taus`, with (U, V) = f(x).

    The panels [0, tau_0], [tau_0, tau_1], ... run Gauss-Legendre order
    doubling from start_order up to MAX_ORDER in lockstep, so each order
    is one call of f (MAX_NODES nodes at most) for all open panels; a
    panel keeps its finer estimate and drops out once its change dM, with
    A the largest |coeffs| of the points that use it, satisfies

        sum |A| |dM| <= max(tol * width / tau_max,
                            ROUNDING_FLOOR * sum |A| int |U| |V|),

    int |U| |V| taken from the first estimate's nodes: rounding keeps the
    estimates from agreeing much closer, so a smaller tol is raised to
    that floor.  So tol bounds each point's error, apart from the floors.
    f must map an array of nodes (panel, node) to (U, V) with shapes
    (panel, node, i) and (panel, node, j).

    Returns (values, error bounds, highest panel order, panel orders,
    failed): the error bound of point t is sum over its panels of
    sum |coeffs[t]| |dM|.  A panel that does not converge by MAX_ORDER,
    or where f is not finite, makes its point and every later point NaN;
    failed is then (its index, the error), else None.
    """
    taus = np.asarray(taus, dtype=float)
    if not (np.all(taus >= 0.0) and np.all(np.diff(taus) >= 0.0)):
        raise ValueError("taus must be nonnegative and sorted")
    lo = np.concatenate(([0.0], taus[:-1]))
    width = taus - lo
    a_abs = np.abs(coeffs)
    a_max = np.maximum.accumulate(a_abs[::-1])[::-1]
    # tau_max = 0 only when every width is 0
    stop_tol = tol * width / (taus[-1] or 1.0)
    moments = np.zeros(coeffs.shape, dtype=complex)
    changes = np.zeros(coeffs.shape)
    orders = np.zeros(taus.size, dtype=int)
    end, failed = taus.size, None        # points from `end` on are gaps
    open_ = np.arange(taus.size)
    prev = floor = None
    order = start_order
    while open_.size:
        est, mag, bad = _panel_sums(f, lo[open_], width[open_], order)
        if bad is not None:
            k, exc = bad
            end, failed = int(open_[k]), (int(open_[k]), exc)
            open_ = open_[:k]
            if prev is not None:
                prev, floor = prev[:k], floor[:k]
        if prev is None:
            floor = ROUNDING_FLOOR * np.sum(a_max[open_] * mag, axis=(1, 2))
        else:
            change = np.abs(est - prev)
            err = np.sum(a_max[open_] * change, axis=(1, 2))
            done = err <= np.maximum(stop_tol[open_], floor)
            moments[open_[done]] = est[done]
            changes[open_[done]] = change[done]
            orders[open_[done]] = order
            open_, est, floor = open_[~done], est[~done], floor[~done]
        prev = est
        order *= 2
        if open_.size and order > MAX_ORDER:
            stop = max(stop_tol[open_[0]], floor[0])
            end = int(open_[0])
            failed = (end, QuadratureError(
                f"triangle quadrature did not converge below {stop:g} by "
                f"order {MAX_ORDER}"))
            break
    values = np.real(np.sum(coeffs * np.cumsum(moments, axis=0), axis=(1, 2)))
    errors = np.sum(a_abs * np.cumsum(changes, axis=0), axis=(1, 2))
    values[end:] = errors[end:] = np.nan
    return values, errors, int(orders.max(initial=start_order)), orders, failed


def _rate(s, tau):
    """Gamma = -ln(s)/tau; NaN for s outside (0, 1 + SURVIVAL_SLACK]."""
    if not 0.0 < s <= 1.0 + SURVIVAL_SLACK:
        return math.nan
    # 0.0 - keeps s == 1 from giving -0.0
    return 0.0 - math.log(min(s, 1.0)) / tau if tau > 0.0 else 0.0


def survival_prob(mode, sys, kernel, taus, *, tol=TOL):
    """The DecayCurve of s(tau) on a sorted tau grid, in one pass; a scalar
    tau is the one-point grid.

    A point whose quadrature panel failed is a gap with that error, and so
    is every later point, whose moments include that panel.  A point whose
    s leaves (0, 1 + SURVIVAL_SLACK] is a gap with an OutOfRegimeError.
    An s in (1, 1 + SURVIVAL_SLACK] is taken as truncation rounding: Gamma
    comes from min(s, 1), and the curve keeps s itself.
    """
    mode = SurvivalMode(mode)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if not np.all((taus >= 0.0) & (taus < math.inf)):
        raise DomainError("tau must be finite and nonnegative")
    if np.any(np.diff(taus) < 0.0):
        raise DomainError("taus must be sorted")
    s, quad_err, zeroth = np.ones(taus.size), np.zeros(taus.size), \
        np.zeros(taus.size)
    orders = np.zeros(taus.size, dtype=int)
    failed = None
    # tau = 0 is s = 1 exactly; the taus from `first` on are positive
    first = int(np.searchsorted(taus, 0.0, side="right"))
    if sys.delta != 0.0 and first < taus.size:
        live = taus[first:]
        p_full = renormalize(sys, kernel)
        pc = p_full.with_small_delta() if mode.small_delta else p_full
        ct_0 = np.array(_corr_combos(kernel, 0.0)) if mode.removed else None
        coeffs = _coefficients(pc, live, mode.removed, ct_0)
        coeffs = coeffs.reshape(live.size, -1, coeffs.shape[-1])
        f = _moment_integrand(kernel, pc.omega_r, mode.removed)
        # start_order is passed explicitly so traces can count the nodes.
        integral, err, _, orders[first:], failed = integrate_triangle(
            f, live, coeffs, tol=tol, start_order=8)
        # The oscillation term is itself O(delta_r^2), so the small-delta
        # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
        if not mode.removed:
            zeroth[first:] = (p_full.delta_r / pc.omega_r
                              * np.sin(0.5 * pc.omega_r * live)) ** 2
        s[first:] = 1.0 - zeroth[first:] - 0.25 * sys.delta ** 2 * integral
        quad_err[first:] = 0.25 * sys.delta ** 2 * err
    gamma = np.array([_rate(s_t, t) for s_t, t in zip(s, taus)])
    errors = tuple(
        (int(i), failed[1] if failed and i >= first + failed[0] else
         OutOfRegimeError(f"survival {s[i]:.6g} out of regime"))
        for i in np.flatnonzero(~np.isfinite(gamma)))
    return DecayCurve(taus, gamma, s, mode, errors,
                      {"order": orders, "quad_error": quad_err,
                       "zeroth_order": zeroth})
