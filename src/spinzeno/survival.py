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
survival_prob runs that pass over any grid's valid taus, sorted, and
returns the DecayCurve in the grid's own order, with every gap named.

The factors e^{i Omega_r a x} and Phi_c(x) take one complex exponential
per node (_basis): with the half-angle form phi1(y) = e^{iy/2}
sin(y/2)/(y/2), the powers of h = e^{i Omega_r x/2} give them all, and
the negative frequencies are the conjugates of the positive ones.  The
same factors at tau enter A, whose nine (j, k) terms are summed by one
scatter per block.  The magnitudes sum |U| |V| behind the rounding floor
come from the first estimate only.
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
                     QuadratureError, SpinZenoError)
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
    Each is a sum of products f(t) g(s), whose 3x3 DFT is the outer
    product of the DFTs of f and g.
    """
    half = 0.5 * pc.omega_r * np.asarray(taus, dtype=float)[:, None]
    u_up = -1j * np.sin(half) * pc.nx                         # <u|up>
    u_dn = np.cos(half) + 1j * np.sin(half) * pc.nz           # <u|down>
    t = 2.0 * np.pi / 3.0 * np.arange(3) / pc.omega_r
    tables = []
    for m, z in _spin_elements(pc, t):
        f_m, f_z, f_mc, f_zc = np.array([m, z, m.conj(), z.conj()]) @ _DFT.T
        if removed:
            p = np.broadcast_to(np.outer(f_m, f_mc), half.shape[:1] + (3, 3))
        else:
            f_v = u_dn * f_m + u_up * f_z
            f_vc = np.conj(u_dn) * f_mc + np.conj(u_up) * f_zc
            # <u|sigma~_mu(t) sigma~_mu(s)|up>, summed over |up>, |down>, is
            # v(t) z(s) + w(t) m(s) with w = u_up conj(m) - u_dn z
            f_w = u_up * f_mc - u_dn * f_z
            braket = f_v[:, :, None] * f_z + f_w[:, :, None] * f_m
            p = f_vc[:, :, None] * f_v[:, None, :] \
                - np.conj(u_up)[:, :, None] * braket
        tables.append(p)
    return np.stack(tables, axis=1)


def _basis(w, x):
    """(E, Phi) at the times x, each an array (5,) + x.shape: E[a + 2] =
    e^{i w a x} and Phi[c + 2] = x phi1(w c x), a, c in -2..2.

    One complex exponential h = e^{iz}, z = w x / 2, gives them all:
    E_1 = h^2, E_2 = E_1^2 and E_-a = conj E_a; phi1(y) = e^{iy/2}
    sin(y/2)/(y/2) gives Phi_1 = x h sin z/z and Phi_2 = x E_1 sin 2z/(2z),
    with sin z = Im h and sin 2z = Im E_1, and Phi_-c = conj Phi_c, Phi_0
    = x.  Both ratios are exactly 1 at z = 0.
    """
    x = np.asarray(x, dtype=float)
    z = 0.5 * w * x
    h = np.empty(z.shape, dtype=complex)
    np.cos(z, out=h.real)
    np.sin(z, out=h.imag)
    e1 = h * h
    nonzero = z != 0.0
    e, phi = np.empty((2, 5) + z.shape, dtype=complex)
    e[2], e[3], e[4] = 1.0, e1, e1 * e1
    phi[2] = x
    phi[3] = x * np.divide(h.imag, z, out=np.ones_like(z), where=nonzero) * h
    phi[4] = x * np.divide(e1.imag, 2.0 * z, out=np.ones_like(z),
                           where=nonzero) * e1
    e[:2], phi[:2] = np.conj(e[:2:-1]), np.conj(phi[:2:-1])
    return e, phi


# The nine (j, k) of p_jk in row-major order, b = j + k, and the flat slot
# 6 (a + 2) + c' of each term of the three blocks of _coefficients
_J, _K = np.indices((3, 3)).reshape(2, 9) - 1
_B = _J + _K
_T_SLOTS = np.concatenate([6 * (2 - _K), 6 * (2 + _J) + 3 - _B])
_U_SLOTS = 6 * (2 - _B) + 3 + _J
_S_SLOTS = np.concatenate([6 * (2 - _B), 6 * (2 - _J) + 3 - _K])


def _scatter(terms, slots):
    """Sum the complex terms (tau, row, term) into an array (tau, row, 5,
    6) at the slots of each term, in term order."""
    size = 30 * terms.shape[0] * terms.shape[1]
    idx = (np.arange(0, size, 30)[:, None] + slots).ravel()
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(idx, weights=terms.real.ravel(), minlength=size)
    sums.imag = np.bincount(idx, weights=terms.imag.ravel(), minlength=size)
    return sums.reshape(terms.shape[:2] + (5, 6))


def _coefficients(pc, taus, removed, ct_0=None):
    """A of D(tau) = Re sum A M(tau), as an array (tau, row, a + 2, c').

    c' = 0 stands for Phi = 1 and c' = c + 3 for Phi_c.  The three terms
    of the deficit are sums over (j, k) of p_jk e^{i w a X} L phi1(w b L):

      k_t: X = x, L = tau - x, a = j, b = j + k   (x = t', t in [x, tau])
      k_u: X = tau - x, L = x, a = j + k, b = j   (x = t - t')
      k_s: X = tau - x, L = tau - x, a = j, b = k (x = t)

    and (tau - x) phi1(w b (tau - x)) = tau phi1(w b tau) e^{-i w b x} -
    Phi_{-b}(x), so each (j, k) adds p_jk times a factor at tau to one or
    two slots of a block; each block is one scatter over its terms.

    Without removal D = Re sum_mu Ctil_mu k_t.  With removal it is
    Re sum_mu [Ctil_mu conj(k_t - k_u) - Ctil_mu k_s + Ctil_mu(0) k_t]: the
    bracket conj Ctil(t') + Ctil(0) - Ctil(t - t' - tau) - Ctil(tau - t),
    with Ctil(-y) = conj Ctil(y) and x -> tau - x moving the last two onto
    the node.  Ctil_mu(0) (ct_0) joins the constant row.
    """
    taus = np.asarray(taus, dtype=float)
    p = _spin_tables(pc, taus, removed).reshape(taus.size, 2, 9)
    # e^{i w a tau} and tau phi1(w a tau) at [:, 0, a + 2], shape (tau, 1, 5)
    wave, tau_phi1 = (fac.T[:, None] for fac in _basis(pc.omega_r, taus))
    k_t = _scatter(np.concatenate([p * tau_phi1[..., _B + 2], -p], axis=-1),
                   _T_SLOTS)
    if not removed:
        return k_t
    k_u = _scatter(p * wave[..., _B + 2], _U_SLOTS)
    p = p * wave[..., _J + 2]
    k_s = _scatter(np.concatenate([p * tau_phi1[..., _K + 2], -p], axis=-1),
                   _S_SLOTS)
    # conj(e^{i w a x} Phi_c) = e^{-i w a x} Phi_-c
    conj = np.conj(k_t - k_u)[:, :, ::-1, _CONJ_C]
    constant = np.einsum("m,tmac->tac", ct_0, k_t)[:, None]
    return np.concatenate([conj - k_s, constant], axis=1)


def _moment_integrand(kernel, w, removed):
    """f(x) = (U, V) with U = K_r e^{i w a x} (row-major in (r, a)) and
    V = Phi_c' at the nodes x; the moments are int U V^T.  Both are views
    of arrays that keep the nodes innermost, the order the products and
    the panel sums run in."""
    def f(x):
        rows = list(_corr_combos(kernel, x))
        if removed:
            rows.append(np.ones(x.shape))
        e, phi = _basis(w, x)
        u = (np.stack(rows)[:, None] * e).reshape((-1,) + x.shape)
        v = np.concatenate([np.ones((1,) + x.shape), phi])
        return np.moveaxis(u, 0, -1), np.moveaxis(v, 0, -1)

    return f


def _panel_sums(f, lo, width, order, magnitudes=False):
    """Gauss-Legendre sums of U V^T on each panel at one order, and of
    |U| |V|^T if `magnitudes`.

    f is called on at most MAX_NODES nodes at a time (always at least one
    panel).  Returns (sums, abs_sums, failed), the sums for the panels
    before the first failure (abs_sums is None without `magnitudes`);
    failed is None or (panel position, error) for the first panel whose
    sum is not finite, as any non-finite value of f makes it.
    """
    x, wgt = _gl_nodes(order)
    per_call = max(1, MAX_NODES // order)
    sums, mags, failed, end = [], [], None, lo.size
    for first in range(0, lo.size, per_call):
        half = 0.5 * width[first:first + per_call, None]
        u, v = f(lo[first:first + per_call, None] + half * (x + 1.0))
        with np.errstate(invalid="ignore", over="ignore"):
            u, vw = np.swapaxes(u, 1, 2), v * (half * wgt)[..., None]
            sums.append(u @ vw)
            if magnitudes:
                mags.append(np.abs(u) @ np.abs(vw))
        finite = np.isfinite(sums[-1]).all(axis=(1, 2))
        if not finite.all():
            end = first + int(np.argmin(finite))
            failed = (end, NonFiniteIntegrandError(
                "survival integrand is not finite on the panel "
                f"[{lo[end]:.6g}, {lo[end] + width[end]:.6g}]"))
            break
    return (np.concatenate(sums)[:end],
            np.concatenate(mags)[:end] if magnitudes else None, failed)


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
        est, mag, bad = _panel_sums(f, lo[open_], width[open_], order,
                                    magnitudes=prev is None)
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


def _sorted_curve(mode, sys, kernel, taus, tol):
    """(s, quad_error, zeroth_order, orders, failed) on sorted taus > 0."""
    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    ct_0 = np.array(_corr_combos(kernel, 0.0)) if mode.removed else None
    coeffs = _coefficients(pc, taus, mode.removed, ct_0)
    coeffs = coeffs.reshape(taus.size, -1, coeffs.shape[-1])
    f = _moment_integrand(kernel, pc.omega_r, mode.removed)
    # start_order is passed explicitly so traces can count the nodes.
    integral, err, _, orders, failed = integrate_triangle(
        f, taus, coeffs, tol=tol, start_order=8)
    # The oscillation term is itself O(delta_r^2), so the small-delta
    # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
    zeroth = 0.0 if mode.removed else \
        (p_full.delta_r / pc.omega_r * np.sin(0.5 * pc.omega_r * taus)) ** 2
    return (1.0 - zeroth - 0.25 * sys.delta ** 2 * integral,
            0.25 * sys.delta ** 2 * err, zeroth, orders, failed)


def survival_prob(mode, sys, kernel, taus, *, tol=TOL):
    """The DecayCurve of any tau grid (a scalar is the one-point grid), in
    the caller's order, from one pass over its valid taus, stably sorted.

    No SpinZenoError is raised: a failed point is a gap, NaN in s and
    gamma, with its error in `errors`.  A negative or non-finite tau is a
    DomainError (its diagnostics are NaN).  A failed panel's error goes to
    its point and every later one in sorted order; an error raised around
    the quadrature goes to every valid point.  An s outside (0, 1 +
    SURVIVAL_SLACK] is an OutOfRegimeError; an s in (1, 1 + SURVIVAL_SLACK]
    is truncation rounding: Gamma comes from min(s, 1), and s is kept.
    """
    mode = SurvivalMode(mode)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    valid = (taus >= 0.0) & (taus < math.inf)
    errors = {int(i): DomainError("tau must be finite and nonnegative")
              for i in np.flatnonzero(~valid)}
    s, quad_err, zeroth = (np.where(valid, v, np.nan) for v in (1.0, 0.0, 0.0))
    orders = np.zeros(taus.size, dtype=int)
    # tau = 0 is s = 1 exactly; `live` are the positive taus, stably sorted
    live = np.flatnonzero(valid & (taus > 0.0))
    live = live[np.argsort(taus[live], kind="stable")]
    failed = None
    if sys.delta != 0.0 and live.size:
        try:
            s[live], quad_err[live], zeroth[live], orders[live], failed = \
                _sorted_curve(mode, sys, kernel, taus[live], tol)
        except SpinZenoError as exc:
            s[valid] = quad_err[valid] = np.nan
            errors.update((int(i), exc) for i in np.flatnonzero(valid))
    if failed is not None:
        errors.update((int(i), failed[1]) for i in live[failed[0]:])
    gamma = np.array([_rate(s_t, t) for s_t, t in zip(s, taus)])
    for i in np.flatnonzero(~np.isfinite(gamma)):
        errors.setdefault(int(i), OutOfRegimeError(
            f"survival {s[i]:.6g} out of regime"))
    return DecayCurve(taus, gamma, s, mode, tuple(sorted(errors.items())),
                      {"order": orders, "quad_error": quad_err,
                       "zeroth_order": zeroth})
