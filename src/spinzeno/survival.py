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
Each panel runs QUADPACK's 15-point Gauss-Kronrod rule, whose embedded
7-point Gauss rule gives the error estimate, and is bisected until it
meets its share of the tolerance: one kernel call per level for every
open sub-panel of the curve.
survival_prob runs that pass over any grid's valid taus, sorted, and
returns the DecayCurve in the grid's own order, with every gap named.

The factors e^{i Omega_r a x} and Phi_c(x) take one complex exponential
per node (_basis): with the half-angle form phi1(y) = e^{iy/2}
sin(y/2)/(y/2), the powers of h = e^{i Omega_r x/2} give them all, and
the negative frequencies are the conjugates of the positive ones.  The
same factors at tau enter A, whose nine (j, k) terms are summed by one
scatter per block.  The magnitudes sum |U| |V| behind the rounding floor
come from the first level only.

The modes of one cell (one kernel and tau grid) share that first level,
a FirstLevel: the kernel at its nodes and Ctil(0) once, and the panel
sums once per distinct Omega_r, with the constant row if any mode of the
cell is removed.  Each mode takes the leading rows and keeps its own
coefficients, acceptance test and later levels, so a curve is
bit-identical whether it is solved alone or in a cell.
"""

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DomainError, NonFiniteIntegrandError, OutOfRegimeError,
                     QuadratureError, SpinZenoError)
from .polaron import renormalize, rot_coeffs

TOL = 1e-8              # default bound on each point's error in s
LIMIT = 2048            # most sub-panels one grid interval may be cut into
ROUNDING_FLOOR = 1e-13  # least stop tolerance, relative to sum |A| int |f|
SURVIVAL_SLACK = 1e-6   # tolerated truncation excursion of s outside [0, 1]
MAX_NODES = 2048        # nodes per integrand call: bounds the work arrays

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., QUADPACK, 1983) to
# double precision, the half x >= 0 of the symmetric rule: each node, its
# 15-point Kronrod weight and its weight in the embedded 7-point Gauss
# rule, 0 at a Kronrod-only node
_QK15 = np.array([
    [0.9914553711208126, 0.022935322010529224, 0.0],
    [0.9491079123427585, 0.06309209262997856, 0.1294849661688697],
    [0.8648644233597691, 0.10479001032225019, 0.0],
    [0.7415311855993945, 0.14065325971552592, 0.27970539148927664],
    [0.5860872354676911, 0.1690047266392679, 0.0],
    [0.4058451513773972, 0.19035057806478542, 0.3818300505051189],
    [0.20778495500789848, 0.20443294007529889, 0.0],
    [0.0, 0.20948214108472782, 0.4179591836734694]])
# nodes ascending, and their K15 and G7 weights
_K15_X, _K15_W, _G7_W = np.concatenate([_QK15 * [-1.0, 1.0, 1.0],
                                        _QK15[-2::-1]]).T
# (node, rule) weights: the K15 sum and the K15 - G7 difference
_WEIGHTS = np.stack([_K15_W, _K15_W - _G7_W], axis=-1)


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
    """(delta/omega_c)^2 (1 - B^4), omega_c being `kernel.omega_scale`."""
    b, r = kernel.coherence_b(), sys.delta / kernel.omega_scale
    return r * r * (1.0 - b ** 4)


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
    half = 0.5 * pc.omega_r * np.asarray(taus, dtype=float)[:, None, None]
    u_up = -1j * np.sin(half) * pc.nx                         # <u|up>
    u_dn = np.cos(half) + 1j * np.sin(half) * pc.nz           # <u|down>
    t = 2.0 * np.pi / 3.0 * np.arange(3) / pc.omega_r
    m, z = map(np.array, zip(*_spin_elements(pc, t)))    # each (mu, t)
    f_m, f_z, f_mc, f_zc = np.array([m, z, m.conj(), z.conj()]) @ _DFT.T
    if removed:
        return np.broadcast_to(f_m[:, :, None] * f_mc[:, None, :],
                               half.shape[:1] + (2, 3, 3))
    f_v = u_dn * f_m + u_up * f_z
    f_vc = np.conj(u_dn) * f_mc + np.conj(u_up) * f_zc
    # <u|sigma~_mu(t) sigma~_mu(s)|up>, summed over |up>, |down>, is
    # v(t) z(s) + w(t) m(s) with w = u_up conj(m) - u_dn z
    f_w = u_up * f_mc - u_dn * f_z
    braket = f_v[..., None] * f_z[:, None] + f_w[..., None] * f_m[:, None]
    return f_vc[..., None] * f_v[..., None, :] \
        - np.conj(u_up)[..., None] * braket


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
    V = Phi_c' at the nodes x; the moments are int U V^T."""
    return lambda x: _integrand(_corr_combos(kernel, x), w, removed, x)


def _integrand(rows, w, removed, x):
    """(U, V) at the nodes x from the kernel rows there, (Ctil_1,
    Ctil_2), with the constant row after them if `removed`.  Both are
    views of arrays that keep the nodes innermost, the order the products
    and the panel sums run in."""
    rows = list(rows)
    if removed:
        rows.append(np.ones(x.shape))
    e, phi = _basis(w, x)
    u = (np.stack(rows)[:, None] * e).reshape((-1,) + x.shape)
    v = np.concatenate([np.ones((1,) + x.shape), phi])
    return np.moveaxis(u, 0, -1), np.moveaxis(v, 0, -1)


def _products(u, v, half, magnitudes):
    """Each panel's K15 sums of U V^T and their differences from the G7
    sums, in one array with the columns (K15, K15 - G7) x j, and the K15
    sums of |U| |V|^T if `magnitudes` (else None); `half` holds the
    panels' half-widths."""
    hw = half[..., None] * _WEIGHTS
    with np.errstate(invalid="ignore", over="ignore"):
        u = np.swapaxes(u, 1, 2)
        vw = (v[:, :, None] * hw[..., None]).reshape(v.shape[:2] + (-1,))
        return (u @ vw, np.abs(u) @ (np.abs(v) * hw[..., :1])
                if magnitudes else None)


def _panel_sums(products, lo, width, magnitudes=False):
    """K15 sums of U V^T on each panel, their differences from the
    embedded G7 sums, and the K15 sums of |U| |V|^T if `magnitudes`.

    The panels go in chunks of at most MAX_NODES nodes (always at least
    one panel): products(start, x, half, magnitudes) gives the sums of
    the chunk whose first panel is panel `start`, with nodes x (panel,
    node) and half-widths `half` (panel, 1), as (sums, abs_sums) with
    the columns of the sums (K15, K15 - G7) x j.  Returns (sums, diffs,
    abs_sums, failed) for the panels before the first failure (abs_sums
    is None without `magnitudes`); failed is None or (panel position,
    error) for the first panel whose sums are not finite, as any
    non-finite value of the integrand makes them.
    """
    per_call = max(1, MAX_NODES // _K15_X.size)
    sums, mags, failed, end = [], [], None, lo.size
    for first in range(0, lo.size, per_call):
        half = 0.5 * width[first:first + per_call, None]
        chunk, chunk_mags = products(
            first, lo[first:first + per_call, None] + half * (_K15_X + 1.0),
            half, magnitudes)
        sums.append(chunk)
        mags.append(chunk_mags)
        finite = np.isfinite(chunk).all(axis=(1, 2))
        if not finite.all():
            end = first + int(np.argmin(finite))
            failed = (end, NonFiniteIntegrandError(
                "survival integrand is not finite on the panel "
                f"[{lo[end]:.6g}, {lo[end] + width[end]:.6g}]"))
            break
    sums = np.concatenate(sums)[:end]
    n = sums.shape[-1] // 2
    return (sums[..., :n], sums[..., n:],
            np.concatenate(mags)[:end] if magnitudes else None, failed)


def integrate_triangle(f, taus, coeffs, tol=TOL, first=None):
    """D(tau_t) = Re sum_ij coeffs[t, i, j] int_0^tau_t U_i(x) V_j(x) dx for
    every tau_t of the sorted, nonnegative `taus`, with (U, V) = f(x).

    The grid intervals [0, tau_0], [tau_0, tau_1], ... start as one
    sub-panel each.  Every level takes one call of f (MAX_NODES nodes at
    most) over all open sub-panels, with QUADPACK's 15-point Kronrod rule
    K15 and its embedded 7-point Gauss rule G7.  A sub-panel of width w
    in an interval of width W is accepted once its difference dM = K15 -
    G7, with A the largest |coeffs| of the points that use the interval,
    satisfies

        sum |A| |dM| <= max(tol * w / tau_max, sqrt(w / W) F),
        F = ROUNDING_FLOOR * sum |A| int |U| |V|,

    and is bisected otherwise.  At w = W this is the test max(tol W /
    tau_max, F) on the whole interval.  Truncation errors add up, so a
    sub-panel's share of tol goes with w.  The rounding floor F is there
    because K15 and G7 cannot agree much closer than the rounding of the
    integrand (a smaller tol is raised to it); rounding errors of
    different sub-panels are independent and add in quadrature, so the
    shares sqrt(w / W) F do too; if they all had one sign, n sub-panels
    could accept sqrt(n) F, up to sqrt(LIMIT) F = 45 F.  int |U| |V| over
    the interval is taken from the first level's K15 sums.  An
    interval's moments are the K15 sums of its accepted sub-panels, so
    tol bounds each point's error in D, apart from the floors (an infinite
    tol accepts the first level).  survival_prob passes tol / (delta^2/4),
    so that kernel.tol bounds s = 1 - zeroth - (delta^2/4) D.  They are
    added one sub-panel at a time, level by level and left to right
    within a level (as are the |dM| of the error bounds), so their bits
    do not depend on how many sub-panels a level accepts at once.  f
    must map an array of nodes (panel, node) to (U, V) with shapes
    (panel, node, i) and (panel, node, j).  `first`, if given, gives the
    first level's sums in place of f, in _panel_sums' `products` form
    (survival_prob passes its FirstLevel's).

    Returns (values, error bounds, largest interval node count, interval
    node counts, failed): an interval's node count is 15 for each
    sub-panel it was given, 15 (2 p - 1) for p accepted sub-panels, and
    0 at a gap; the error bound of point t is the sum over the accepted
    sub-panels up to it of sum |coeffs[t]| |dM|.  An interval that would
    need more than LIMIT sub-panels (after at most 2 LIMIT - 1 of them),
    or where f is not finite, makes its point and every later point NaN;
    failed is then (its index, the error), else None.
    """
    taus = np.asarray(taus, dtype=float)
    if not (np.all(taus >= 0.0) and np.all(np.diff(taus) >= 0.0)):
        raise ValueError("taus must be nonnegative and sorted")
    n = taus.size
    lo = np.concatenate(([0.0], taus[:-1]))
    width = taus - lo
    a_abs = np.abs(coeffs)
    a_max = np.maximum.accumulate(a_abs[::-1])[::-1]
    # tau_max = 0 only when every width is 0, or the grid is empty
    rate = tol / (taus.max(initial=0.0) or 1.0)
    floor = None
    moments = np.zeros(coeffs.shape, dtype=complex)
    changes = np.zeros(coeffs.shape)
    pieces = np.ones(n, dtype=int)       # each interval's partition size
    end, failed = n, None                # points from `end` on are gaps
    # the open sub-panels in interval order: interval, left end, width
    owner, sub_lo, sub_w = np.arange(n), lo, width

    def later(start, x, half, magnitudes):
        return _products(*f(x), half, magnitudes)

    products = later if first is None else first
    while owner.size:
        est, diff, mag, bad = _panel_sums(products, sub_lo, sub_w,
                                          magnitudes=floor is None)
        products = later
        if bad is not None:
            end = int(owner[bad[0]])
            failed = (end, bad[1])
        if floor is None:
            floor = ROUNDING_FLOOR * np.sum(a_max[:len(mag)] * mag,
                                            axis=(1, 2))
        k = np.searchsorted(owner, end)
        owner, sub_lo, sub_w = owner[:k], sub_lo[:k], sub_w[:k]
        diff = np.abs(diff[:k])
        err = np.sum(a_max[owner] * diff, axis=(1, 2))
        # shares: w of tol, sqrt(w / W) of the floor (see the docstring);
        # an infinite tol times a zero width fails the first test only
        with np.errstate(invalid="ignore"):
            done = (err <= rate * sub_w) | \
                (err * np.sqrt(width[owner]) <= floor[owner] * np.sqrt(sub_w))
        # flat indices take NumPy's fast loop, in sub-panel order per cell
        cells = np.arange(moments.size).reshape(n, -1)[owner[done]].ravel()
        np.add.at(moments.reshape(-1), cells, est[:k][done].reshape(-1))
        np.add.at(changes.reshape(-1), cells, diff[done].reshape(-1))
        owner, sub_lo, sub_w = owner[~done], sub_lo[~done], sub_w[~done]
        if not owner.size:
            break
        pieces += np.bincount(owner, minlength=n)
        over = owner[pieces[owner] > LIMIT]
        if over.size:
            end = int(over[0])
            stop = max(rate * width[end], floor[end])
            failed = (end, QuadratureError(
                f"triangle quadrature did not converge below {stop:g} in "
                f"{LIMIT} sub-panels"))
            k = np.searchsorted(owner, end)
            owner, sub_lo, sub_w = owner[:k], sub_lo[:k], sub_w[:k]
        # bisect what is left
        sub_w = np.repeat(0.5 * sub_w, 2)
        sub_lo = np.repeat(sub_lo, 2)
        sub_lo[1::2] += sub_w[1::2]
        owner = np.repeat(owner, 2)
    values = np.real(np.sum(coeffs * np.cumsum(moments, axis=0), axis=(1, 2)))
    errors = np.sum(a_abs * np.cumsum(changes, axis=0), axis=(1, 2))
    values[end:] = errors[end:] = np.nan
    # p accepted sub-panels are the leaves of a bisection tree of 2p - 1
    nodes = _K15_X.size * (2 * pieces - 1)
    nodes[end:] = 0
    return values, errors, int(nodes.max(initial=0)), nodes, failed


def _rate(s, tau):
    """Gamma = -ln(s)/tau; NaN for s outside (0, 1 + SURVIVAL_SLACK].

    math.log, one point at a time: np.log is an ulp off it on some s, so
    an array form would change Gamma's bits."""
    if not 0.0 < s <= 1.0 + SURVIVAL_SLACK:
        return math.nan
    # 0.0 - keeps s == 1 from giving -0.0
    return 0.0 - math.log(min(s, 1.0)) / tau if tau > 0.0 else 0.0


class FirstLevel:
    """The first quadrature level of the curves of one cell: the `modes`
    on one kernel and tau grid.

    That level is one K15 panel on every grid interval, the same nodes
    for every mode.  The kernel rows (Ctil_1, Ctil_2) there and Ctil(0)
    are evaluated once, and the panel sums once for each distinct
    Omega_r, with the constant row when any mode of the cell is removed.
    A mode takes the leading rows.  A matrix product forms each row of
    its result from that row of its left factor alone, and NumPy's BLAS
    does so bit for bit (tests/test_survival.py checks it), so a curve
    is bit-identical alone or in a cell.  The arrays live as long as the
    object.
    """

    def __init__(self, modes, kernel, taus):
        self.modes, self.kernel = set(map(SurvivalMode, modes)), kernel
        self.taus = np.atleast_1d(np.asarray(taus, dtype=float))
        self._removed = any(mode.removed for mode in self.modes)
        self._rows = {}             # chunk start -> kernel rows
        self._sums = {}             # (Omega_r, chunk start) -> panel sums

    @cached_property
    def ct_0(self):
        """(Ctil_1, Ctil_2) at 0, for the constant row of removed modes."""
        return np.array(_corr_combos(self.kernel, 0.0))

    def products(self, omega, removed):
        """integrate_triangle's `first` for a mode at Rabi frequency omega,
        with the constant row if `removed`; it always gives the magnitude
        sums, which the first level takes."""
        n = 5 * (3 if removed else 2)       # its rows (r, a)

        def products(start, x, half, magnitudes):
            sums = self._sums.get((omega, start))
            if sums is None:
                if start not in self._rows:
                    self._rows[start] = _corr_combos(self.kernel, x)
                sums = self._sums[omega, start] = _products(
                    *_integrand(self._rows[start], omega, self._removed, x),
                    half, True)
            return sums[0][:, :n], sums[1][:, :n]

        return products


def _sorted_curve(mode, sys, kernel, taus, shared):
    """(s, quad_error, zeroth_order, orders, failed) on sorted taus > 0."""
    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    ct_0 = shared.ct_0 if mode.removed else None
    coeffs = _coefficients(pc, taus, mode.removed, ct_0)
    coeffs = coeffs.reshape(taus.size, -1, coeffs.shape[-1])
    f = _moment_integrand(kernel, pc.omega_r, mode.removed)
    # tol bounds s, which carries the integral times delta^2/4; where that
    # factor underflows, the deficit is below the smallest double
    scale = 0.25 * sys.delta * sys.delta
    integral, err, _, orders, failed = integrate_triangle(
        f, taus, coeffs, tol=kernel.tol / scale if scale else math.inf,
        first=shared.products(pc.omega_r, mode.removed))
    # The oscillation term is itself O(delta_r^2), so the small-delta
    # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
    # A delta_r / |epsilon| past ~1e154 overflows it: s is then not
    # finite, an out-of-regime gap.
    amplitude = p_full.delta_r / pc.omega_r
    with np.errstate(over="ignore", invalid="ignore"):
        zeroth = 0.0 if mode.removed else \
            (amplitude * np.sin(0.5 * pc.omega_r * taus)) ** 2
        return (1.0 - zeroth - scale * integral, scale * err, zeroth,
                orders, failed)


def survival_prob(mode, sys, kernel, taus, shared=None):
    """The DecayCurve of any tau grid (one point for a scalar) in the
    caller's order, from one pass over its valid taus, stably sorted.

    kernel.tol bounds each point's error in s (its diagnostics'
    quad_error), apart from the rounding floor: the quadrature of the
    integral behind s gets tol / (delta^2/4), infinite where delta^2/4
    underflows to 0.  Gamma = -ln(s)/tau is then within about tol/(s tau).

    No SpinZenoError is raised: a failed point is a gap, NaN in s and
    gamma, with its error in `errors`.  A negative or non-finite tau is a
    DomainError (its diagnostics are NaN).  A failed panel's error goes to
    its point and every later one in sorted order; an error raised around
    the quadrature goes to every valid point.  An s outside (0, 1 +
    SURVIVAL_SLACK] is an OutOfRegimeError; an s in (1, 1 + SURVIVAL_SLACK]
    is truncation rounding: Gamma comes from min(s, 1), and s is kept.

    `shared` is the FirstLevel of the cell the curve belongs to, built for
    this mode, kernel and tau grid; without one the curve gets its own.
    """
    mode = SurvivalMode(mode)
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if shared is None:
        shared = FirstLevel((mode,), kernel, taus)
    elif mode not in shared.modes or shared.kernel is not kernel or \
            not np.array_equal(shared.taus, taus, equal_nan=True):
        raise ValueError("the FirstLevel was built for other modes or "
                         "another kernel or tau grid")
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
                _sorted_curve(mode, sys, kernel, taus[live], shared)
        except SpinZenoError as exc:
            s[valid] = quad_err[valid] = np.nan
            errors.update((int(i), exc) for i in np.flatnonzero(valid))
    if failed is not None:
        errors.update((int(i), failed[1]) for i in live[failed[0]:])
    gamma = np.array(list(map(_rate, s.tolist(), taus.tolist())))
    for i in np.flatnonzero(~np.isfinite(gamma)):
        errors.setdefault(int(i), OutOfRegimeError(
            f"survival {s[i]:.6g} out of regime"))
    return DecayCurve(taus, gamma, s, mode, tuple(sorted(errors.items())),
                      {"order": orders, "quad_error": quad_err,
                       "zeroth_order": zeroth})
