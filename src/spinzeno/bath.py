"""Spectral densities and the displaced-bath correlation kernel.

The kernel exponent is split as phi(t) = phi_R(t) - i*phi_I(t) with

    phi_R(t) = int_0^inf dw J(w)/w^2 cos(w t) coth(beta w / 2)
    phi_I(t) = int_0^inf dw J(w)/w^2 sin(w t)

A decoupled bath (G = 0) has phi = 0 and B = 1 for every s.  For G > 0,
phi_R(0) diverges at s <= 1 at zero temperature and at s <= 2 at finite
temperature; phi_r0() alone decides this and is then +inf, so the
coherence factor B = exp(-phi_R(0)/2) is exactly 0 by plain arithmetic.
The combinations that enter downstream formulas stay finite, so the
kernel always exposes

    psi(t)   = phi_R(0) - phi_R(t)        (convergent for every s > 0)
    phi_I(t)

and forms products like B^2 exp(+-phi) in log space.

At zero temperature the Ohmic-family kernel has a closed form
(Weiss, Quantum Dissipative Systems).  With z = (1 + i w_c t)^(1-s),

    phi_R(0) = G Gamma(s-1)                          (s > 1)
    psi(t)   = G Gamma(s-1) (1 - Re z)               (s != 1)
    phi_I(t) = -G Gamma(s-1) Im z
    psi(t)   = (G/2) ln(1 + w_c^2 t^2),  phi_I(t) = G arctan(w_c t)   (s = 1)

for every s > 0.  1 - Re z is formed without cancellation as s -> 1,
and ln(1 + w_c^2 t^2)/2 as ln(w_c t) above w_c t = 1e150, whose square
would overflow.

At finite temperature coth(beta w/2) = 1 + 2 sum_{n>=1} exp(-n beta w)
turns each integral into a sum of zero-temperature closed forms: term n
has the cutoff 1/a_n with a_n = 1/w_c + n beta, the weight c_n (1 for
n = 0, 2 after) and the factor (w_c a_n)^(1-s),

    psi(t) + i phi_I(t) = G Gamma(s-1)
                          sum_n c_n (w_c a_n)^(1-s) [1 - (1 + i t/a_n)^(1-s)]
    phi_R(0)            = G Gamma(s-1) sum_n c_n (w_c a_n)^(1-s)       (s > 2)

Since w_c a_n >= 1, the power (w_c a_n)^(1-s) is at most 1 for s > 1 and
cannot overflow, however large s is.  psi reaches 2 phi_R(0), so the
spectral density admits only G and s with a finite 2 G |Gamma(s-1)|
(s != 1): that bounds psi at T = 0, its prefactor, and every term of the
finite-T sum.

The terms n <= N are summed in one pass over n, in order; the rest is an
analytic Euler-Maclaurin tail (the integral over n plus end corrections
up to B_12), and N is the smallest count whose remainder bound is below
KERNEL_SHARE * tol.  The sum carries the coth weight in phi_I too, as
the half-line quadrature it replaced did, although the integral above
has none; a strict xfail in tests/test_bath.py pins that known fault.
With the weight, phi_I diverges for s <= 1 (DivergentKernelError).
Discrete baths are finite sums, and a mode whose alpha_k^2 = (g_k/w_k)^2
is not a finite double is rejected, as is a kernel whose 2 phi_R(0) =
2 sum_k alpha_k^2 coth(beta w_k/2), psi's largest value, is not (a tiny
w_k at finite T, or a huge alpha_k).  No path integrates over frequency.

A BathKernel holds only its source, beta and tol.  phi_R(0), the terms
of the finite-T sum and a discrete bath's weights alpha_k^2 and
alpha_k^2 coth(beta w_k/2) are cached properties derived from them, so
dataclasses.replace gives a kernel that computes everything afresh.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergentKernelError, DomainError, QuadratureError
from .survival import TOL

# B_2k / (2k)! for k = 1..6: the Euler-Maclaurin end corrections of the
# finite-temperature sum.  The remainder after them is bounded by
# |B_12| / 12! times the integral of the 12th derivative's magnitude.
EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
             1.0 / 47900160.0, -691.0 / 1307674368000.0)
MAX_THERMAL_TERMS = 10000  # direct terms of the finite-temperature sum
KERNEL_SHARE = 1e-2        # the finite-T remainder's bound, relative to tol


def _half_log1p_sq(x):
    """0.5 log1p(x^2) for a NumPy x >= 0: log x above 1e150, where x^2 may
    overflow and the omitted 0.5 log1p(x^-2) < 1e-300 is below rounding."""
    if not (x > 1e150).any():       # the common case, kept cheap
        return 0.5 * np.log1p(x * x)
    with np.errstate(over="ignore", divide="ignore"):
        return np.where(x > 1e150, np.log(x), 0.5 * np.log1p(x * x))


def _one_minus_pow(scale, e, x):
    """scale * (1 - (1 + ix)^e) as (real part, imaginary part).

    With (1 + ix)^e = exp(a + ib), 1 - Re = 2 sin^2(b/2) - expm1(a) cos b
    keeps full relative accuracy where a, b -> 0 (e -> 0 or x -> 0).
    """
    a = e * _half_log1p_sq(x)
    b = e * np.arctan(x)
    return (scale * (2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b)),
            -scale * np.exp(a) * np.sin(b))


def ohmicity_ok(s):
    """True for s > 0 whose Gamma(s - 1), the closed forms' prefactor, is a
    finite float; s = 1 needs none.  Below s ~ 1e-16, s - 1 rounds to -1."""
    try:
        return s == 1.0 or 0.0 < s and math.isfinite(math.gamma(s - 1.0))
    except (OverflowError, ValueError):   # Gamma overflows, or has a pole
        return False


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic-family spectral density J(w) = G w^s wc^(1-s) exp(-w/wc)."""

    G: float
    s: float
    omega_c: float

    def __post_init__(self):
        if not 0.0 <= self.G < math.inf:           # NaN fails too
            raise DomainError("coupling G must be finite and nonnegative")
        if not ohmicity_ok(self.s):
            raise DomainError("Ohmicity s must be > 0 with finite "
                              "Gamma(s - 1)")
        if not 0.0 < self.omega_c < math.inf:
            raise DomainError("cutoff omega_c must be finite and positive")
        if self.s != 1.0 and \
                not 2.0 * abs(self.G * math.gamma(self.s - 1.0)) < math.inf:
            raise DomainError("2 G |Gamma(s - 1)|, the scale of the kernel's "
                              "psi, must be a finite double")


@dataclass(frozen=True)
class DiscreteBath:
    """Explicit list of bath modes (omega_k, g_k), omega strictly increasing.

    omegas, couplings and the displacement amplitudes alphas = g_k/omega_k
    are read-only arrays built once from the modes.
    """

    modes: tuple
    omegas: np.ndarray = field(init=False, compare=False, repr=False)
    couplings: np.ndarray = field(init=False, compare=False, repr=False)
    alphas: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        modes = tuple((float(w), float(g)) for w, g in self.modes)
        object.__setattr__(self, "modes", modes)
        omegas = np.array([w for w, _ in modes])
        gs = np.array([g for _, g in modes])
        if len(modes) == 0:
            raise DomainError("discrete bath needs at least one mode")
        if not np.all(np.isfinite(modes)):
            raise DomainError("omega_k and g_k of every mode must be finite")
        if np.any(omegas <= 0.0):
            raise DomainError("mode frequencies must be strictly positive")
        if np.any(np.diff(omegas) <= 0.0):
            raise DomainError("mode frequencies must be strictly increasing")
        if np.any(gs < 0.0):
            raise DomainError("couplings g_k must be nonnegative")
        with np.errstate(over="ignore"):
            alphas = gs / omegas
            if not np.all(np.isfinite(alphas ** 2)):
                raise DomainError("(g_k/omega_k)^2 of every mode must be "
                                  "finite")
        for name, values in (("omegas", omegas), ("couplings", gs),
                             ("alphas", alphas)):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def weights(self, beta=None):
        """(alpha_k^2, alpha_k^2 coth(beta omega_k / 2)) at the inverse
        temperature beta (None: T = 0); tanh keeps full relative accuracy
        at small arguments.  A DomainError if twice the second sum,
        2 phi_R(0), the largest psi, is not a finite double."""
        a2 = self.alphas ** 2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            thermal = a2 if beta is None \
                else a2 * (1.0 / np.tanh(0.5 * beta * self.omegas))
            if not 2.0 * np.sum(thermal) < math.inf:
                raise DomainError("2 phi_R(0) = 2 sum_k alpha_k^2 coth(beta "
                                  "omega_k/2) must be finite")
        return a2, thermal


class KernelTable:
    """Spline tables of psi(t) and phi_I(t) on [0, t_max].

    No CLI path builds one: every kernel is evaluated directly.  The class
    stays because perfbench/tracer.py wraps its psi and phi_i lookups
    (tests/test_benchmark_hooks.py resolves them); it goes together with
    that hook.
    """

    def __init__(self, psi_spline, phi_i_spline, t_max, phi_r0, b):
        self._psi = psi_spline
        self._phi_i = phi_i_spline
        self.t_max = t_max
        self.phi_r0 = phi_r0
        self.b = b

    def psi(self, t):
        """phi_R(0) - phi_R(|t|); even in t."""
        return self._psi(np.abs(t))

    def phi_i(self, t):
        """phi_I(t); odd in t."""
        t = np.asarray(t)
        return np.sign(t) * self._phi_i(np.abs(t))


@dataclass(frozen=True)
class BathKernel:
    """Evaluator for the correlation exponent of a given bath at beta.

    beta=None means the T = 0 limit, where coth == 1.  tol bounds the
    error in s of every point of every curve on the kernel.  KERNEL_SHARE
    * tol bounds the one inexact kernel path, the finite-temperature sum of
    a continuous bath, in psi, phi_I and phi_R(0).  s takes them times
    (delta/2)^2 over a triangle of area tau^2/2, so their share of its
    error scales as (delta tau)^2 KERNEL_SHARE * tol (measured: below 0.03
    times that, and 0.06 tol at delta tau = 30).
    """

    source: object
    beta: float = None
    tol: float = TOL

    def __post_init__(self):
        if self.beta is not None and not 0.0 < self.beta < math.inf:
            raise DomainError("beta must be finite and positive, or None")
        if not 0.0 < self.tol < math.inf:
            raise DomainError("tol must be finite and positive")
        if isinstance(self.source, DiscreteBath):
            self._mode_weights      # a DomainError if phi_R(0) overflows

    # -- divergence and frequency scale ---------------------------------

    @property
    def divergent(self):
        """True when the phi_R(0) integral diverges, so B = 0 (see phi_r0)."""
        return self.phi_r0() == math.inf

    @property
    def omega_scale(self):
        """omega_c, or the top mode frequency of a discrete bath."""
        src = self.source
        return float(src.omegas[-1]) if isinstance(src, DiscreteBath) \
            else src.omega_c

    # -- closed forms ---------------------------------------------------------

    def _zero_temperature_parts(self, ta):
        """Closed-form (psi, phi_I) at T = 0 for times ta >= 0."""
        J = self.source
        x = J.omega_c * ta
        if J.s == 1.0:
            return J.G * _half_log1p_sq(x), J.G * np.arctan(x)
        return _one_minus_pow(J.G * math.gamma(J.s - 1.0), 1.0 - J.s, x)

    @cached_property
    def _thermal_terms(self):
        """(a_n, c_n G Gamma(s-1) (w_c a_n)^(1-s) for n = 0..N) of the finite-T
        sum.

        The weights are trapezoidal: c_0 = 1, c_n = 2, and c_N = 1 because
        the tail starts at n = N with half of its term.  N is the smallest
        count >= 1 whose Euler-Maclaurin remainder,
        4 |B_12|/12! G Gamma(s+10) w_c^(1-s) beta^11 a_N^(-s-10), is at
        most KERNEL_SHARE * tol (a sum of logs: no product underflows).
        """
        J, beta = self.source, self.beta
        a_min = 0.0
        if J.G > 0.0:
            p = len(EM_COEFFS)
            log_bound = (math.log(4.0 * abs(EM_COEFFS[-1])) + math.log(J.G)
                         + math.lgamma(J.s + 2 * p - 2)
                         + (1.0 - J.s) * math.log(J.omega_c)
                         + (2 * p - 1) * math.log(beta)
                         - math.log(KERNEL_SHARE) - math.log(self.tol))
            a_min = math.exp(log_bound / (J.s + 2 * p - 2))
        n = max(1, math.ceil((a_min - 1.0 / J.omega_c) / beta))
        if n > MAX_THERMAL_TERMS:
            raise QuadratureError(
                f"tol {self.tol:g} needs {n} thermal sum terms, more "
                f"than {MAX_THERMAL_TERMS}")
        a = 1.0 / J.omega_c + beta * np.arange(n + 1)
        c = np.full(n + 1, 2.0)
        c[0] = c[-1] = 1.0
        return a, c * J.G * math.gamma(J.s - 1.0) \
            * (J.omega_c * a) ** (1.0 - J.s)

    def _direct_sum(self, ta):
        """(psi, phi_I) of the finite-T terms n = 0..N: one call over a
        leading n axis, summed in order (a reduction over a lone time
        would go pairwise)."""
        n_axis = (-1,) + (1,) * np.ndim(ta)
        a, weights = (v.reshape(n_axis) for v in self._thermal_terms)
        return tuple(np.add.accumulate(v, axis=0)[-1] for v in
                     _one_minus_pow(weights, 1.0 - self.source.s, ta / a))

    def _thermal_parts(self, ta):
        """(psi, phi_I) at finite temperature for times ta >= 0."""
        J, beta = self.source, self.beta
        if J.s <= 1.0:
            raise DivergentKernelError(
                "divergent kernel: the coth-weighted phi_I integral does not "
                f"converge at finite T for s <= 1 (s={J.s})")
        a, weights = self._thermal_terms
        e = 1.0 - J.s
        psi, phi_i = self._direct_sum(ta)
        big_a = float(a[-1])
        x = ta / big_a
        # the tail's scale G Gamma(s-1) (w_c A)^(1-s), the last term's
        # weight (c_N = 1)
        scale = float(weights[-1])
        # integral over n >= N: k [(1 + ix)^(2-s) - 1] / (2-s), with
        # k = 2 scale A / beta.  Below s = 1.5 it is written through
        # W = 1 - (1 + ix)^(1-s), because scale ~ 1/(s-1) would amplify the
        # rounding of the direct form; at s = 2 it is k log(1 + ix).
        e2 = 2.0 - J.s
        k = 2.0 * scale * big_a / beta
        if J.s < 1.5:
            w_r, w_i = _one_minus_pow(k / e2, e, x)
            p, q = x * w_i - w_r, x * (k / e2) - w_i - x * w_r
        elif e2 == 0.0:
            p, q = k * _half_log1p_sq(x), k * np.arctan(x)
        else:
            p, q = _one_minus_pow(-k / e2, e2, x)
        psi = psi + p
        phi_i = phi_i + q
        # end corrections with D^(m)(A) = A^(e-m) [1 - (1 + ix)^(e-m)],
        # scale carrying the A^e and each coefficient its A^-m
        z_inv = 1.0 / (1.0 + 1j * x)
        z_pow = (1.0 + 1j * x) ** e * z_inv       # (1 + ix)^(e-m), m = 1
        corr = 0.0
        for coeff in self._end_corrections(e, big_a):
            corr = corr + coeff * (1.0 - z_pow)
            z_pow = z_pow * z_inv * z_inv
        return psi + scale * np.real(corr), phi_i + scale * np.imag(corr)

    def _end_corrections(self, e, big_a):
        """-2 B_2k/(2k)! (beta/A)^m (e)_m for m = 2k - 1, k = 1..6, A = a_N.

        -B_2k/(2k)! F^(m)(N) is the k-th Euler-Maclaurin end correction of
        sum_{n >= N} F(n) for F(n) = 2 D(a_n); d/dn = beta d/da, and
        (e)_m = e (e - 1) ... (e - m + 1) comes from D(a) = a^e - (a+it)^e.
        beta/A <= 1/N, so no power overflows, however large beta is.
        """
        falling = e
        for k, coeff in enumerate(EM_COEFFS):
            m = 2 * k + 1
            yield -2.0 * coeff * (self.beta / big_a) ** m * falling
            falling *= (e - m) * (e - m - 1)

    def _thermal_phi_r0(self):
        """phi_R(0) at finite temperature (s > 2) from the same sum."""
        J = self.source
        a, weights = self._thermal_terms
        big_a = float(a[-1])
        tail = 2.0 * big_a / (self.beta * (J.s - 2.0))
        for coeff in self._end_corrections(1.0 - J.s, big_a):
            tail += coeff
        return float(np.sum(weights)) + float(weights[-1]) * tail

    # -- kernel pieces ------------------------------------------------------

    @cached_property
    def _mode_weights(self):
        """A discrete bath's weights at this kernel's beta."""
        return self.source.weights(self.beta)

    @cached_property
    def _phi_r0(self):
        if isinstance(self.source, DiscreteBath):
            return float(np.sum(self._mode_weights[1]))
        if self.source.G == 0.0:
            return 0.0
        if self.source.s <= (1.0 if self.beta is None else 2.0):
            return math.inf
        if self.beta is None:
            return self.source.G * math.gamma(self.source.s - 1.0)
        return self._thermal_phi_r0()

    def phi_r0(self):
        """phi_R(0); +inf where the integral diverges (B = 0), decided
        here only: G > 0 with s <= 1 at T = 0 or s <= 2 at finite T."""
        return self._phi_r0

    def coherence_b(self):
        """B = exp(-phi_R(0)/2), exactly 0 for divergent kernels."""
        return float(np.exp(-0.5 * self.phi_r0()))

    def phi_parts(self, t):
        """(psi(t), phi_I(t)) with psi = phi_R(0) - phi_R(t).

        Both are finite, except the coth-weighted finite-T phi_I of a
        coupled continuous bath with s <= 1 (DivergentKernelError).
        """
        t = np.asarray(t, dtype=float)
        sign = np.sign(t)
        ta = np.abs(t)
        if isinstance(self.source, DiscreteBath):
            a2i, a2 = self._mode_weights
            wt = np.multiply.outer(ta, self.source.omegas)
            psi = (2.0 * np.sin(0.5 * wt) ** 2) @ a2
            phi_i = np.sin(wt) @ a2i
        elif self.source.G == 0.0:
            psi = phi_i = np.zeros_like(ta)
        elif self.beta is None:
            psi, phi_i = self._zero_temperature_parts(ta)
        else:
            psi, phi_i = self._thermal_parts(ta)
        return psi[()], (sign * phi_i)[()]

    # -- stable correlation combinations ------------------------------------

    def scaled_exponentials(self, t):
        """(E+, E-) with E+- = B^2 exp(+-phi(t)) computed in log space.

        E+ = exp(-psi(t) - i phi_I(t)) stays finite for every bath; E-
        is exactly 0 in the B = 0 limit, where phi_R(0) = +inf.
        """
        psi, phi_i = self.phi_parts(t)
        # the phase u = e^{-i phi_I} once; E- takes conj(u) rather than
        # conj(E+) exp(2 psi - 2 phi_R(0)), whose factor exp(-2 phi_R(t))
        # overflows while E- itself is tiny
        u = np.exp(-1j * phi_i)
        e_plus = np.exp(-psi) * u
        with np.errstate(over="ignore", under="ignore"):
            e_minus = np.exp(psi - 2.0 * self.phi_r0()) * u.conj()
        return e_plus, e_minus

    # -- tabulation (kept for the benchmark tracer) ---------------------------

    def tabulate(self, t_max, points=None):
        """Build spline tables of psi and phi_I on [0, t_max].

        No CLI path calls this; it stays because perfbench/tracer.py wraps
        it (see KernelTable).  It imports SciPy, which only the `test`
        extra installs.
        """
        from scipy.interpolate import CubicSpline

        if points is None:
            points = int(min(6000,
                             max(800, 60.0 * self.omega_scale * t_max)))
        # quadratic grading: curvature of the kernel concentrates near t=0
        u = np.linspace(0.0, 1.0, points + 1)
        grid = t_max * u ** 2
        psi_vals = np.empty_like(grid)
        phi_i_vals = np.empty_like(grid)
        chunk = 512
        for lo in range(0, grid.size, chunk):
            sel = grid[lo:lo + chunk]
            psi_vals[lo:lo + chunk], phi_i_vals[lo:lo + chunk] = self.phi_parts(sel)
        psi_vals[0] = 0.0
        phi_i_vals[0] = 0.0
        return KernelTable(CubicSpline(grid, psi_vals),
                           CubicSpline(grid, phi_i_vals),
                           t_max, self.phi_r0(), self.coherence_b())
