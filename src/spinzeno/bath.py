"""Spectral densities and the displaced-bath correlation kernel.

The kernel exponent is split as phi(t) = phi_R(t) - i*phi_I(t) with

    phi_R(t) = int_0^inf dw J(w)/w^2 cos(w t) coth(beta w / 2)
    phi_I(t) = int_0^inf dw J(w)/w^2 sin(w t)

For Ohmic and sub-Ohmic environments phi_R diverges at t = 0: phi_r0()
is then +inf, so the coherence factor B = exp(-phi_R(0)/2) is exactly 0
by plain arithmetic.  The combinations that enter downstream formulas
stay finite, so the kernel always exposes

    psi(t)   = phi_R(0) - phi_R(t)        (convergent for every s > 0)
    phi_I(t)

and forms products like B^2 exp(+-phi) in log space.

At zero temperature the Ohmic-family kernel has a closed form
(Weiss, Quantum Dissipative Systems).  With z = (1 + i w_c t)^(1-s),

    phi_R(0) = G Gamma(s-1)                          (s > 1)
    psi(t)   = G Gamma(s-1) (1 - Re z)               (s != 1)
    phi_I(t) = -G Gamma(s-1) Im z
    psi(t)   = (G/2) ln(1 + w_c^2 t^2),  phi_I(t) = G arctan(w_c t)   (s = 1)

for every s > 0.  1 - Re z is formed without cancellation as s -> 1.

At finite temperature coth(beta w/2) = 1 + 2 sum_{n>=1} exp(-n beta w)
turns each integral into a sum of zero-temperature closed forms: term n
has the cutoff 1/a_n with a_n = 1/w_c + n beta, the weight c_n (1 for
n = 0, 2 after) and the factor (w_c a_n)^(1-s),

    psi(t) + i phi_I(t) = G Gamma(s-1) w_c^(1-s)
                          sum_n c_n [a_n^(1-s) - (a_n + i t)^(1-s)]
    phi_R(0)            = G Gamma(s-1) w_c^(1-s) sum_n c_n a_n^(1-s)   (s > 2)

The terms n <= N are summed directly; the rest is an analytic
Euler-Maclaurin tail (the integral over n plus end corrections up to
B_12), and N is the smallest count whose remainder bound is below the
kernel tolerance.  The sum carries the coth weight in phi_I too, as the
half-line quadrature it replaced did, although the integral above has
none; a strict xfail in tests/test_bath.py pins that known fault.  With
the weight, phi_I diverges for s <= 1 (DivergentKernelError).
Discrete baths are finite sums.  No path integrates over frequency.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentKernelError, DomainError, QuadratureError

# B_2k / (2k)! for k = 1..6: the Euler-Maclaurin end corrections of the
# finite-temperature sum.  The remainder after them is bounded by
# |B_12| / 12! times the integral of the 12th derivative's magnitude.
EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
             1.0 / 47900160.0, -691.0 / 1307674368000.0)
MAX_THERMAL_TERMS = 10000  # direct terms of the finite-temperature sum
KERNEL_TOL = 1e-10         # default bound on the finite-temperature remainder


def _one_minus_pow(scale, e, x):
    """scale * (1 - (1 + ix)^e) as (real part, imaginary part).

    With (1 + ix)^e = exp(a + ib), 1 - Re = 2 sin^2(b/2) - expm1(a) cos b
    keeps full relative accuracy where a, b -> 0 (e -> 0 or x -> 0).
    """
    a = e * 0.5 * np.log1p(x * x)
    b = e * np.arctan(x)
    return (scale * (2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b)),
            -scale * np.exp(a) * np.sin(b))


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic-family spectral density J(w) = G w^s wc^(1-s) exp(-w/wc)."""

    G: float
    s: float
    omega_c: float

    def __post_init__(self):
        if not 0.0 <= self.G < math.inf:           # NaN fails too
            raise DomainError("coupling G must be finite and nonnegative")
        if not 0.0 < self.s < math.inf:
            raise DomainError("Ohmicity s must be finite and positive")
        if not 0.0 < self.omega_c < math.inf:
            raise DomainError("cutoff omega_c must be finite and positive")

    def eval(self, omega):
        omega = np.asarray(omega, dtype=float)
        if np.any(omega < 0.0):
            raise DomainError("spectral density is defined for omega >= 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.G * omega ** self.s * self.omega_c ** (1.0 - self.s) \
                * np.exp(-omega / self.omega_c)
        return np.where(omega == 0.0, 0.0, val)[()]


@dataclass(frozen=True)
class DiscreteBath:
    """Explicit list of bath modes (omega_k, g_k), omega strictly increasing."""

    modes: tuple

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

    @property
    def omegas(self):
        return np.array([w for w, _ in self.modes])

    @property
    def couplings(self):
        return np.array([g for _, g in self.modes])

    @property
    def alphas(self):
        """Displacement amplitudes alpha_k = g_k / omega_k."""
        return self.couplings / self.omegas


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

    beta=None means the T = 0 limit, where coth == 1.
    tol bounds the Euler-Maclaurin remainder of the finite-temperature
    sum of a continuous bath; the other paths are exact closed forms.
    """

    source: object
    beta: float = None
    tol: float = KERNEL_TOL
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.beta is not None and not 0.0 < self.beta < math.inf:
            raise DomainError("beta must be finite and positive, or None")
        if not 0.0 < self.tol < math.inf:
            raise DomainError("kernel tol must be finite and positive")

    # -- divergence bookkeeping -------------------------------------------

    @property
    def divergent(self):
        """True when the phi_R(0) integral diverges (so B = 0).

        Detected symbolically from (s, beta): s <= 1 at zero temperature,
        s <= 2 at finite temperature.  Discrete baths are finite sums.
        """
        if isinstance(self.source, DiscreteBath):
            return False
        limit = 1.0 if self.beta is None else 2.0
        return self.source.s <= limit

    def _coth(self, omega):
        # tanh keeps full relative accuracy at small arguments
        omega = np.asarray(omega, dtype=float)
        if self.beta is None:
            return np.ones_like(omega)
        return 1.0 / np.tanh(0.5 * self.beta * omega)

    # -- closed forms ---------------------------------------------------------

    def _zero_temperature_parts(self, ta):
        """Closed-form (psi, phi_I) at T = 0 for times ta >= 0."""
        J = self.source
        x = J.omega_c * ta
        if J.s == 1.0:
            return 0.5 * J.G * np.log1p(x * x), J.G * np.arctan(x)
        return _one_minus_pow(J.G * math.gamma(J.s - 1.0), 1.0 - J.s, x)

    def _thermal_terms(self):
        """(a_n, c_n for n = 0..N, G Gamma(s-1) w_c^(1-s)) of the finite-T sum.

        The weights are trapezoidal: c_0 = 1, c_n = 2, and c_N = 1 because
        the tail starts at n = N with half of its term.  N is the smallest
        count >= 1 whose Euler-Maclaurin remainder,
        4 |B_12|/12! G Gamma(s+10) w_c^(1-s) beta^11 a_N^(-s-10), is at
        most the kernel tolerance.
        """
        if "terms" not in self._cache:
            J, beta = self.source, self.beta
            a_min = 0.0
            if J.G > 0.0:
                p = len(EM_COEFFS)
                log_bound = (math.log(4.0 * abs(EM_COEFFS[-1]) * J.G)
                             + math.lgamma(J.s + 2 * p - 2)
                             + (1.0 - J.s) * math.log(J.omega_c)
                             + (2 * p - 1) * math.log(beta)
                             - math.log(self.tol))
                a_min = math.exp(log_bound / (J.s + 2 * p - 2))
            n = max(1, math.ceil((a_min - 1.0 / J.omega_c) / beta))
            if n > MAX_THERMAL_TERMS:
                raise QuadratureError(
                    f"kernel tolerance {self.tol:g} needs {n} thermal sum "
                    f"terms, more than {MAX_THERMAL_TERMS}")
            a = 1.0 / J.omega_c + beta * np.arange(n + 1)
            c = np.full(n + 1, 2.0)
            c[0] = c[-1] = 1.0
            scale = J.G * math.gamma(J.s - 1.0) * J.omega_c ** (1.0 - J.s)
            self._cache["terms"] = (a, c, scale)
        return self._cache["terms"]

    def _thermal_parts(self, ta):
        """(psi, phi_I) at finite temperature for times ta >= 0."""
        J, beta = self.source, self.beta
        if J.s <= 1.0:
            raise DivergentKernelError(
                "divergent kernel: the coth-weighted phi_I integral does not "
                f"converge at finite T for s <= 1 (s={J.s})")
        a, c, scale = self._thermal_terms()
        e = 1.0 - J.s
        psi = phi_i = 0.0
        for a_n, c_n in zip(a, c):
            p, q = _one_minus_pow(c_n * scale * a_n ** e, e, ta / a_n)
            psi = psi + p
            phi_i = phi_i + q
        big_a = float(a[-1])
        x = ta / big_a
        # integral over n >= N: k [(1 + ix)^(2-s) - 1] / (2-s), with
        # k = (2 scale / beta) A^(2-s).  Below s = 1.5 it is written through
        # W = 1 - (1 + ix)^(1-s), because scale ~ 1/(s-1) would amplify the
        # rounding of the direct form; at s = 2 it is k log(1 + ix).
        e2 = 2.0 - J.s
        k = 2.0 * scale / beta * big_a ** e2
        if J.s < 1.5:
            w_r, w_i = _one_minus_pow(k / e2, e, x)
            p, q = x * w_i - w_r, x * (k / e2) - w_i - x * w_r
        elif e2 == 0.0:
            p, q = k * 0.5 * np.log1p(x * x), k * np.arctan(x)
        else:
            p, q = _one_minus_pow(-k / e2, e2, x)
        psi = psi + p
        phi_i = phi_i + q
        # end corrections with D^(m)(A) = A^(e-m) [1 - (1 + ix)^(e-m)]
        z_inv = 1.0 / (1.0 + 1j * x)
        z_pow = (1.0 + 1j * x) ** e * z_inv       # (1 + ix)^(e-m), m = 1
        corr = 0.0
        for m, coeff in self._end_corrections(e):
            corr = corr + coeff * big_a ** (e - m) * (1.0 - z_pow)
            z_pow = z_pow * z_inv * z_inv
        return psi + scale * np.real(corr), phi_i + scale * np.imag(corr)

    def _end_corrections(self, e):
        """(m, -2 B_2k/(2k)! beta^m (e)_m) for m = 2k - 1, k = 1..6.

        -B_2k/(2k)! F^(m)(N) is the k-th Euler-Maclaurin end correction of
        sum_{n >= N} F(n) for F(n) = 2 D(a_n); d/dn = beta d/da, and
        (e)_m = e (e - 1) ... (e - m + 1) comes from D(a) = a^e - (a+it)^e.
        """
        falling = e
        for k, coeff in enumerate(EM_COEFFS):
            m = 2 * k + 1
            yield m, -2.0 * coeff * self.beta ** m * falling
            falling *= (e - m) * (e - m - 1)

    def _thermal_phi_r0(self):
        """phi_R(0) at finite temperature (s > 2) from the same sum."""
        J = self.source
        a, c, scale = self._thermal_terms()
        e = 1.0 - J.s
        big_a = float(a[-1])
        total = float(c @ a ** e) \
            + 2.0 * big_a ** (2.0 - J.s) / (self.beta * (J.s - 2.0))
        for m, coeff in self._end_corrections(e):
            total += coeff * big_a ** (e - m)
        return scale * total

    # -- kernel pieces ------------------------------------------------------

    def phi_r0(self):
        """phi_R(0); +inf where the integral diverges (see `divergent`)."""
        if "phi_r0" not in self._cache:
            if self.divergent:
                val = math.inf
            elif isinstance(self.source, DiscreteBath):
                a2 = self.source.alphas ** 2
                val = float(np.sum(a2 * self._coth(self.source.omegas)))
            elif self.beta is None:
                val = self.source.G * math.gamma(self.source.s - 1.0)
            else:
                val = self._thermal_phi_r0()
            self._cache["phi_r0"] = val
        return self._cache["phi_r0"]

    def coherence_b(self):
        """B = exp(-phi_R(0)/2), exactly 0 for divergent kernels."""
        return float(np.exp(-0.5 * self.phi_r0()))

    def phi_parts(self, t):
        """(psi(t), phi_I(t)) with psi = phi_R(0) - phi_R(t).

        Both are finite, except the coth-weighted finite-T phi_I of a
        continuous bath with s <= 1, which raises DivergentKernelError.
        """
        t = np.asarray(t, dtype=float)
        sign = np.sign(t)
        ta = np.abs(t)
        if isinstance(self.source, DiscreteBath):
            w = self.source.omegas
            a2 = self.source.alphas ** 2 * self._coth(w)
            wt = np.multiply.outer(ta, w)
            psi = (2.0 * np.sin(0.5 * wt) ** 2) @ a2
            a2i = self.source.alphas ** 2
            phi_i = np.sin(wt) @ a2i
        elif self.beta is None:
            psi, phi_i = self._zero_temperature_parts(ta)
        else:
            psi, phi_i = self._thermal_parts(ta)
        return psi[()] if np.ndim(psi) == 0 else psi, \
            (sign * phi_i)[()] if np.ndim(phi_i) == 0 else sign * phi_i

    # -- stable correlation combinations ------------------------------------

    def scaled_exponentials(self, t):
        """(E+, E-) with E+- = B^2 exp(+-phi(t)) computed in log space.

        E+ = exp(-psi(t) - i phi_I(t)) stays finite for every bath; E-
        is exactly 0 in the B = 0 limit, where phi_R(0) = +inf.
        """
        psi, phi_i = self.phi_parts(t)
        e_plus = np.exp(-psi - 1j * phi_i)
        with np.errstate(over="ignore", under="ignore"):
            e_minus = np.exp(psi - 2.0 * self.phi_r0() + 1j * phi_i)
        return e_plus, e_minus

    # -- tabulation (kept for the benchmark tracer) ---------------------------

    def tabulate(self, t_max, points=None):
        """Build (or fetch) spline tables of psi and phi_I on [0, t_max].

        No CLI path calls this; it stays because perfbench/tracer.py wraps
        it (see KernelTable).  It imports SciPy, which only the `test`
        extra installs.
        """
        from scipy.interpolate import CubicSpline

        key = ("table", float(t_max), points)
        if key in self._cache:
            return self._cache[key]
        if isinstance(self.source, DiscreteBath):
            scale = float(self.source.omegas.max())
        else:
            scale = self.source.omega_c
        if points is None:
            points = int(min(6000, max(800, 60.0 * scale * t_max)))
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
        table = KernelTable(CubicSpline(grid, psi_vals),
                            CubicSpline(grid, phi_i_vals),
                            t_max, self.phi_r0(), self.coherence_b())
        self._cache[key] = table
        return table
