"""Spectral densities and the displaced-bath correlation kernel.

The kernel exponent is split as phi(t) = phi_R(t) - i*phi_I(t) with

    phi_R(t) = int_0^inf dw J(w)/w^2 cos(w t) coth(beta w / 2)
    phi_I(t) = int_0^inf dw J(w)/w^2 sin(w t)

For Ohmic and sub-Ohmic environments phi_R diverges at t = 0 and the
coherence factor B = exp(-phi_R(0)/2) vanishes.  The combinations that
enter downstream formulas stay finite, so the kernel always exposes

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
Discrete baths are finite sums.  Only a continuous bath at finite
temperature needs half-line quadrature, and only it is tabulated as
splines for reuse (BathKernel.needs_table).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DivergentKernelError, DomainError
from .quadrature import _integrate_interval

ZERO_TEMPERATURE = None
MAX_DEPTH = 48  # bisection depth of a half-line quadrature panel


def coth(x):
    """Stable coth for positive arguments (series below 1e-4)."""
    x = np.asarray(x, dtype=float)
    small = x < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 / np.where(small, x, 1.0) + x / 3.0,
                   1.0 / np.tanh(safe))
    return out


@dataclass(frozen=True)
class SpectralDensity:
    """Ohmic-family spectral density J(w) = G w^s wc^(1-s) exp(-w/wc)."""

    G: float
    s: float
    omega_c: float

    def __post_init__(self):
        if self.G < 0.0:
            raise DomainError("coupling strength G must be nonnegative")
        if self.s <= 0.0:
            raise DomainError("Ohmicity s must be positive")
        if self.omega_c <= 0.0:
            raise DomainError("cutoff frequency omega_c must be positive")

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
    """Spline tables of psi(t) and phi_I(t) on [0, t_max] for fast reuse."""

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

    beta=None (ZERO_TEMPERATURE) means the T = 0 limit, where coth == 1.
    """

    source: object
    beta: float = ZERO_TEMPERATURE
    tol: float = 1e-10
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.beta is not None and self.beta <= 0.0:
            raise DomainError("beta must be positive (or None for T = 0)")
        if self.tol <= 0.0:
            raise DomainError("kernel tolerance must be positive")

    # -- divergence bookkeeping -------------------------------------------

    @property
    def divergent(self):
        """True when the phi_R(0) integral diverges (so B = 0).

        Detected symbolically from (s, beta): s <= 1 at zero temperature,
        s <= 2 at finite temperature.  Discrete baths are finite sums.
        """
        if isinstance(self.source, DiscreteBath):
            return False
        limit = 1.0 if self.beta is ZERO_TEMPERATURE else 2.0
        return self.source.s <= limit

    @property
    def needs_table(self):
        """True when lookups should go through a spline table.

        Only a continuous bath at finite temperature is evaluated by
        half-line quadrature; the T = 0 closed form and the discrete sums
        are cheaper to evaluate directly than to interpolate.
        """
        return not isinstance(self.source, DiscreteBath) \
            and self.beta is not ZERO_TEMPERATURE

    def _coth(self, omega):
        if self.beta is ZERO_TEMPERATURE:
            return np.ones_like(np.asarray(omega, dtype=float))
        return coth(0.5 * self.beta * np.asarray(omega, dtype=float))

    # -- continuous-bath quadrature ---------------------------------------

    def _envelope(self, omega):
        """J(w)/w^2 * coth(beta w/2), the common integrand factor."""
        J = self.source
        with np.errstate(over="ignore"):
            env = J.G * omega ** (J.s - 2.0) * J.omega_c ** (1.0 - J.s) \
                * np.exp(-omega / J.omega_c)
        return env * self._coth(omega)

    def _cutoff(self):
        J = self.source
        return J.omega_c * (J.s * np.log(10.0) + abs(np.log(self.tol)))

    def _halfline(self, weight, osc_freq):
        """Integrate envelope * weight(omega) over [0, inf).

        The bulk [split, W] runs in the plain variable with the
        oscillation-aware panel cap.  The endpoint region [0, split] is
        mapped through omega = split * v^3, which softens the algebraic
        w^(s-2) behaviour for small Ohmicity.
        """
        J = self.source
        split = J.omega_c / 8.0
        w_top = self._cutoff()
        tol = 0.5 * self.tol

        def f(omega):
            env = self._envelope(omega)
            wgt = weight(omega)
            if wgt.ndim > env.ndim:
                env = env[:, None]
            return env * wgt

        top = _integrate_interval(f, split, w_top, tol, osc_freq,
                                  MAX_DEPTH, 16)

        power = 3

        def f_sub(v):
            omega = split * v ** power
            jac = split * power * v ** (power - 1)
            vals = f(omega)
            if vals.ndim > 1:
                jac = jac[:, None]
            return vals * jac

        low = _integrate_interval(f_sub, 0.0, 1.0, tol,
                                  power * split * osc_freq,
                                  MAX_DEPTH, 16)
        return top + low

    # -- zero-temperature closed form ---------------------------------------

    def _zero_temperature_parts(self, ta):
        """Closed-form (psi, phi_I) at T = 0 for times ta >= 0."""
        J = self.source
        x = J.omega_c * ta
        if J.s == 1.0:
            return 0.5 * J.G * np.log1p(x * x), J.G * np.arctan(x)
        scale = J.G * math.gamma(J.s - 1.0)
        # z = exp(a + ib); 1 - Re z = 2 sin^2(b/2) - expm1(a) cos b keeps
        # full relative accuracy where a, b -> 0 (s -> 1 or t -> 0)
        a = (1.0 - J.s) * 0.5 * np.log1p(x * x)
        b = (1.0 - J.s) * np.arctan(x)
        psi = scale * (2.0 * np.sin(0.5 * b) ** 2 - np.expm1(a) * np.cos(b))
        phi_i = -scale * np.exp(a) * np.sin(b)
        return psi, phi_i

    # -- kernel pieces ------------------------------------------------------

    def phi_r0(self):
        """phi_R(0); raises DivergentKernelError for Ohmic/sub-Ohmic baths."""
        if self.divergent:
            raise DivergentKernelError(
                "divergent kernel: phi_R(0) integral does not converge "
                f"(s={getattr(self.source, 's', None)}, "
                f"{'T=0' if self.beta is ZERO_TEMPERATURE else 'finite T'})")
        if "phi_r0" not in self._cache:
            if isinstance(self.source, DiscreteBath):
                a2 = self.source.alphas ** 2
                val = float(np.sum(a2 * self._coth(self.source.omegas)))
            elif self.beta is ZERO_TEMPERATURE:
                val = self.source.G * math.gamma(self.source.s - 1.0)
            else:
                val = float(self._halfline(lambda w: np.ones_like(w), 0.0))
            self._cache["phi_r0"] = val
        return self._cache["phi_r0"]

    def coherence_b(self):
        """B = exp(-phi_R(0)/2), exactly 0 for divergent kernels."""
        if self.divergent:
            return 0.0
        return float(np.exp(-0.5 * self.phi_r0()))

    def phi_parts(self, t):
        """(psi(t), phi_I(t)) with psi = phi_R(0) - phi_R(t); always finite."""
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
        elif self.beta is ZERO_TEMPERATURE:
            psi, phi_i = self._zero_temperature_parts(ta)
        else:
            flat = np.atleast_1d(ta).ravel()
            osc = float(flat.max(initial=0.0))

            def weight_pair(omega):
                wt = omega[:, None] * flat[None, :]
                return np.concatenate(
                    [2.0 * np.sin(0.5 * wt) ** 2, np.sin(wt)], axis=1)

            both = self._halfline(weight_pair, osc)
            n = flat.size
            psi = both[:n].reshape(ta.shape) if ta.ndim else both[0]
            phi_i = both[n:].reshape(ta.shape) if ta.ndim else both[1]
        return psi[()] if np.ndim(psi) == 0 else psi, \
            (sign * phi_i)[()] if np.ndim(phi_i) == 0 else sign * phi_i

    def phi(self, t):
        """phi(t) = phi_R(t) - i*phi_I(t) for convergent kernels."""
        r0 = self.phi_r0()
        psi, phi_i = self.phi_parts(t)
        return (r0 - psi) - 1j * phi_i

    # -- stable correlation combinations ------------------------------------

    def scaled_exponentials(self, t, table=None):
        """(E+, E-) with E+- = B^2 exp(+-phi(t)) computed in log space.

        E+ = exp(-psi(t) - i phi_I(t)) stays finite for every bath; E-
        vanishes in the B = 0 limit.
        """
        if table is not None:
            psi, phi_i = table.psi(t), table.phi_i(t)
            r0 = table.phi_r0
        else:
            psi, phi_i = self.phi_parts(t)
            r0 = np.inf if self.divergent else self.phi_r0()
        e_plus = np.exp(-psi - 1j * phi_i)
        with np.errstate(over="ignore", under="ignore"):
            e_minus = np.exp(psi - 2.0 * r0 + 1j * phi_i)
        if np.isinf(r0):
            e_minus = np.zeros_like(e_plus)
        return e_plus, e_minus

    # -- tabulation -----------------------------------------------------------

    def tabulate(self, t_max, points=None):
        """Build (or fetch) spline tables of psi and phi_I on [0, t_max]."""
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
        r0 = np.inf if self.divergent else self.phi_r0()
        table = KernelTable(CubicSpline(grid, psi_vals),
                            CubicSpline(grid, phi_i_vals),
                            t_max, r0, self.coherence_b())
        self._cache[key] = table
        return table
