"""One-interval survival probability and effective decay rate.

Four variants are supported: the full polaron-frame second-order result,
its small-delta reduction (delta_r = 0 inside every coefficient), and
both with the free system evolution removed before each measurement.

The integrands come straight from the second-order perturbation
expansion: with |u> = U_S(tau)^dag |down>, m_mu(t) = <down|sigma~_mu(t)|up>
and v_mu(t) = <u|sigma~_mu(t)|up>, the deficit 1 - s(tau) is a double
integral of scalar contractions against the stable correlation
combinations Ctil_mu(x) = B^2 * (e^phi +- e^-phi [- 2]).  The test suite
checks them against trig-expanded closed forms and an independent matrix
reconstruction (tests/reference/).
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import DiscreteBath
from .polaron import renormalize, rot_coeffs
from .quadrature import integrate_triangle

SURVIVAL_SLACK = 1e-6  # tolerated truncation excursion of s outside [0, 1]


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
    validity: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def cutoff_scale(source):
    """Frequency scale playing the role of omega_c in validity estimates."""
    if isinstance(source, DiscreteBath):
        return float(source.omegas.max())
    return source.omega_c


def validity_value(sys, kernel):
    """(delta/omega_c)^2 (1 - B^4)."""
    b = kernel.coherence_b()
    return (sys.delta / cutoff_scale(kernel.source)) ** 2 * (1.0 - b ** 4)


def _auto_table(kernel, tau):
    """Shared kernel table; bucketed t_max so nearby taus reuse one table."""
    if not kernel.needs_table:
        return None
    bucket = 2.0 ** math.ceil(math.log2(max(tau, 1e-3)))
    return kernel.tabulate(bucket)


def _corr_combos(kernel, x, table):
    """(Ctil_1, Ctil_2) at time(s) x, where Ctil_mu = 2 C_mumu."""
    e_plus, e_minus = kernel.scaled_exponentials(x, table=table)
    b2 = kernel.coherence_b() ** 2
    return e_plus + e_minus - 2.0 * b2, e_plus - e_minus


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

def _full_deficit_integrand(pc, tau, kernel, table):
    """Integrand of the second-order deficit for the non-removed variants.

    Carries everything except the global delta^2/4 prefactor.
    """
    c = np.cos(0.5 * pc.omega_r * tau)
    sh = np.sin(0.5 * pc.omega_r * tau)
    amp = c + 1j * sh * pc.nz              # <u|sigma_x|up>
    uz = -1j * sh * pc.nx                  # <u|sigma_z|up> = <u|up>

    def f(t, tp):
        ct1, ct2 = _corr_combos(kernel, tp, table)
        k_t = rot_coeffs(pc, t[:, :1])      # t alone: once per outer node
        k_s = rot_coeffs(pc, t - tp)
        total = 0.0
        for mu, ct in ((0, ct1), (1, ct2)):
            kx, ky, kz = k_t[3 * mu], k_t[3 * mu + 1], k_t[3 * mu + 2]
            kxs, kys, kzs = k_s[3 * mu], k_s[3 * mu + 1], k_s[3 * mu + 2]
            v_t = amp * (kx + 1j * ky) - 1j * sh * pc.nx * kz
            v_s = amp * (kxs + 1j * kys) - 1j * sh * pc.nx * kzs
            dot = kx * kxs + ky * kys + kz * kzs
            cr_x = ky * kzs - kz * kys
            cr_y = kz * kxs - kx * kzs
            cr_z = kx * kys - ky * kxs
            # <u|sigma~_mu(t) sigma~_mu(t-tp)|up>, with <up|u> = conj(uz)
            braket = dot * uz + 1j * (amp * (cr_x + 1j * cr_y) + uz * cr_z)
            total = total + np.real(
                ct * (v_s * np.conj(v_t) - braket * np.conj(uz)))
        return total

    return f


def _removed_deficit_integrand(pc, tau, kernel, table):
    """Integrand of the deficit for the removed-evolution variants."""

    def m_pair(t):
        a_x, a_y, _, b_x, b_y, _ = rot_coeffs(pc, t)
        return a_x + 1j * a_y, b_x + 1j * b_y

    ct1_0, ct2_0 = _corr_combos(kernel, 0.0, table)

    def f(t, tp):
        t_col = t[:, :1]                    # t alone: once per outer node
        m1_t, m2_t = m_pair(t_col)
        m1_s, m2_s = m_pair(t - tp)
        ct1_a, ct2_a = _corr_combos(kernel, tp, table)
        ct1_b, ct2_b = _corr_combos(kernel, t - tp - tau, table)
        ct1_c, ct2_c = _corr_combos(kernel, tau - t_col, table)
        bracket1 = np.conj(ct1_a) + ct1_0 - ct1_b - ct1_c
        bracket2 = np.conj(ct2_a) + ct2_0 - ct2_b - ct2_c
        return (np.real(m1_t * np.conj(m1_s) * bracket1)
                + np.real(m2_t * np.conj(m2_s) * bracket2))

    return f


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def survival_prob(mode, sys, kernel, tau, *, tol=1e-8, table=None):
    """Survival probability s(tau) for one measurement interval."""
    mode = SurvivalMode(mode)
    validity = validity_value(sys, kernel)
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0 or sys.delta == 0.0:
        return SurvivalResult(1.0, 0.0, validity, {"order": 0, "quad_error": 0.0})

    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full
    if table is None:
        table = _auto_table(kernel, tau)
    elif table.t_max < tau:
        raise ValueError(f"kernel table covers t <= {table.t_max:g}, "
                         f"shorter than tau = {tau:g}")

    if mode.removed:
        f = _removed_deficit_integrand(pc, tau, kernel, table)
        zeroth = 0.0
    else:
        f = _full_deficit_integrand(pc, tau, kernel, table)
        # The oscillation term is itself O(delta_r^2), so the small-delta
        # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
        amp_x = p_full.delta_r / pc.omega_r if mode.small_delta else pc.nx
        zeroth = (amp_x * np.sin(0.5 * pc.omega_r * tau)) ** 2

    # start_order is passed explicitly so traces can count the nodes.
    integral, quad_err, order = integrate_triangle(f, tau, tol=tol,
                                                   start_order=8)
    s = 1.0 - zeroth - 0.25 * sys.delta ** 2 * float(integral)
    gamma = math.nan
    if 0.0 < s <= 1.0 + SURVIVAL_SLACK:
        gamma = -math.log(min(s, 1.0)) / tau
    diagnostics = {"order": order,
                   "quad_error": 0.25 * sys.delta ** 2 * quad_err,
                   "zeroth_order": zeroth}
    return SurvivalResult(float(s), gamma, validity, diagnostics)
