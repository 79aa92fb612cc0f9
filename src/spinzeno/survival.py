"""One-interval survival probability and effective decay rate.

Four variants are supported: the full polaron-frame second-order result,
its small-delta reduction (delta_r = 0 inside every coefficient), and
both with the free system evolution removed before each measurement.

The integrands come straight from the second-order perturbation
expansion, contracted in the spin basis.  With |u> = U_S(tau)^dag |down>,
u_up = <u|up> and u_dn = <u|down>, each mu = x, y needs only
m_mu(t) = <down|sigma~_mu(t)|up> and z_mu(t) = <up|sigma~_mu(t)|up> (the
other two elements are conj(m) and -z), so v_mu(t) = <u|sigma~_mu(t)|up>
= u_dn m + u_up z.  The deficit 1 - s(tau) is a double integral of scalar
contractions against the stable correlation combinations
Ctil_mu(x) = B^2 * (e^phi +- e^-phi [- 2]).  The test suite
checks them against trig-expanded closed forms and an independent matrix
reconstruction (tests/reference/).
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import DiscreteBath
from .errors import DomainError
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


def _corr_combos(kernel, x):
    """(Ctil_1, Ctil_2) at time(s) x, where Ctil_mu = 2 C_mumu."""
    e_plus, e_minus = kernel.scaled_exponentials(x)
    b2 = kernel.coherence_b() ** 2
    return e_plus + e_minus - 2.0 * b2, e_plus - e_minus


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

def _spin_elements(pc, t):
    """(m, z) of sigma~_x and of sigma~_y at time(s) t (see above)."""
    a_x, a_y, a_z, b_x, b_y, b_z = rot_coeffs(pc, t)
    return (a_x + 1j * a_y, a_z), (b_x + 1j * b_y, b_z)


def _full_deficit_integrand(pc, tau, kernel):
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


def _removed_deficit_integrand(pc, tau, kernel):
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


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def survival_prob(mode, sys, kernel, tau, *, tol=1e-8):
    """Survival probability s(tau) for one measurement interval."""
    mode = SurvivalMode(mode)
    validity = validity_value(sys, kernel)
    if not 0.0 <= tau < math.inf:
        raise DomainError("tau must be finite and nonnegative")
    if tau == 0.0 or sys.delta == 0.0:
        return SurvivalResult(1.0, 0.0, validity, {"order": 0, "quad_error": 0.0})

    p_full = renormalize(sys, kernel)
    pc = p_full.with_small_delta() if mode.small_delta else p_full

    if mode.removed:
        f = _removed_deficit_integrand(pc, tau, kernel)
        zeroth = 0.0
    else:
        f = _full_deficit_integrand(pc, tau, kernel)
        # The oscillation term is itself O(delta_r^2), so the small-delta
        # reduction keeps its amplitude and only sends omega_r -> |epsilon|.
        zeroth = (p_full.delta_r / pc.omega_r
                  * np.sin(0.5 * pc.omega_r * tau)) ** 2

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
