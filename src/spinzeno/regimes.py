"""Decay-rate curves and Zeno/anti-Zeno classification.

Classification follows the derivative convention: the system is in the
Zeno regime where Gamma(tau) decreases as tau decreases (positive slope
in tau) and in the anti-Zeno regime where it increases as tau decreases
(negative slope).

`classify` labels each finite point by the sign of `np.gradient(gamma,
tau)` there: the slope of the parabola through the point and its two
neighbours, or of the one adjacent interval at either end.  A gap, and a
point whose |slope| is at most SLOPE_NOISE_FLOOR * max|Gamma|, is left
unlabelled (""); nothing is filled in, so a flat curve has no labels.
Where two consecutive labelled points a < b differ in sign, the crossover
is the bracket [tau[a-1], tau[b+1]] over the finite points, clipped to
the ends.  Each three-point slope is a positive-weight mix of its two
interval slopes, so Gamma both rises and falls on the bracket, which
therefore holds a stationary point.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRegimeError, SpinZenoError
from .survival import TOL, SurvivalMode, survival_prob

SLOPE_NOISE_FLOOR = 1e-6  # relative to max |Gamma|


class RegimeLabel(enum.Enum):
    ZENO = "zeno"
    ANTI_ZENO = "anti_zeno"


@dataclass(frozen=True)
class DecayCurve:
    tau_grid: np.ndarray
    gamma: np.ndarray
    s_values: np.ndarray
    mode: SurvivalMode
    errors: tuple = ()  # (index, exception) pairs for gap points

    def finite_mask(self):
        return np.isfinite(self.gamma)


@dataclass(frozen=True)
class RegimeReport:
    labels: tuple      # one RegimeLabel value or "" per tau_grid point
    crossovers: tuple  # ((tau_lo, tau_hi), direction) pairs


def tau_grid(tau_min, tau_max, n_points, spacing="geometric"):
    if not (0.0 < tau_min < tau_max):
        raise ValueError("need 0 < tau_min < tau_max")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if spacing == "geometric":
        return np.geomspace(tau_min, tau_max, n_points)
    if spacing == "linear":
        return np.linspace(tau_min, tau_max, n_points)
    raise ValueError(f"unknown grid spacing {spacing!r}")


def sample_curve(mode, sys, kernel, taus, *, tol=TOL):
    """Sample Gamma at each tau of `taus` in one pass; failed points are gaps.

    `kernel` is the BathKernel of one (bath, beta) pair; every mode sampled
    with the same kernel shares its caches.  The valid taus go, sorted,
    to one survival_prob call.  A negative or non-finite tau is a gap with
    a DomainError, a point whose s leaves (0, 1] one with an
    OutOfRegimeError, and a point whose quadrature panel failed is a gap
    with that error, as is every larger tau, whose moments include that
    panel; an error that survival_prob raises makes every point a gap.  Gaps
    are NaN in `gamma` with their exception in `errors`; a curve may
    consist of gaps only, and the caller decides what that means.
    """
    mode = SurvivalMode(mode)
    taus = np.asarray(taus, dtype=float)
    gammas = np.full(taus.size, np.nan)
    svals = np.full(taus.size, np.nan)
    valid = (taus >= 0.0) & (taus < np.inf)
    errors = {int(i): DomainError("tau must be finite and nonnegative")
              for i in np.flatnonzero(~valid)}
    order = np.flatnonzero(valid)[np.argsort(taus[valid], kind="stable")]
    if order.size:
        try:
            res = survival_prob(mode, sys, kernel, taus[order], tol=tol)
        except SpinZenoError as exc:
            errors.update((int(i), exc) for i in order)
        else:
            svals[order] = res.s
            gammas[order] = res.gamma
            failed = res.diagnostics["failed"]
            if failed is not None:
                errors.update((int(i), failed[1]) for i in order[failed[0]:])
            for i in order:
                if i not in errors and not np.isfinite(gammas[i]):
                    errors[int(i)] = OutOfRegimeError(
                        f"survival {svals[i]:.6g} out of regime")
    return DecayCurve(taus, gammas, svals, mode, tuple(sorted(errors.items())))


def classify(curve):
    """Label each point by the sign of its three-point slope, and bracket
    each sign change; below 3 finite points nothing is labelled."""
    mask = curve.finite_mask()
    tau = curve.tau_grid[mask]
    gamma = curve.gamma[mask]
    if tau.size < 3:
        return RegimeReport(("",) * curve.tau_grid.size, ())
    slope = np.gradient(gamma, tau)
    floor = SLOPE_NOISE_FLOOR * np.max(np.abs(gamma))
    signs = np.where(np.abs(slope) > floor, np.sign(slope), 0.0)
    names = {1.0: RegimeLabel.ZENO.value, -1.0: RegimeLabel.ANTI_ZENO.value,
             0.0: ""}
    labels = np.full(curve.tau_grid.size, "", dtype=object)
    labels[mask] = [names[sign] for sign in signs]

    crossovers = []
    labelled = np.flatnonzero(signs)
    for a, b in zip(labelled[:-1], labelled[1:]):
        if signs[a] != signs[b]:
            bracket = (float(tau[max(a - 1, 0)]),
                       float(tau[min(b + 1, tau.size - 1)]))
            crossovers.append(
                (bracket, f"{names[signs[a]]}_to_{names[signs[b]]}"))
    return RegimeReport(tuple(labels), tuple(crossovers))
