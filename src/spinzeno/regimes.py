"""Decay-rate curves and Zeno/anti-Zeno classification.

Classification follows the derivative convention: the system is in the
Zeno regime where Gamma(tau) decreases as tau decreases (positive slope
in tau) and in the anti-Zeno regime where it increases as tau decreases
(negative slope).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SpinZenoError
from .survival import SurvivalMode, survival_prob, validity_value

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
    validity: float
    errors: tuple = ()  # (index, message) pairs for gap points

    def finite_mask(self):
        return np.isfinite(self.gamma)


@dataclass(frozen=True)
class RegimeReport:
    crossovers: tuple  # (tau_star, direction) pairs
    segments: tuple    # ((tau_lo, tau_hi), RegimeLabel) pairs


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


def sample_curve(mode, sys, kernel, tau_min, tau_max, n_points, *,
                 spacing="geometric", tol=1e-8):
    """Sample Gamma(tau) on a grid; failed points become gaps, not holes.

    `kernel` is the BathKernel of one (bath, beta) pair; every mode sampled
    with the same kernel shares its caches and its table.
    """
    mode = SurvivalMode(mode)
    grid = tau_grid(tau_min, tau_max, n_points, spacing)
    table = kernel.tabulate(tau_max) if kernel.needs_table else None
    gammas = np.full(n_points, np.nan)
    svals = np.full(n_points, np.nan)
    errors = []
    for i, tau in enumerate(grid):
        try:
            res = survival_prob(mode, sys, kernel, tau, tol=tol, table=table)
        except SpinZenoError as exc:
            errors.append((i, str(exc)))
            continue
        svals[i] = res.s
        gammas[i] = res.gamma
        if not np.isfinite(res.gamma):
            errors.append((i, f"survival {res.s:.6g} out of regime"))

    if not np.any(np.isfinite(gammas)):
        raise SpinZenoError("every grid point failed; empty curve")
    return DecayCurve(grid, gammas, svals, mode, validity_value(sys, kernel),
                      tuple(errors))


def classify(curve):
    """Label Zeno/anti-Zeno segments and locate slope-sign crossovers."""
    mask = curve.finite_mask()
    tau = curve.tau_grid[mask]
    gamma = curve.gamma[mask]
    if tau.size < 3:
        raise ValueError("classification needs at least 3 finite points")
    floor = SLOPE_NOISE_FLOOR * np.max(np.abs(gamma))
    slopes = np.diff(gamma) / np.diff(tau)
    signs = np.where(np.abs(slopes) > floor, np.sign(slopes), 0.0)

    # forward/backward fill so sub-noise intervals inherit a neighbour label
    filled = signs.copy()
    for i in range(1, filled.size):
        if filled[i] == 0.0:
            filled[i] = filled[i - 1]
    for i in range(filled.size - 2, -1, -1):
        if filled[i] == 0.0:
            filled[i] = filled[i + 1]
    if np.all(filled == 0.0):
        filled[:] = 1.0  # flat curve: no acceleration anywhere, call it Zeno

    def label(sign):
        return RegimeLabel.ZENO if sign > 0 else RegimeLabel.ANTI_ZENO

    crossovers = []
    segments = []
    start = tau[0]
    for i in range(1, filled.size):
        if filled[i] != filled[i - 1]:
            t_star = _locate_extremum(tau, gamma, i)
            direction = f"{label(filled[i - 1]).value}_to_{label(filled[i]).value}"
            crossovers.append((t_star, direction))
            segments.append(((start, t_star), label(filled[i - 1])))
            start = t_star
    segments.append(((start, tau[-1]), label(filled[-1])))
    return RegimeReport(tuple(crossovers), tuple(segments))


def _locate_extremum(tau, gamma, i):
    """Quadratic interpolation of the extremum near the shared point i."""
    lo = max(0, i - 1)
    hi = min(tau.size, lo + 3)
    lo = hi - 3
    coeff = np.polyfit(tau[lo:hi], gamma[lo:hi], 2)
    if coeff[0] == 0.0:
        return tau[i]
    t_star = -0.5 * coeff[1] / coeff[0]
    return float(np.clip(t_star, tau[lo], tau[hi - 1]))
