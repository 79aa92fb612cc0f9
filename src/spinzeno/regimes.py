"""Decay-rate curves and Zeno/anti-Zeno classification.

Classification follows the derivative convention: the system is in the
Zeno regime where Gamma(tau) decreases as tau decreases (positive slope
in tau) and in the anti-Zeno regime where it increases as tau decreases
(negative slope).

`classify` takes a curve in any tau order.  It labels each finite point
by the sign of `np.gradient(gamma, tau)` over the distinct finite taus,
sorted: the slope of the parabola through the point and its two
neighbours, or of the one adjacent interval at either end.  A gap, and a
point whose |slope| is at most SLOPE_NOISE_FLOOR * max|Gamma|, is left
unlabelled (""); nothing is filled in, so a flat curve has no labels.
Where two consecutive labelled points a < b differ in sign, the crossover
is the bracket [tau[a-1], tau[b+1]] over those sorted taus, clipped to
the ends.  Each three-point slope is a positive-weight mix of its two
interval slopes, so Gamma both rises and falls on the bracket, which
therefore holds a stationary point.  Curves come from
survival.survival_prob; `sample_curve` is that function's older name.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .survival import TOL, survival_prob

SLOPE_NOISE_FLOOR = 1e-6  # relative to max |Gamma|


class RegimeLabel(enum.Enum):
    ZENO = "zeno"
    ANTI_ZENO = "anti_zeno"


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
    """survival_prob under its older name, kept only because the benchmark
    tracer wraps spinzeno.cli.sample_curve; it goes with that hook."""
    return survival_prob(mode, sys, kernel, taus, tol=tol)


def classify(curve):
    """Label each point by the sign of its three-point slope over the
    distinct finite taus, sorted (a repeated tau takes its first Gamma),
    and bracket each sign change; below 3 such taus nothing is labelled."""
    mask = curve.finite_mask()
    tau, first, inverse = np.unique(curve.tau_grid[mask], return_index=True,
                                    return_inverse=True)
    gamma = curve.gamma[mask][first]
    if tau.size < 3:
        return RegimeReport(("",) * curve.tau_grid.size, ())
    slope = np.gradient(gamma, tau)
    floor = SLOPE_NOISE_FLOOR * np.max(np.abs(gamma))
    signs = np.where(np.abs(slope) > floor, np.sign(slope), 0.0)
    names = {1.0: RegimeLabel.ZENO.value, -1.0: RegimeLabel.ANTI_ZENO.value,
             0.0: ""}
    labels = np.full(curve.tau_grid.size, "", dtype=object)
    labels[mask] = [names[sign] for sign in signs[inverse]]

    crossovers = []
    labelled = np.flatnonzero(signs)
    for a, b in zip(labelled[:-1], labelled[1:]):
        if signs[a] != signs[b]:
            bracket = (float(tau[max(a - 1, 0)]),
                       float(tau[min(b + 1, tau.size - 1)]))
            crossovers.append(
                (bracket, f"{names[signs[a]]}_to_{names[signs[b]]}"))
    return RegimeReport(tuple(labels), tuple(crossovers))
