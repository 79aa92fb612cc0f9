"""Every mode against the exact short-time sum rules of
tests/reference/short_time.py, at any temperature and for the continuum.

c4 is fitted from s - 1 - c2 tau^2 with the tau^4 ... tau^7 terms on 12
tau in [0.02, 0.06].  Over the cases below that pass, the fitted c4 is
within 7.7e-5 of the rule, relative (the largest at the continuum s = 3,
removed modes, T = 0), so FIT_BOUND leaves a factor 2.6.  `full` keeps
the delta^4 tau^4 term only to the order of the second-order theory: its
fitted c4 departs from the rule by 0.64-1.05 times (1 - B^2)^2
delta^4/48 on the discrete bath, so that departure is allowed twice.  At
B = 0 `full` is `small_delta`, and is held to the small-delta rule.

The finite-temperature continuum cases are strict xfails: there phi_I
carries coth(beta w/2) (ROADMAP item 1), which moves c4 by 6.7e-4 to
6 % at s = 3 and makes every s <= 1 point a DivergentKernelError gap.
"""

import numpy as np
import pytest

from reference.short_time import fit_c4, series
from spinzeno import (BathKernel, DiscreteBath, ExactEvolution,
                      SpectralDensity, SurvivalMode, SystemParams,
                      TruncatedBathSpec, survival_prob)

FIT_TAUS = np.linspace(0.02, 0.06, 12)
FIT_BOUND = 2e-4
DISCRETE = DiscreteBath(((1.0, 0.2), (2.0, 0.25)))
SYSTEMS = {"eps1": SystemParams(1.0, 0.05), "eps0.3": SystemParams(0.3, 0.1)}
PHI_I_FAULT = pytest.mark.xfail(
    strict=True, reason="finite-T continuum phi_I carries coth(beta w/2) "
    "(ROADMAP item 1)")


def _cases():
    sources = {"discrete": DISCRETE}
    sources.update((f"s{s:g}", SpectralDensity(G=0.05, s=s, omega_c=2.0))
                   for s in (0.5, 1.0, 3.0))
    for name, source in sources.items():
        for beta in (None, 2.0, 0.5):
            marks = PHI_I_FAULT if beta is not None and name != "discrete" \
                else ()
            for sys_name, sys in SYSTEMS.items():
                yield pytest.param(source, beta, sys, marks=marks,
                                   id=f"{name}-beta{beta}-{sys_name}")


CASES = list(_cases())


def _check(mode, source, beta, sys):
    kernel = BathKernel(source, beta, tol=1e-14)
    b2 = kernel.coherence_b() ** 2
    allowance = 0.0
    rule = mode
    if mode is SurvivalMode.FULL:
        if b2 == 0.0:
            rule = SurvivalMode.SMALL_DELTA
        allowance = 2.0 * (1.0 - b2) ** 2 * sys.delta ** 4 / 48.0
    c2, c4 = series(rule, sys, source, beta)
    curve = survival_prob(mode, sys, kernel, FIT_TAUS)
    assert np.all(np.isfinite(curve.s)), curve.errors
    got = fit_c4(FIT_TAUS, curve.s, c2)
    assert abs(got - c4) <= FIT_BOUND * abs(c4) + allowance, (got, c4)


@pytest.mark.parametrize("source, beta, sys", CASES)
def test_full_matches_sum_rule(source, beta, sys):
    _check(SurvivalMode.FULL, source, beta, sys)


@pytest.mark.parametrize("source, beta, sys", CASES)
def test_small_delta_matches_sum_rule(source, beta, sys):
    _check(SurvivalMode.SMALL_DELTA, source, beta, sys)


@pytest.mark.parametrize("mode", [SurvivalMode.REMOVED_FULL,
                                  SurvivalMode.REMOVED_SMALL_DELTA])
@pytest.mark.parametrize("source, beta, sys", CASES)
def test_removed_matches_sum_rule(mode, source, beta, sys):
    _check(mode, source, beta, sys)


@pytest.mark.parametrize("sys", SYSTEMS.values(), ids=SYSTEMS.keys())
@pytest.mark.parametrize("removed", [False, True])
def test_exact_evolution_matches_sum_rule(sys, removed):
    # the oracle's rounding reaches 6e-4 of c4 on [0.01, 0.06], so it is
    # fitted on [0.02, 0.12]; there it is within 1.9e-5 of the rule
    taus = np.linspace(0.02, 0.12, 12)
    evo = ExactEvolution(sys, TruncatedBathSpec(DISCRETE, n_max=10), taus)
    mode = SurvivalMode.REMOVED_FULL if removed else SurvivalMode.FULL
    c2, c4 = series(mode, sys, DISCRETE, None)
    got = fit_c4(taus, [evo.survival(tau, removed) for tau in taus], c2)
    assert abs(got - c4) <= 5e-5 * abs(c4), (got, c4)
